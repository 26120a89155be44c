"""Serving-layer configuration and the ``REPRO_SERVE_*`` knobs.

The service follows the repo-wide knob-trio discipline (reprolint
RPL012): every knob is an environment variable + a CLI flag whose help
names it + a ``default_*/set_default_*/resolve_*`` resolver, and all
three are documented in ``docs/serving.md``. Like the runner knobs in
:mod:`repro.experiments.config`, none of them changes what the board
computes — they shape *where* the service listens and *how much*
traffic it admits before shedding.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError

#: environment variable supplying the default listening port
SERVE_PORT_ENV_VAR = "REPRO_SERVE_PORT"

#: environment variable supplying the default global in-flight cap
SERVE_MAX_INFLIGHT_ENV_VAR = "REPRO_SERVE_MAX_INFLIGHT"

#: environment variable supplying the default per-client token rate
SERVE_RATE_ENV_VAR = "REPRO_SERVE_RATE"

#: port 0 asks the OS for an ephemeral port (tests, benches)
FALLBACK_PORT = 0

#: requests admitted concurrently before the service sheds
FALLBACK_MAX_INFLIGHT = 256

#: per-client admission tokens per second; 0.0 disables rate limiting
FALLBACK_RATE = 0.0

_default_serve_port: Optional[int] = None

_default_serve_max_inflight: Optional[int] = None

_default_serve_rate: Optional[float] = None


def _env_int(env_var: str, fallback: int) -> int:
    raw = os.environ.get(env_var, "").strip()
    if not raw:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{env_var} must be an integer, got {raw!r}"
        ) from None


def default_serve_port() -> int:
    """The process-wide default listening port.

    Resolution order: :func:`set_default_serve_port` override, then the
    ``REPRO_SERVE_PORT`` environment variable, then ``0`` (an ephemeral
    port, printed on startup).
    """
    if _default_serve_port is not None:
        return _default_serve_port
    return _env_int(SERVE_PORT_ENV_VAR, FALLBACK_PORT)


def set_default_serve_port(port: Optional[int]) -> None:
    """Override the process-wide port default (``None`` restores env/0)."""
    global _default_serve_port
    _default_serve_port = port


def resolve_serve_port(port: Optional[int]) -> int:
    """An explicit ``port`` wins; ``None`` falls back to the default."""
    return default_serve_port() if port is None else port


def default_serve_max_inflight() -> int:
    """The process-wide default in-flight request cap.

    Resolution order: :func:`set_default_serve_max_inflight` override,
    then the ``REPRO_SERVE_MAX_INFLIGHT`` environment variable, then
    :data:`FALLBACK_MAX_INFLIGHT`. Requests beyond the cap are shed
    with :class:`~repro.errors.LoadShedError`, never queued unboundedly.
    """
    if _default_serve_max_inflight is not None:
        return _default_serve_max_inflight
    value = _env_int(SERVE_MAX_INFLIGHT_ENV_VAR, FALLBACK_MAX_INFLIGHT)
    if value <= 0:
        raise ConfigurationError(
            f"{SERVE_MAX_INFLIGHT_ENV_VAR} must be positive, got {value}"
        )
    return value


def set_default_serve_max_inflight(max_inflight: Optional[int]) -> None:
    """Override the process-wide in-flight cap (``None`` restores env)."""
    global _default_serve_max_inflight
    _default_serve_max_inflight = max_inflight


def resolve_serve_max_inflight(max_inflight: Optional[int]) -> int:
    """An explicit cap wins; ``None`` falls back to the default."""
    return (
        default_serve_max_inflight()
        if max_inflight is None
        else max_inflight
    )


def default_serve_rate() -> float:
    """The process-wide default per-client admission rate (tokens/s).

    Resolution order: :func:`set_default_serve_rate` override, then the
    ``REPRO_SERVE_RATE`` environment variable, then ``0.0`` — rate
    limiting off (the in-flight cap still applies).
    """
    if _default_serve_rate is not None:
        return _default_serve_rate
    raw = os.environ.get(SERVE_RATE_ENV_VAR, "").strip()
    if not raw:
        return FALLBACK_RATE
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{SERVE_RATE_ENV_VAR} must be a number, got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigurationError(
            f"{SERVE_RATE_ENV_VAR} must be non-negative, got {value}"
        )
    return value


def set_default_serve_rate(rate: Optional[float]) -> None:
    """Override the process-wide rate default (``None`` restores env)."""
    global _default_serve_rate
    _default_serve_rate = rate


def resolve_serve_rate(rate: Optional[float]) -> float:
    """An explicit rate wins; ``None`` falls back to the default."""
    return default_serve_rate() if rate is None else rate


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeConfig:
    """Everything a :class:`~repro.serve.service.BillboardService` needs.

    Attributes
    ----------
    n_players, n_objects:
        World dimensions of the live board (posts are validated against
        them exactly as in the simulator).
    host, port:
        Listening address. Port ``0`` binds an ephemeral port; the bound
        address is printed on startup and exposed on the service.
    max_inflight:
        Global cap on requests admitted concurrently; excess requests
        are shed with a typed error instead of queued.
    rate:
        Per-client token-bucket refill rate in requests/second
        (``0.0`` = unlimited). Clients start with a :attr:`burst`-sized
        bucket.
    burst:
        Token-bucket capacity — how many back-to-back requests a client
        may issue before the rate applies.
    queue_depth:
        Bound on the current epoch's pending write buffer; a post that
        fills it flushes the buffer to the board synchronously (the
        writer pays the flush, which is the backpressure).
    alpha, beta:
        Protocol parameters assumed by the online DISTILL recommender
        (the honest fraction and good-object fraction of the paper).
    """

    n_players: int
    n_objects: int
    host: str = "127.0.0.1"
    port: int = FALLBACK_PORT
    max_inflight: int = FALLBACK_MAX_INFLIGHT
    rate: float = FALLBACK_RATE
    burst: int = 64
    queue_depth: int = 4096
    alpha: float = 0.5
    beta: float = 0.125

    def __post_init__(self) -> None:
        if self.n_players <= 0 or self.n_objects <= 0:
            raise ConfigurationError(
                "serve needs positive world dimensions, got "
                f"n_players={self.n_players}, n_objects={self.n_objects}"
            )
        if self.max_inflight <= 0:
            raise ConfigurationError(
                f"max_inflight must be positive, got {self.max_inflight}"
            )
        if self.rate < 0:
            raise ConfigurationError(
                f"rate must be non-negative, got {self.rate}"
            )
        if self.burst <= 0:
            raise ConfigurationError(
                f"burst must be positive, got {self.burst}"
            )
        if self.queue_depth <= 0:
            raise ConfigurationError(
                f"queue_depth must be positive, got {self.queue_depth}"
            )

    def manifest_payload(self) -> Dict[str, Any]:
        """The serving-config record embedded in manifest schema v5."""
        return {
            "n_players": self.n_players,
            "n_objects": self.n_objects,
            "max_inflight": self.max_inflight,
            "rate": self.rate,
            "burst": self.burst,
            "queue_depth": self.queue_depth,
        }
