"""The ``serve_closed_loop`` workload: one client, one connection.

The op stream is drawn from the seed: every 500th op is a ``tick``;
of the others 80% are reads, split evenly over ``counts``,
``recommend(5)`` and ``scores``, and 20% are votes by a random player
for a random object. The client sends the next op only after the
previous reply arrived (a closed loop, like any ``ServeClient``
caller), so one connection and one load-generating process fit a
2-core host next to the service.

Correctness: the votes the service acknowledged are replayed, epoch by
epoch, onto a fresh ``Billboard`` and a ``batch_recommender`` at the
final epoch. The service's final ``counts`` and ``scores`` replies must
equal the replay.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from calibrate import Calibration

N_PLAYERS = 4096
N_OBJECTS = 512
TICK_EVERY = 500
READ_FRACTION = 0.8
READS = ("counts", "recommend", "scores")

SHAPE = {
    "n": N_PLAYERS,
    "m": N_OBJECTS,
    "connections": 1,
    "loop": "closed",
    "read_fraction": READ_FRACTION,
    "reads": list(READS),
    "recommend_k": 5,
    "tick_every": TICK_EVERY,
}

#: ops per block drawn from the generator at once
_BLOCK = 4096


def op_stream(seed: int) -> Iterator[Tuple[str, int, int]]:
    """The seed's endless ``(op, player, object)`` stream."""
    rng = np.random.default_rng([seed, 0x5E7E])
    index = 0
    while True:
        kinds = rng.random(_BLOCK)
        reads = rng.integers(0, len(READS), size=_BLOCK)
        players = rng.integers(0, N_PLAYERS, size=_BLOCK)
        objects = rng.integers(0, N_OBJECTS, size=_BLOCK)
        for i in range(_BLOCK):
            index += 1
            if index % TICK_EVERY == 0:
                yield ("tick", 0, 0)
            elif kinds[i] < READ_FRACTION:
                yield (READS[int(reads[i])], 0, 0)
            else:
                yield ("vote", int(players[i]), int(objects[i]))


@dataclass
class LoopResult:
    """What one closed loop did and saw."""

    latencies: Dict[str, List[float]] = field(
        default_factory=lambda: {"read": [], "write": [], "tick": []}
    )
    attempted: int = 0
    #: shed and error replies
    refused: int = 0
    #: acknowledged votes as (epoch, player, object)
    votes: List[Tuple[int, int, int]] = field(default_factory=list)
    epoch: int = 0
    wall_s: float = 0.0
    #: ``wall_s`` in reference seconds, when the loop was calibrated
    scaled_wall_s: float = 0.0
    #: reference seconds of each completed epoch (its ops and its tick)
    epoch_scaled_s: List[float] = field(default_factory=list)

    def scaled_ms_per_op(self) -> float:
        """Reference milliseconds per request, median over whole epochs.

        The median keeps a slow spell shorter than half the run out.
        """
        if not self.epoch_scaled_s:
            return self.scaled_wall_s / self.attempted * 1e3
        return statistics.median(self.epoch_scaled_s) / TICK_EVERY * 1e3


def closed_loop(
    client: Any,
    ops: Iterator[Tuple[str, int, int]],
    seconds: Optional[float] = None,
    max_ops: Optional[int] = None,
    calibration: Optional[Calibration] = None,
) -> LoopResult:
    """Drive ``client`` until ``seconds`` pass or ``max_ops`` ops are sent.

    With a ``calibration``, the reference loop runs between epochs, off
    the clock: ``wall_s`` leaves it out, and each epoch is scaled by the
    loops run just before it into ``scaled_wall_s``.
    """
    from repro.errors import ConfigurationError, LoadShedError

    out = LoopResult()
    read_lat = out.latencies["read"]
    write_lat = out.latencies["write"]
    tick_lat = out.latencies["tick"]
    clock = time.perf_counter
    if calibration is not None:
        calibration.maybe_run()
    begin = resumed = clock()
    off_clock = 0.0
    deadline = begin + seconds if seconds is not None else float("inf")
    limit = max_ops if max_ops is not None else float("inf")
    for op, player, object_id in ops:
        if out.attempted >= limit or clock() >= deadline:
            break
        out.attempted += 1
        start = clock()
        try:
            if op == "vote":
                client.vote(player, object_id)
                write_lat.append(clock() - start)
                out.votes.append((out.epoch, player, object_id))
            elif op == "tick":
                client.tick()
                tick_lat.append(clock() - start)
                out.epoch += 1
                if calibration is not None:
                    paused = clock()
                    out.epoch_scaled_s.append(calibration.scaled(paused - resumed))
                    out.scaled_wall_s += out.epoch_scaled_s[-1]
                    calibration.maybe_run()
                    resumed = clock()
                    off_clock += resumed - paused
                    deadline += resumed - paused
            else:
                if op == "counts":
                    client.counts()
                elif op == "recommend":
                    client.recommend(5)
                else:
                    client.scores()
                read_lat.append(clock() - start)
        except (LoadShedError, ConfigurationError):
            out.refused += 1
    end = clock()
    out.wall_s = end - begin - off_clock
    if calibration is not None:
        out.scaled_wall_s += calibration.scaled(end - resumed)
    return out


def replay_mismatches(
    votes: List[Tuple[int, int, int]],
    epoch: int,
    counts_reply: Dict[str, Any],
    scores_reply: Dict[str, Any],
) -> int:
    """How many of the two final replies differ from the replayed board."""
    from repro.billboard.board import Billboard
    from repro.billboard.post import PostKind
    from repro.billboard.views import SnapshotView
    from repro.serve import ServeConfig, batch_recommender
    from repro.strategies.base import StrategyContext

    config = ServeConfig(n_players=N_PLAYERS, n_objects=N_OBJECTS)
    board = Billboard(N_PLAYERS, N_OBJECTS)
    by_epoch: Dict[int, List[Any]] = {}
    for vote_epoch, player, object_id in votes:
        by_epoch.setdefault(vote_epoch, []).append(
            (player, object_id, 1.0, PostKind.VOTE)
        )
    for vote_epoch in sorted(by_epoch):
        board.append_many(vote_epoch, by_epoch[vote_epoch])
    counts = SnapshotView(board, epoch=epoch).cumulative_vote_counts()
    ctx = StrategyContext(
        n=N_PLAYERS, m=N_OBJECTS, alpha=config.alpha, beta=config.beta
    )
    scores = batch_recommender(board, ctx, epoch).scores()
    mismatches = 0
    if counts_reply.get("epoch") != epoch or list(counts_reply["counts"]) != [
        int(c) for c in counts
    ]:
        mismatches += 1
    if scores_reply.get("epoch") != epoch or list(scores_reply["scores"]) != [
        float(s) for s in scores
    ]:
        mismatches += 1
    return mismatches


def final_check(client: Any, loop: LoopResult) -> int:
    """Read the final board through ``client`` and replay it."""
    return replay_mismatches(loop.votes, loop.epoch, client.counts(), client.scores())


# ----------------------------------------------------------------------
# The service as a separate process (the untraced, end-to-end run)
# ----------------------------------------------------------------------
def spawn_service(root: str) -> Tuple[subprocess.Popen, Any, float]:
    """Start ``repro serve`` and connect; returns (process, client, setup_s).

    ``setup_s`` runs from the spawn until the first reply arrived.
    """
    from repro.serve import ServeClient

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--n", str(N_PLAYERS), "--m", str(N_OBJECTS), "--port", "0",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=root,
    )
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline().strip()
        prefix = "serving on "
        if not line.startswith(prefix):
            raise RuntimeError(f"service did not announce itself: {line!r}")
        host, port = line[len(prefix):].rsplit(":", 1)
        client = ServeClient(host, int(port))
        client.board()
    except BaseException:
        stop_service(proc, None)
        raise
    return proc, client, time.perf_counter() - start


def stop_service(proc: subprocess.Popen, client: Any) -> None:
    """Ask the service to exit, then make sure it has."""
    try:
        if client is not None:
            client.shutdown()
            client.close()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of process ``pid`` (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
