"""Golden equivalence suite: every cell reproduces its frozen digest.

There is one post log, :class:`~repro.billboard.board.Billboard`, and
one ledger. This module pins their results over a grid of vote modes ×
{scalar, batched K=8} × {clean, faulted E15-style churn cell}: each
cell's :class:`~repro.sim.metrics.RunMetrics` — probes, paid,
satisfied/halted arrays, rounds, ``fault_info``, everything — must hash
to a SHA-256 recorded before the columnar board replaced the others.

The batched cells' digests (:data:`FROZEN_LANE_DIGESTS`) were recorded
while the batched engine could still run an independent object-sharded
ledger, and matched by both ledgers then. The scalar cells' digests
(:data:`FROZEN_SCALAR_DIGESTS`) were recorded while the scalar engine
could still run either the per-post chained board or the scalar
columnar board, and matched by both. The scalar and batched digests
agree because the two engines are bit-identical.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.adversaries.split_vote import SplitVoteAdversary
from repro.billboard.votes import VoteMode
from repro.core.distill import DistillStrategy
from repro.faults.plan import FaultPlan
from repro.sim.engine import EngineConfig
from repro.sim.runner import run_trials
from repro.world.generators import planted_instance


def factory(n=16, m=16, beta=0.25, alpha=0.75):
    return lambda rng: planted_instance(
        n=n, m=m, beta=beta, alpha=alpha, rng=rng
    )


VOTE_MODES = {
    "single": (VoteMode.SINGLE, 1),
    "multi": (VoteMode.MULTI, 2),
    "mutable": (VoteMode.MUTABLE, 1),
}

#: the E15-style robustness cell: post loss + delay + churn + noise at
#: once, the hardest configuration the fault layer supports
FAULTED_PLAN = FaultPlan(
    post_loss_rate=0.15,
    post_delay_rate=0.15,
    max_post_delay=2,
    crash_rate=0.03,
    restart_after=3,
    observation_noise_rate=0.2,
    observation_noise=0.05,
)

GRID = [
    (vname, lanes, plan_name)
    for vname in VOTE_MODES
    for lanes in (None, 8)
    for plan_name in ("clean", "faulted")
]


def _config(vname):
    mode, max_votes = VOTE_MODES[vname]
    return EngineConfig(
        max_rounds=50_000, vote_mode=mode, max_votes_per_player=max_votes
    )


def _run(vname, lanes, plan_name, seed=42, **kwargs):
    return run_trials(
        factory(),
        DistillStrategy,
        SplitVoteAdversary,
        n_trials=8,
        seed=seed,
        config=_config(vname),
        keep_metrics=True,
        batch_lanes=lanes,
        fault_plan=FAULTED_PLAN if plan_name == "faulted" else None,
        **kwargs,
    )


#: (vote mode, plan) -> SHA-256 of the batched K=8 cell's results (see
#: results_digest). The three vote modes give the same results on this
#: small cell, so they share a digest.
FROZEN_LANE_DIGESTS = {
    (vname, "clean"): "68f5dccc811afc8fbda42fffa5de721cbe5485d113beed0d68e83652f46de612"
    for vname in VOTE_MODES
}
FROZEN_LANE_DIGESTS.update(
    {
        (vname, "faulted"): "b37198f23799da4f8b0fc12fcadb529d8e1a8a21514944dc96f972d4560210bb"
        for vname in VOTE_MODES
    }
)

#: (vote mode, plan) -> SHA-256 of the scalar cell's results, recorded
#: while the chained and the columnar scalar boards both still existed
#: (both gave these digests).
FROZEN_SCALAR_DIGESTS = {
    ("single", "clean"): "68f5dccc811afc8fbda42fffa5de721cbe5485d113beed0d68e83652f46de612",
    ("multi", "clean"): "68f5dccc811afc8fbda42fffa5de721cbe5485d113beed0d68e83652f46de612",
    ("mutable", "clean"): "68f5dccc811afc8fbda42fffa5de721cbe5485d113beed0d68e83652f46de612",
    ("single", "faulted"): "b37198f23799da4f8b0fc12fcadb529d8e1a8a21514944dc96f972d4560210bb",
    ("multi", "faulted"): "b37198f23799da4f8b0fc12fcadb529d8e1a8a21514944dc96f972d4560210bb",
    ("mutable", "faulted"): "b37198f23799da4f8b0fc12fcadb529d8e1a8a21514944dc96f972d4560210bb",
}


def results_digest(results):
    """SHA-256 over every per-trial array and every kept metrics field."""
    digest = hashlib.sha256()
    for key in sorted(results.per_trial):
        digest.update(key.encode())
        digest.update(
            np.ascontiguousarray(results.per_trial[key], dtype="<f8").tobytes()
        )
    for m in results.metrics:
        for arr in (
            m.honest_mask, m.probes, m.paid, m.satisfied_round, m.halted_round
        ):
            digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        digest.update(
            json.dumps(
                [m.rounds, bool(m.all_honest_satisfied), m.strategy_info,
                 m.fault_info],
                sort_keys=True,
                default=lambda value: value.tolist(),
            ).encode()
        )
    return digest.hexdigest()


class TestGoldenGrid:
    """Every (vote mode, engine, fault) cell matches its frozen digest."""

    @pytest.mark.parametrize("vname,lanes,plan_name", GRID)
    def test_sparse_matches_dense(self, vname, lanes, plan_name):
        # named for the scalar post logs whose shared results these
        # digests froze; there is one board now
        results = _run(vname, lanes, plan_name)
        frozen = FROZEN_SCALAR_DIGESTS if lanes is None else FROZEN_LANE_DIGESTS
        assert results_digest(results) == frozen[(vname, plan_name)]
        if plan_name == "faulted":
            assert any(m.fault_info for m in results.metrics), (
                "faulted cell produced no fault_info — the injector "
                "never ran"
            )

    def test_substrate_knob_is_gone(self):
        with pytest.raises(TypeError, match="substrate"):
            _run("single", None, "clean", substrate="dense")
