"""The three ``run_trial_grid`` workloads, and the process that runs one.

``python3 perfbench/simload.py --workload W --seed S --seconds T
--trace 0|1`` runs one sim workload in a fresh process and prints one
JSON line: trials run, wall time, digest failures and the process's
peak RSS (untraced), or the per-layer span summary (traced).
``--setup-only`` stops after imports and cell construction, for the
``setup_s`` probes. ``--record FIRST LAST`` writes the reference
digests of seeds FIRST..LAST into ``digests.json``.

Each seed defines a fixed list of ``calls`` grids. Call ``i`` of seed
``S`` seeds its cells with ``[S, i, cell]``, so a call's results are a
pure function of ``(workload, S, i)``. A timed run cycles through the
list until ``--seconds`` have passed, and every call's per-trial
summary arrays must hash to the digest recorded for that seed and call.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from calibrate import Calibration

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

#: honest fraction of every sim workload (the E3 cell's alpha)
ALPHA = 0.2


@dataclass(frozen=True)
class SimWorkload:
    name: str
    n: int
    batch_lanes: int
    #: distinct grids per seed; a timed run cycles through them
    calls: int
    #: per cell: (trials, post_loss_rate or None for a fault-free cell)
    cells: Tuple[Tuple[int, Optional[float]], ...]
    adversary: str
    record_reports: bool = False

    def shape(self) -> Dict[str, Any]:
        return {
            "n": self.n,
            "m": self.n,
            "beta": f"1/{self.n}",
            "alpha": ALPHA,
            "adversary": self.adversary,
            "batch_lanes": self.batch_lanes,
            "cells": [list(cell) for cell in self.cells],
            "calls_per_seed": self.calls,
            "record_reports": self.record_reports,
        }

    @property
    def trials_per_call(self) -> int:
        return sum(trials for trials, _loss in self.cells)


WORKLOADS = {
    w.name: w
    for w in (
        # E3 headline cell: DISTILL against the adaptive split-vote writer
        SimWorkload(
            "sim_split_vote", n=4096, batch_lanes=8, calls=24,
            cells=((16, None),), adversary="split_vote",
        ),
        # three fault plans packed into one grid; 5 + 6 + 5 trials over
        # lanes of 8 put cells 0/1 and 1/2 in the same lane groups
        SimWorkload(
            "sim_faulted_grid", n=1024, batch_lanes=8, calls=96,
            cells=((5, 0.0), (6, 0.1), (5, 0.25)), adversary="silent",
        ),
        # K = 2, not 1: batch_lanes=1 routes to the scalar engine
        SimWorkload(
            "sim_large_n", n=100_000, batch_lanes=2, calls=2,
            cells=((2, None),), adversary="split_vote", record_reports=True,
        ),
    )
}


def _planted(n: int, rng: Any) -> Any:
    # looked up through the module so the traced run's wrapper applies
    from repro.world import generators

    return generators.planted_instance(n=n, m=n, beta=1.0 / n, alpha=ALPHA, rng=rng)


def build_calls(workload: SimWorkload, seed: int) -> List[List[Any]]:
    """The seed's grids: ``calls`` lists of :class:`GridCell`."""
    from repro.adversaries.silent import SilentAdversary
    from repro.adversaries.split_vote import SplitVoteAdversary
    from repro.core.distill import DistillStrategy
    from repro.faults.plan import FaultPlan
    from repro.sim.runner import GridCell

    adversary = {"split_vote": SplitVoteAdversary, "silent": SilentAdversary}[
        workload.adversary
    ]
    make_instance = functools.partial(_planted, workload.n)
    calls = []
    for call in range(workload.calls):
        cells = []
        for index, (trials, loss) in enumerate(workload.cells):
            plan = (
                None
                if loss is None
                else FaultPlan(post_loss_rate=loss, crash_rate=0.05, restart_after=4)
            )
            cells.append(
                GridCell(
                    make_instance=make_instance,
                    make_strategy=DistillStrategy,
                    make_adversary=adversary,
                    n_trials=trials,
                    seed=[seed, call, index],
                    fault_plan=plan,
                    label=f"call{call}/cell{index}",
                )
            )
        calls.append(cells)
    return calls


def results_digest(per_trial_arrays: Sequence[Dict[str, Any]]) -> str:
    """SHA-256 (first 16 hex digits) over each cell's per-trial arrays."""
    import numpy as np

    digest = hashlib.sha256()
    for per_trial in per_trial_arrays:
        for key in sorted(per_trial):
            digest.update(key.encode())
            digest.update(np.ascontiguousarray(per_trial[key], dtype="<f8").tobytes())
    return digest.hexdigest()[:16]


def _table() -> Dict[str, Dict[str, List[str]]]:
    try:
        with open(DIGESTS_PATH) as handle:
            return dict(json.load(handle))
    except FileNotFoundError:
        return {}


def load_digests(workload: SimWorkload, seed: int) -> Optional[List[str]]:
    """The recorded digests of ``seed``'s calls, or ``None`` if unrecorded."""
    known = _table().get(workload.name, {}).get(str(seed))
    return known if known is not None and len(known) >= workload.calls else None


def recorded_seeds(workload: SimWorkload) -> List[int]:
    """Seeds with a digest recorded for every call."""
    return sorted(
        int(seed)
        for seed, known in _table().get(workload.name, {}).items()
        if len(known) >= workload.calls
    )


class Runner:
    """Runs one workload's calls and checks each against its digest."""

    def __init__(self, workload: SimWorkload, seed: int) -> None:
        from repro.sim.engine import EngineConfig
        from repro.sim.runner import run_trial_grid

        self.workload = workload
        self.seed = seed
        self.calls = build_calls(workload, seed)
        self.config = EngineConfig(record_reports=workload.record_reports)
        self.run_trial_grid = run_trial_grid
        self.expected = load_digests(workload, seed)
        #: digests of this run's own first pass, for unrecorded seeds
        self.seen: Dict[int, str] = {}
        self.trials = 0
        self.failed_trials = 0
        self.wall_s = 0.0
        self.calibration = Calibration()
        #: (slot, seconds, reference seconds) of every call run
        self.call_walls: List[Tuple[int, float, float]] = []

    def run_call(self, index: int, run: Any = None) -> None:
        cells = self.calls[index % len(self.calls)]
        run = run or self.run_trial_grid
        self.calibration.maybe_run()
        start = time.perf_counter()
        try:
            results = run(cells, config=self.config, batch_lanes=self.workload.batch_lanes)
        except Exception as exc:  # a raising trial is a failed trial
            print(f"call {index}: {type(exc).__name__}: {exc}", file=sys.stderr)
            results = None
        elapsed = time.perf_counter() - start
        scaled = self.calibration.scaled(elapsed)
        trials = self.workload.trials_per_call
        self.trials += trials
        self.wall_s += elapsed
        self.call_walls.append((index % len(self.calls), elapsed, scaled))
        if results is None or not self.check(index, results):
            self.failed_trials += trials

    def ms_per_trial(self, scaled: bool) -> float:
        """Wall time per trial, each distinct call weighing the same.

        A timed run stops part-way through a pass over the calls; the
        mean per call keeps the calls run twice from counting double.
        ``scaled`` gives reference-host milliseconds (see calibrate.py).
        """
        per_slot: Dict[int, List[float]] = {}
        for slot, seconds, reference in self.call_walls:
            per_slot.setdefault(slot, []).append(reference if scaled else seconds)
        per_call = statistics.mean(statistics.mean(s) for s in per_slot.values())
        return per_call / self.workload.trials_per_call * 1e3

    def check(self, index: int, results: Sequence[Any]) -> bool:
        digest = results_digest([r.per_trial for r in results])
        slot = index % len(self.calls)
        if self.expected is not None:
            ok = digest == self.expected[slot]
        else:
            ok = self.seen.setdefault(slot, digest) == digest
        if not ok:
            print(
                f"digest mismatch: {self.workload.name} seed {self.seed} "
                f"call {slot}: got {digest}",
                file=sys.stderr,
            )
        return ok

    def check_reference(self) -> bool:
        """For an unrecorded seed: one call of a recorded seed must match."""
        if self.expected is not None:
            return True
        seeds = recorded_seeds(self.workload)
        if not seeds:
            print("no recorded digests to check against", file=sys.stderr)
            return False
        reference = Runner(self.workload, seeds[self.seed % len(seeds)])
        reference.run_call(0)
        return reference.failed_trials == 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(runner: Runner, seconds: float) -> Dict[str, Any]:
    index = 0
    deadline = time.perf_counter() + seconds
    # at least one full pass, so every call of the seed is checked
    while index < len(runner.calls) or time.perf_counter() < deadline:
        runner.run_call(index)
        index += 1
    rss = peak_rss_mb()
    reference_ok = runner.check_reference()
    return {
        "calls": index,
        "trials": runner.trials,
        "failed_trials": runner.failed_trials,
        "reference_ok": reference_ok,
        "ms_per_trial": runner.ms_per_trial(scaled=False),
        "scaled_ms_per_trial": runner.ms_per_trial(scaled=True),
        "scale": runner.calibration.scale,
        "peak_rss_mb": rss,
        "digests": "recorded" if runner.expected is not None else "unrecorded",
    }


def run_traced(runner: Runner, out_dir: str) -> Dict[str, Any]:
    """One untraced and one traced pass over the seed's calls."""
    import layers
    from spans import Installed, SpanRecorder

    for index in range(len(runner.calls)):
        runner.run_call(index)
    untraced_wall = runner.wall_s

    recorder = SpanRecorder()
    traced_grid = recorder.wrap("sim.grid", runner.run_trial_grid)
    with Installed(recorder, layers.targets()):
        for index in range(len(runner.calls)):
            runner.run_call(index, run=traced_grid)
    traced_wall = runner.wall_s - untraced_wall
    # the passes run the same calls; compare them in reference seconds
    untraced_ref = sum(ref for _, _, ref in runner.call_walls[: len(runner.calls)])
    traced_ref = sum(ref for _, _, ref in runner.call_walls[len(runner.calls):])

    summary = recorder.summary()
    self_total = sum(row["self_s"] for row in summary.values())
    roots = recorder.root_seconds()
    # every instant of a root span is some span's self time, and the
    # roots are exactly the run_trial_grid calls timed around them
    sums_ok = abs(self_total - roots) <= 1e-9 * max(roots, 1.0) + 1e-6 and (
        0.0 < roots <= traced_wall
    )
    if not sums_ok:
        print(
            f"self times sum to {self_total:.6f}s, root spans "
            f"{roots:.6f}s, traced calls {traced_wall:.6f}s",
            file=sys.stderr,
        )
    os.makedirs(out_dir, exist_ok=True)
    spans = recorder.write(os.path.join(out_dir, f"spans-{runner.workload.name}.npz"))
    overhead = traced_ref / untraced_ref - 1.0
    return {
        "trials": runner.trials,
        "failed_trials": runner.failed_trials,
        "summary": summary,
        "self_sum_ok": sums_ok,
        "extra": {"sim.grid.wall_s": roots, "trace.overhead_frac": overhead},
        "spans": spans,
    }


def record(workload: SimWorkload, first: int, last: int) -> None:
    """Add the reference digests of seeds ``first..last`` (inclusive).

    Calls already in the table are kept, so raising ``calls`` only
    records the new ones.
    """
    from repro.sim.engine import EngineConfig
    from repro.sim.runner import run_trial_grid

    config = EngineConfig(record_reports=workload.record_reports)
    for seed in range(first, last + 1):
        table = _table()
        known = table.setdefault(workload.name, {}).setdefault(str(seed), [])
        for cells in build_calls(workload, seed)[len(known):]:
            results = run_trial_grid(
                cells, config=config, batch_lanes=workload.batch_lanes
            )
            known.append(results_digest([r.per_trial for r in results]))
        with open(DIGESTS_PATH, "w") as handle:
            json.dump(table, handle, indent=0, sort_keys=True)
            handle.write("\n")
        print(f"{workload.name} seed {seed}: {len(known)} calls", flush=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", default=os.path.join(HERE, "out"))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", type=int, nargs=2, metavar=("FIRST", "LAST"))
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.record:
        record(workload, *args.record)
        return 0

    runner = Runner(workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = run_traced(runner, args.out_dir)
    else:
        result = run_untraced(runner, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
