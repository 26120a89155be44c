"""Million-player scale benchmark — peak RSS of the one columnar board.

Records ``BENCH_scale.json`` at the repo root (with a copy under
``benchmarks/results/``): an E3-style sweep (DISTILL vs the adaptive
split-vote adversary at ``beta = 1/n``, ``m = n``, negative reports
recorded) over player counts, measuring **incremental peak RSS** and
rounds per second for each cell.

Methodology
-----------
Every cell runs in its own subprocess so ``ru_maxrss`` reflects exactly
one run; a null subprocess (same imports, no cell) is measured first and
subtracted, so the reported number is the cell's *incremental* peak RSS,
not interpreter + numpy overhead.

Two gates, asserted by the pytest entry and by the CI ``scale-smoke``
job:

* **the memory floor** — at ``n = 10^5`` the incremental RSS must sit at
  least ``RSS_RATIO_FLOOR``× below :data:`DENSE_FIT`, the linear fit of
  the per-post-object board's RSS frozen from the last sweep that could
  still run it (``n`` = 10^4, 3·10^4, 10^5): at most 133 345 KB;
* **bit-identity** — at the default seed every cell must reproduce its
  :data:`FROZEN_DIGESTS` entry, recorded when the per-post-object board
  and the columnar board both ran these cells and agreed.

Run directly (``python benchmarks/bench_scale.py``) or through pytest
(``pytest benchmarks/bench_scale.py``). ``REPRO_BENCH_SCALE=smoke``
shrinks the sweep for CI smoke jobs (``n`` ∈ {10^4, 10^5}); the full
sweep runs every ``n`` in :data:`FROZEN_DIGESTS`. One cell:
``python benchmarks/bench_scale.py --cell <n> <seed>`` prints its JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Dict, List

import numpy as np

try:  # pytest imports this as benchmarks.bench_scale
    from benchmarks.artifacts import REPO_ROOT, write_bench_json
except ImportError:  # `python benchmarks/bench_scale.py`
    from artifacts import REPO_ROOT, write_bench_json

OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_scale.json")

SCALE = os.environ.get("REPRO_BENCH_SCALE", "full")
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))

#: acceptance floor: incremental RSS at the headline cell must be at
#: least this many times below the frozen dense fit
RSS_RATIO_FLOOR = 5.0
#: the cell the floor is asserted on
HEADLINE_N = 100_000

#: incremental peak RSS (KB) of the per-post-object board, fitted
#: linearly in n over n = 10^4, 3·10^4, 10^5 at seed 0
DENSE_FIT = {
    "slope_kb_per_player": 6.888035820895524,
    "intercept_kb": -22077.671641791112,
}

#: n -> run digest of the seed-0 cell; every recorded board agreed
FROZEN_DIGESTS = {
    10_000: "43379a5d65a9a38e6ecb1f3b839ecc8e23926deec3c7bcc5b085a12b80f29f04",
    30_000: "94ef6a2be6ffce609125d0d7069ce2df5fcbf8dae6b1cc98cf8a73ea853cfa70",
    100_000: "c70099b2ecef595205fab2c7d700599981002c154db12578ba7b610252996f47",
    500_000: "15cd3ec9f02702b4c2bf464f26394d2010ce7f4e3ccf5e4c0966572ab4498fdf",
    1_000_000: "a5f31f2f154b7580c74a2fe5c4cd4351cc4192841bcda13c26d1afe3429ea68b",
}

NS = [10_000, HEADLINE_N] if SCALE == "smoke" else sorted(FROZEN_DIGESTS)


def dense_fit_kb(n: int) -> float:
    """The frozen dense fit's incremental RSS at ``n`` players."""
    return DENSE_FIT["slope_kb_per_player"] * n + DENSE_FIT["intercept_kb"]


# ----------------------------------------------------------------------
# Child process: one cell, one JSON line
# ----------------------------------------------------------------------
def _run_cell(n: int, seed: int) -> Dict[str, object]:
    """Run one E3-style cell and report peak RSS + a run digest."""
    from repro.adversaries.split_vote import SplitVoteAdversary
    from repro.core.distill import DistillStrategy
    from repro.sim.engine import EngineConfig, SynchronousEngine
    from repro.world.generators import planted_instance

    world, honest, adversary, _faults = np.random.SeedSequence(seed).spawn(4)
    instance = planted_instance(
        n=n, m=n, beta=1.0 / n, alpha=0.75, rng=np.random.default_rng(world)
    )
    engine = SynchronousEngine(
        instance,
        DistillStrategy(),
        adversary=SplitVoteAdversary(),
        rng=np.random.default_rng(honest),
        adversary_rng=np.random.default_rng(adversary),
        config=EngineConfig(max_rounds=100_000, record_reports=True),
    )
    start = time.perf_counter()
    metrics = engine.run()
    elapsed = time.perf_counter() - start

    digest = hashlib.sha256()
    for array in (
        metrics.honest_mask,
        metrics.probes,
        metrics.paid,
        metrics.satisfied_round,
        metrics.halted_round,
    ):
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(str(metrics.rounds).encode())

    return {
        "n": n,
        "seed": seed,
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "elapsed_seconds": elapsed,
        "rounds": metrics.rounds,
        "posts": len(engine.board),
        "all_honest_satisfied": bool(metrics.all_honest_satisfied),
        "digest": digest.hexdigest(),
    }


def _run_null() -> Dict[str, object]:
    """Import everything a cell imports, allocate nothing, report RSS."""
    import repro.adversaries.split_vote  # noqa: F401
    import repro.core.distill  # noqa: F401
    import repro.sim.engine  # noqa: F401
    import repro.world.generators  # noqa: F401

    return {
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    }


def _child_main(argv: List[str]) -> None:
    if argv[0] == "--null":
        payload = _run_null()
    else:  # --cell <n> <seed>
        _, n, seed = argv
        payload = _run_cell(int(n), int(seed))
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")


# ----------------------------------------------------------------------
# Parent process: sweep, floor, digests
# ----------------------------------------------------------------------
def _spawn(args: List[str]) -> Dict[str, object]:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _measure_cell(n: int, baseline_kb: int) -> Dict[str, object]:
    cell = _spawn(["--cell", str(n), str(SEED)])
    cell["incremental_rss_kb"] = max(
        0, int(cell["ru_maxrss_kb"]) - baseline_kb
    )
    cell["rounds_per_second"] = cell["rounds"] / max(
        cell["elapsed_seconds"], 1e-9
    )
    cell["dense_fit_rss_kb"] = dense_fit_kb(n)
    cell["rss_ratio_vs_dense_fit"] = cell["dense_fit_rss_kb"] / max(
        cell["incremental_rss_kb"], 1
    )
    return cell


def main() -> Dict[str, object]:
    baseline = _spawn(["--null"])
    baseline_kb = int(baseline["ru_maxrss_kb"])
    print(f"null baseline: {baseline_kb} KB peak RSS")

    cells = []
    for n in NS:
        cell = _measure_cell(n, baseline_kb)
        cells.append(cell)
        print(
            f"n={n:>9,}: {cell['incremental_rss_kb']:>9,} KB "
            f"({cell['rss_ratio_vs_dense_fit']:.1f}x below the dense fit), "
            f"{cell['rounds']} rounds, "
            f"{cell['rounds_per_second']:.1f} rounds/s"
        )

    # bit-identity at the seed the digests were frozen at
    digest_checked = []
    if SEED == 0:
        for cell in cells:
            assert cell["digest"] == FROZEN_DIGESTS[cell["n"]], (
                f"n={cell['n']} changed the run: {cell['digest'][:12]} != "
                f"frozen {FROZEN_DIGESTS[cell['n']][:12]}"
            )
            digest_checked.append(cell["n"])

    headline = next(cell for cell in cells if cell["n"] == HEADLINE_N)
    data = {
        "schema": "repro-bench-scale/2",
        "generated_unix": time.time(),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "config": {
            "scale": SCALE,
            "seed": SEED,
            "cell": "E3: DISTILL vs split-vote, beta=1/n, m=n, "
            "record_reports=on",
            "rss_ratio_floor": RSS_RATIO_FLOOR,
            "headline_n": HEADLINE_N,
        },
        "null_baseline_kb": baseline_kb,
        "cells": cells,
        "dense_fit": dict(DENSE_FIT, frozen_from_ns=[10_000, 30_000, 100_000]),
        "frozen_digest_ns": digest_checked,
        "headline": {
            "n": HEADLINE_N,
            "rss_kb": headline["incremental_rss_kb"],
            "dense_fit_rss_kb": headline["dense_fit_rss_kb"],
            "ratio": headline["rss_ratio_vs_dense_fit"],
            "meets_floor": headline["rss_ratio_vs_dense_fit"]
            >= RSS_RATIO_FLOOR,
        },
    }
    write_bench_json("BENCH_scale.json", data)

    print(f"wrote {OUTPUT_PATH}")
    print(
        f"headline n={HEADLINE_N:,}: {data['headline']['rss_kb']:,} KB vs "
        f"dense fit {data['headline']['dense_fit_rss_kb']:,.0f} KB "
        f"({data['headline']['ratio']:.1f}x, floor {RSS_RATIO_FLOOR}x, "
        f"meets_floor={data['headline']['meets_floor']})"
    )
    print(f"frozen digests reproduced: n={digest_checked}")
    return data


def bench_scale(results_dir):
    """Pytest entry: record the scale point and assert the criterion."""
    data = main()
    assert os.path.exists(OUTPUT_PATH)
    assert data["headline"]["meets_floor"]
    for cell in data["cells"]:
        assert cell["all_honest_satisfied"]


if __name__ == "__main__":
    if len(sys.argv) > 1:
        _child_main(sys.argv[1:])
    else:
        main()
