"""perfbench: the repository's benchmark, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim_split_vote --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, one after another

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` makes the traced run instead and reports the per-layer
metrics. Each workload runs in processes of its own. The last line
printed is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it name every metric with its unit.
The exit code is 1 when an output check failed and 2 when the checkout
holds no program to measure. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Sequence, Tuple

from calibrate import Calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIM_WORKLOADS = ("sim_split_vote", "sim_faulted_grid", "sim_large_n")
WORKLOADS = SIM_WORKLOADS + ("serve_closed_loop",)
#: fresh processes timed for ``setup_s``; the median is reported
SETUP_PROBES = 5
#: requests per pass of the traced serve run (four passes, two traced)
TRACED_SERVE_OPS = 4000
#: a child that runs longer than this has hung
CHILD_TIMEOUT_S = 170


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def percentile(samples: Sequence[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(samples), q)) * 1e3 if samples else 0.0


# ----------------------------------------------------------------------
# sim workloads
# ----------------------------------------------------------------------
def _sim_command(workload: str, seed: int, *extra: str) -> List[str]:
    return [
        sys.executable, os.path.join(HERE, "simload.py"),
        "--workload", workload, "--seed", str(seed), *extra,
    ]


def _sim_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    return env


def sim_setup_s(workload: str, seed: int) -> float:
    """Median host seconds from spawning a fresh process to its built cells."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            _sim_command(workload, seed, "--setup-only"),
            stdout=subprocess.PIPE, text=True, env=_sim_env(), cwd=ROOT,
        )
        assert proc.stdout is not None
        line = proc.stdout.readline().strip()
        samples.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or line != "ready":
            raise RuntimeError(f"{workload} set-up probe failed")
    return statistics.median(samples)


def sim_child(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    done = subprocess.run(
        _sim_command(
            workload, seed, "--seconds", str(seconds), "--trace", str(trace),
            "--out-dir", os.path.join(HERE, "out"),
        ),
        stdout=subprocess.PIPE, text=True, env=_sim_env(), cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {done.returncode}")
    return dict(json.loads(done.stdout.strip().splitlines()[-1]))


def run_sim(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    import layers

    if trace:
        child = sim_child(workload, seed, seconds, trace)
        return {
            "correct": child["failed_trials"] == 0 and child["self_sum_ok"],
            "attempted": child["trials"],
            "failed": child["failed_trials"],
            "metrics": layers.per_layer(child["summary"], child["extra"]),
            "notes": [
                f"{child['spans']} spans; self times sum to the traced "
                f"run_trial_grid wall time: {child['self_sum_ok']}"
            ],
        }
    # set-up is scaled by the whole run's calibration: a probe is too
    # short to be scaled by loops of its own
    host_setup = sim_setup_s(workload, seed)
    child = sim_child(workload, seed, seconds, trace)
    setup = host_setup * child["scale"]
    ms_per_trial = child["ms_per_trial"]
    scaled = child["scaled_ms_per_trial"]
    failed = child["failed_trials"] + (0 if child["reference_ok"] else 1)
    attempted = child["trials"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "ms_per_op": metric(scaled, "ms"),
            "peak_rss_mb": metric(child["peak_rss_mb"], "MB"),
            "setup_s": metric(setup, "s"),
        },
        "report": [
            ("ms_per_op", scaled, "ms", "ms_per_trial on the reference host"),
            ("ms_per_trial", ms_per_trial, "ms",
             f"{child['trials']} trials in {child['calls']} run_trial_grid calls; "
             f"host speed scale {child['scale']:.3f}"),
            ("peak_rss_mb", child["peak_rss_mb"], "MB", "fresh worker process"),
            ("setup_s", setup, "s", f"median of {SETUP_PROBES} fresh processes"),
            ("failed_frac", failed / attempted, "ratio",
             f"{failed}/{attempted}; digests {child['digests']}"),
        ],
    }


# ----------------------------------------------------------------------
# serve workload
# ----------------------------------------------------------------------
def run_serve(seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if trace:
        return run_serve_traced(seed)
    import serveload

    setups = []
    for _ in range(SETUP_PROBES - 1):
        proc, client, setup = serveload.spawn_service(ROOT)
        serveload.stop_service(proc, client)
        setups.append(setup)
    calibration = Calibration()
    proc, client, setup = serveload.spawn_service(ROOT)
    setups.append(setup)
    try:
        loop = serveload.closed_loop(
            client, serveload.op_stream(seed), seconds=seconds, calibration=calibration
        )
        rss = serveload.vm_hwm_mb(proc.pid)
        mismatches = serveload.final_check(client, loop)
    finally:
        serveload.stop_service(proc, client)
    # set-up is scaled by the whole run's calibration: a probe is too
    # short to be scaled by loops of its own
    setup = statistics.median(setups) * calibration.scale
    scaled = loop.scaled_ms_per_op()
    lat = loop.latencies
    failed = loop.refused + mismatches
    ops_per_s = loop.attempted / loop.wall_s
    return {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {
            "ms_per_op": metric(scaled, "ms"),
            "peak_rss_mb": metric(rss, "MB"),
            "setup_s": metric(setup, "s"),
        },
        "report": [
            ("ms_per_op", scaled, "ms",
             f"per request, median over {len(lat['tick'])} epochs, reference host; "
             f"host speed scale {calibration.scale:.3f}"),
            ("ops_per_s", ops_per_s, "1/s",
             f"{loop.attempted} requests in {loop.wall_s:.2f}s"),
            ("read_p50_ms", percentile(lat["read"], 50), "ms", f"n={len(lat['read'])}"),
            ("read_p99_ms", percentile(lat["read"], 99), "ms", f"n={len(lat['read'])}"),
            ("write_p50_ms", percentile(lat["write"], 50), "ms", f"n={len(lat['write'])}"),
            ("write_p99_ms", percentile(lat["write"], 99), "ms", f"n={len(lat['write'])}"),
            ("tick_p50_ms", percentile(lat["tick"], 50), "ms", f"n={len(lat['tick'])}"),
            ("peak_rss_mb", rss, "MB", "service VmHWM before shutdown"),
            ("setup_s", setup, "s", f"median of {SETUP_PROBES} spawns to first reply"),
            ("failed_frac", failed / loop.attempted, "ratio",
             f"{loop.refused} shed/error replies, {mismatches} replay mismatches"),
        ],
    }


def run_serve_traced(seed: int) -> Dict[str, Any]:
    """Four in-process passes over the same ops: plain, traced, traced, plain."""
    import layers
    import serveload
    from repro.serve import ServeClient, ServeConfig, ServiceThread
    from spans import Installed, SpanRecorder

    config = ServeConfig(n_players=serveload.N_PLAYERS, n_objects=serveload.N_OBJECTS)

    calibration = Calibration()

    def one_pass() -> Tuple[Any, int, Dict[str, Any]]:
        with ServiceThread(config) as service:
            with ServeClient(*service.address) as client:
                loop = serveload.closed_loop(
                    client,
                    serveload.op_stream(seed),
                    max_ops=TRACED_SERVE_OPS,
                    calibration=calibration,
                )
                mismatches = serveload.final_check(client, loop)
                timers = client.metrics()["timers"]
        return loop, mismatches, timers

    # plain, traced, traced, plain: a drift across passes cancels out
    recorder = SpanRecorder()
    passes = []
    for traced in (False, True, True, False):
        if traced:
            with Installed(recorder, layers.targets()):
                passes.append((traced, *one_pass()))
        else:
            passes.append((traced, *one_pass()))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    spans = recorder.write(os.path.join(HERE, "out", "spans-serve_closed_loop.npz"))
    traced_wall = sum(loop.scaled_wall_s for traced, loop, _, _ in passes if traced)
    plain_wall = sum(loop.scaled_wall_s for traced, loop, _, _ in passes if not traced)
    extra = {
        "serve.request_s": sum(
            timers.get("serve.request", (0, 0.0))[1]
            for traced, _, _, timers in passes
            if traced
        ),
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
    }
    failed = sum(loop.refused + bad for _, loop, bad, _ in passes)
    return {
        "correct": failed == 0,
        "attempted": sum(loop.attempted for _, loop, _, _ in passes),
        "failed": failed,
        "metrics": layers.per_layer(recorder.summary(), extra),
        "notes": [f"{spans} spans over two traced passes of {TRACED_SERVE_OPS} requests"],
    }


# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    if workload == "serve_closed_loop":
        return run_serve(seed, seconds, trace)
    return run_sim(workload, seed, seconds, trace)


def shape(workload: str) -> Dict[str, Any]:
    if workload == "serve_closed_loop":
        import serveload

        return serveload.SHAPE
    import simload

    return simload.WORKLOADS[workload].shape()


def check_checkout() -> None:
    """Refuse to run where there is no program to measure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no src/repro package under {ROOT}", file=sys.stderr)
        sys.exit(2)


def print_report(workload: str, seed: int, trace: int, result: Dict[str, Any]) -> None:
    print(f"workload {workload} seed {seed} trace {trace} nproc {nproc()}")
    print(f"  shape {json.dumps(shape(workload), sort_keys=True)}")
    rows = result.get("report") or [
        (name, m["value"], m["unit"], "") for name, m in result["metrics"].items()
    ]
    for name, value, unit, note in rows:
        print(f"  {name:<32} {value:>14.6g} {unit:<6} {note}")
    for note in result.get("notes", []):
        print(f"  {note}")


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_checkout()
    sys.path.insert(0, HERE)

    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_report(args.workload, args.seed, args.trace, result)
    final = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final), flush=True)
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload through its own ``run.py`` process, in turn."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [
                sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S + 60,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if done.returncode != 0 or result is None:
            combined["correct"] = False
        if result is None:
            continue
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
