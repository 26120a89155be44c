"""The output checks fail when the program's outputs change."""

import os
import shutil
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np

import serveload
import simload

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _per_trial():
    rng = np.random.default_rng(7)
    return {
        "rounds": rng.integers(50, 200, size=16).astype(np.float64),
        "mean_individual_probes": rng.random(16),
        "all_honest_satisfied": np.ones(16),
    }


def test_digest_changes_when_one_per_trial_value_moves_one_ulp():
    arrays = _per_trial()
    reference = simload.results_digest([arrays])
    assert simload.results_digest([_per_trial()]) == reference
    perturbed = _per_trial()
    perturbed["mean_individual_probes"][5] = np.nextafter(
        perturbed["mean_individual_probes"][5], 2.0
    )
    assert simload.results_digest([perturbed]) != reference


def test_runner_check_rejects_a_perturbed_array():
    workload = simload.WORKLOADS["sim_faulted_grid"]
    runner = simload.Runner(workload, seed=0)
    good = [SimpleNamespace(per_trial=_per_trial())]
    runner.expected = [simload.results_digest([good[0].per_trial])] * workload.calls
    assert runner.check(0, good)
    bad = _per_trial()
    bad["rounds"][0] += 1.0
    assert not runner.check(0, [SimpleNamespace(per_trial=bad)])


def test_recorded_digest_matches_a_fresh_run():
    workload = simload.WORKLOADS["sim_faulted_grid"]
    seeds = simload.recorded_seeds(workload)
    assert seeds, "digests.json records no seed"
    runner = simload.Runner(workload, seeds[0])
    runner.run_call(0)
    assert runner.trials == workload.trials_per_call
    assert runner.failed_trials == 0


def _served_loop(n_ops):
    from repro.serve import ServeClient, ServeConfig, ServiceThread

    config = ServeConfig(n_players=serveload.N_PLAYERS, n_objects=serveload.N_OBJECTS)
    with ServiceThread(config) as service:
        with ServeClient(*service.address) as client:
            loop = serveload.closed_loop(client, serveload.op_stream(3), max_ops=n_ops)
            counts, scores = client.counts(), client.scores()
    return loop, counts, scores


def test_serve_replay_fails_on_a_dropped_vote():
    loop, counts, scores = _served_loop(3 * serveload.TICK_EVERY)
    assert loop.refused == 0 and loop.epoch == 3
    assert serveload.replay_mismatches(loop.votes, loop.epoch, counts, scores) == 0

    # drop a visible vote by a player who voted only once, so nothing
    # later supersedes it
    voters = Counter(player for _, player, _ in loop.votes)
    index = next(
        i
        for i, (epoch, player, _) in enumerate(loop.votes)
        if epoch < loop.epoch and voters[player] == 1
    )
    dropped = loop.votes[:index] + loop.votes[index + 1:]
    assert serveload.replay_mismatches(dropped, loop.epoch, counts, scores) >= 1


def test_op_stream_is_a_function_of_the_seed():
    take = lambda seed: [op for _, op in zip(range(2000), serveload.op_stream(seed))]
    first = take(4)
    assert take(4) == first
    assert take(5) != first
    kinds = Counter(op for op, _, _ in first)
    assert kinds["tick"] == 2000 // serveload.TICK_EVERY
    assert 0.15 < kinds["vote"] / len(first) < 0.25


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_split_vote",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_per_layer_metrics_are_the_declared_ones():
    import json

    import layers

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    reported = layers.per_layer({}, {})
    assert {name: m["unit"] for name, m in reported.items()} == declared
