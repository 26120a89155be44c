"""Which public calls the traced run wraps, and the per-layer metrics.

Layers are named after the package's modules. Each span wraps one
public call into the layer from outside: the benchmark patches the
functions in memory for the traced run only and restores them after;
nothing under ``src/`` knows it is being traced.
"""

from __future__ import annotations

from typing import Any, Dict, List

from spans import Target, method_targets


def _rows(position: int):
    return lambda args, kwargs, result: {"rows": len(args[position])}


def _engine_rounds(args: Any, kwargs: Any, result: Any) -> Dict[str, int]:
    # A lane is live in rounds [0, rounds); the loop runs until the
    # longest lane stops, with every one of its K lanes occupying a slot.
    rounds = [metrics.rounds for metrics in result]
    longest = max(rounds, default=0)
    return {
        "rounds": longest,
        "lane_rounds": sum(rounds),
        "lane_slots": longest * len(rounds),
    }


def _filter_rows(args: Any, kwargs: Any, result: Any) -> Dict[str, int]:
    return {"rows_in": len(args[3]), "rows_out": len(result[0])}


def targets() -> List[Target]:
    """Every wrap target, imported fresh (the classes must be loaded)."""
    import repro.baselines.batched  # noqa: F401  (loads BatchedStrategy subclasses)
    import repro.core.batched  # noqa: F401
    import repro.exec.protocol as protocol
    import repro.serve.service as service
    import repro.world.generators as generators
    from repro.adversaries.batched import BatchedAdversary
    from repro.billboard.board import Billboard
    from repro.billboard.lanes import LaneBoard
    from repro.billboard.sparse import SparseBoard, SparseVoteLedger
    from repro.billboard.views import BillboardView
    from repro.billboard.votes import VoteLedger
    from repro.faults.batched import BatchedFaultInjector
    from repro.serve.admission import Admission
    from repro.serve.recommender import OnlineDistillRecommender
    from repro.sim.batch_engine import BatchedEngine
    from repro.strategies.batched import BatchedStrategy
    from repro.world.valuemodel import ValueModel

    out: List[Target] = [
        (BatchedEngine, "run", "sim.run", _engine_rounds),
        *method_targets(BatchedStrategy, "choose_probes_batch", "core.choose_probes"),
        *method_targets(BatchedStrategy, "handle_results_batch", "core.handle_results"),
        *method_targets(
            BatchedAdversary,
            "act",
            "adversaries.act",
            lambda args, kwargs, result: {"actions": len(result)},
        ),
        (LaneBoard, "post_block", "billboard.post_block", _rows(2)),
        (LaneBoard, "post_entries", "billboard.post_entries", _rows(2)),
        (VoteLedger, "record_block", "billboard.record_block", None),
        (SparseVoteLedger, "record_block", "billboard.record_block", None),
        (Billboard, "append_many", "billboard.append_many", None),
        (SparseBoard, "append_many", "billboard.append_many", None),
        *method_targets(ValueModel, "observe_many", "world.observe_many"),
        (generators, "planted_instance", "world.planted_instance", None),
        (BatchedFaultInjector, "round_start", "faults.round_start", None),
        (BatchedFaultInjector, "apply_crashes", "faults.apply_crashes", None),
        (BatchedFaultInjector, "filter_block", "faults.filter_block", _filter_rows),
        (Admission, "admit", "serve.admit", None),
        (OnlineDistillRecommender, "fold_epoch", "serve.fold_epoch", None),
        (OnlineDistillRecommender, "scores", "serve.scores", None),
        (OnlineDistillRecommender, "recommend", "serve.recommend", None),
    ]
    for query in (
        "posts",
        "vote_posts",
        "current_vote_array",
        "objects_with_votes",
        "cumulative_vote_counts",
        "counts_in_window",
    ):
        out.append((BillboardView, query, "billboard.query", None))
    # the service imported the codec by name, so both bindings are swapped
    for module in (protocol, service):
        out.append((module, "decode_frame", "exec.decode_frame", None))
        out.append(
            (
                module,
                "encode_frame",
                "exec.encode_frame",
                lambda args, kwargs, result: {"bytes": len(result)},
            )
        )
    return out


#: per-layer metric -> (span name, field of that span's summary, unit)
SPAN_METRICS = {
    "sim.run.self_s": ("sim.run", "self_s", "s"),
    "sim.rounds": ("sim.run", "rounds", "count"),
    "core.choose_probes.calls": ("core.choose_probes", "calls", "count"),
    "core.choose_probes.self_s": ("core.choose_probes", "self_s", "s"),
    "core.handle_results.self_s": ("core.handle_results", "self_s", "s"),
    "adversaries.act.calls": ("adversaries.act", "calls", "count"),
    "adversaries.act.self_s": ("adversaries.act", "self_s", "s"),
    "adversaries.actions": ("adversaries.act", "actions", "count"),
    "billboard.post_block.calls": ("billboard.post_block", "calls", "count"),
    "billboard.post_block.self_s": ("billboard.post_block", "self_s", "s"),
    "billboard.post_block.rows": ("billboard.post_block", "rows", "count"),
    "billboard.post_entries.calls": ("billboard.post_entries", "calls", "count"),
    "billboard.post_entries.self_s": ("billboard.post_entries", "self_s", "s"),
    "billboard.post_entries.rows": ("billboard.post_entries", "rows", "count"),
    "billboard.record_block.self_s": ("billboard.record_block", "self_s", "s"),
    "billboard.query.calls": ("billboard.query", "calls", "count"),
    "billboard.query.self_s": ("billboard.query", "self_s", "s"),
    "billboard.append_many.self_s": ("billboard.append_many", "self_s", "s"),
    "world.observe_many.self_s": ("world.observe_many", "self_s", "s"),
    "world.planted_instance.self_s": ("world.planted_instance", "self_s", "s"),
    "faults.round_start.self_s": ("faults.round_start", "self_s", "s"),
    "faults.apply_crashes.self_s": ("faults.apply_crashes", "self_s", "s"),
    "faults.filter_block.self_s": ("faults.filter_block", "self_s", "s"),
    "faults.filter_block.rows_in": ("faults.filter_block", "rows_in", "count"),
    "faults.filter_block.rows_out": ("faults.filter_block", "rows_out", "count"),
    "exec.decode_frame.calls": ("exec.decode_frame", "calls", "count"),
    "exec.decode_frame.self_s": ("exec.decode_frame", "self_s", "s"),
    "exec.encode_frame.self_s": ("exec.encode_frame", "self_s", "s"),
    "exec.encode_frame.bytes": ("exec.encode_frame", "bytes", "bytes"),
    "serve.admit.self_s": ("serve.admit", "self_s", "s"),
    "serve.fold_epoch.self_s": ("serve.fold_epoch", "self_s", "s"),
    "serve.scores.self_s": ("serve.scores", "self_s", "s"),
    "serve.recommend.self_s": ("serve.recommend", "self_s", "s"),
}

#: per-layer metrics measured outside the spans, with their units
EXTRA_UNITS = {
    "sim.grid.wall_s": "s",
    "serve.request_s": "s",
    "trace.overhead_frac": "ratio",
}


def per_layer(
    summary: Dict[str, Dict[str, float]], extra: Dict[str, float]
) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric; a layer the workload never entered reads 0.

    ``extra`` supplies the values measured outside the spans.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for metric, (span, field, unit) in SPAN_METRICS.items():
        value = summary.get(span, {}).get(field, 0)
        out[metric] = {"value": value, "unit": unit}
    run = summary.get("sim.run", {})
    slots = run.get("lane_slots", 0)
    # live lane-rounds over the K lane slots of every engine round
    out["sim.lane_occupancy"] = {
        "value": run.get("lane_rounds", 0) / slots if slots else 0.0,
        "unit": "ratio",
    }
    for metric, unit in EXTRA_UNITS.items():
        out[metric] = {"value": extra.get(metric, 0.0), "unit": unit}
    return out
