"""Self-time arithmetic and the recorder's bookkeeping."""

import threading

import numpy as np
import pytest

from spans import Installed, SpanRecorder, method_targets, self_times


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    parents = np.array([-1, 0, 0, 2])
    starts = np.array([0.0, 1.0, 5.0, 6.0])
    ends = np.array([10.0, 4.0, 9.0, 7.0])
    own = self_times(parents, starts, ends)
    assert own.tolist() == [3.0, 3.0, 3.0, 1.0]
    assert own.sum() == 10.0  # the root's duration, counted once


def test_self_time_of_repeated_children_accumulates():
    parents = np.array([-1, 0, 0, 0, -1])
    starts = np.array([0.0, 0.5, 1.5, 2.5, 20.0])
    ends = np.array([4.0, 1.0, 2.0, 3.0, 21.0])
    own = self_times(parents, starts, ends)
    assert own.tolist() == [2.5, 0.5, 0.5, 0.5, 1.0]


def _nested(recorder):
    def leaf(x):
        return [x] * x

    traced_leaf = recorder.wrap("leaf", leaf, lambda a, k, r: {"rows": len(r)})

    def middle(x):
        return traced_leaf(x) + traced_leaf(x + 1)

    traced_middle = recorder.wrap("middle", middle)

    def root():
        return [traced_middle(i) for i in range(1, 4)]

    return recorder.wrap("root", root)


def test_recorded_self_times_sum_to_root_wall():
    recorder = SpanRecorder()
    root = _nested(recorder)
    root()
    root()
    summary = recorder.summary()
    assert summary["root"]["calls"] == 2
    assert summary["middle"]["calls"] == 6
    assert summary["leaf"]["calls"] == 12
    assert summary["leaf"]["rows"] == 2 * sum(i + i + 1 for i in range(1, 4))
    total_self = sum(row["self_s"] for row in summary.values())
    assert total_self == pytest.approx(summary["root"]["wall_s"], rel=1e-9)
    assert recorder.root_seconds() == pytest.approx(summary["root"]["wall_s"])
    # no span's self time exceeds its own duration
    for row in summary.values():
        assert 0.0 <= row["self_s"] <= row["wall_s"] + 1e-12


def test_same_name_is_recorded_at_outermost_level_only():
    recorder = SpanRecorder()
    calls = []

    def query(depth):
        calls.append(depth)
        return traced(depth - 1) if depth else 0

    traced = recorder.wrap("billboard.query", query)
    traced(3)
    assert calls == [3, 2, 1, 0]
    assert recorder.summary()["billboard.query"]["calls"] == 1


def test_threads_keep_separate_parent_chains():
    recorder = SpanRecorder()
    root = _nested(recorder)
    workers = [threading.Thread(target=root) for _ in range(3)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=10)
        assert not worker.is_alive()
    summary = recorder.summary()
    assert summary["root"]["calls"] == 3
    assert len(recorder.logs()) == 3
    total_self = sum(row["self_s"] for row in summary.values())
    assert total_self == pytest.approx(recorder.root_seconds(), rel=1e-9)


def test_installed_wraps_subclass_methods_and_restores_them():
    class Base:
        def act(self):
            return 1

    class Child(Base):
        def act(self):
            return super().act() + 1

    class Grandchild(Child):
        pass

    originals = (Base.__dict__["act"], Child.__dict__["act"])
    recorder = SpanRecorder()
    with Installed(recorder, method_targets(Base, "act", "adversaries.act")):
        assert Grandchild().act() == 2
    # the wrapped base call ran inside the child's span of the same name
    assert recorder.summary()["adversaries.act"]["calls"] == 1
    assert (Base.__dict__["act"], Child.__dict__["act"]) == originals
    assert "act" not in Grandchild.__dict__


def test_write_round_trips_every_span(tmp_path):
    recorder = SpanRecorder()
    _nested(recorder)()
    path = tmp_path / "spans.npz"
    assert recorder.write(str(path)) == 1 + 3 + 6
    data = np.load(path)
    names = [str(n) for n in data["names"]]
    assert sorted({names[i] for i in data["name_id"]}) == ["leaf", "middle", "root"]
    own = self_times(data["parent"], data["start"], data["end"])
    roots = data["parent"] < 0
    assert own.sum() == pytest.approx((data["end"] - data["start"])[roots].sum())
