"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer's public function: its name, start,
end and parent span (the innermost span open on the same thread when
it began). Spans live in compact per-thread arrays while the run goes
and are written out once, when it ends.

A layer's self time is its span's duration minus the durations of its
direct children. Every instant inside a root span therefore belongs to
exactly one span's self time, so the self times of a tree sum to its
root's duration. The benchmark checks that identity on every sim run.

A name is recorded at its outermost level only: a call to a wrapped
function while a span of the same name is already open on the thread
(``BillboardView.counts_in_window`` reached from another view query, a
wrapped subclass calling its wrapped base) runs through unrecorded.
"""

from __future__ import annotations

import threading
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: counts a wrapped call contributes: ``(args, kwargs, result) -> {name: n}``
CountFn = Callable[[Tuple[Any, ...], Dict[str, Any], Any], Dict[str, int]]


class _ThreadLog:
    """One thread's spans, in start order, as parallel arrays."""

    def __init__(self, thread_id: int, n_names: int) -> None:
        self.thread_id = thread_id
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.stack: List[int] = []
        #: per name id: how many spans of that name are open (0 or 1)
        self.open = [0] * n_names
        #: per name id: summed counts reported at that boundary
        self.counts: Dict[int, Dict[str, int]] = {}


class SpanRecorder:
    """Records spans around wrapped callables, one log per thread."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._logs: List[_ThreadLog] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            if self._logs:
                raise RuntimeError("register every span name before recording")
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident(), len(self.names))
            with self._lock:
                self._logs.append(log)
            self._local.log = log
        return log

    def wrap(
        self, name: str, fn: Callable[..., Any], count: Optional[CountFn] = None
    ) -> Callable[..., Any]:
        """``fn`` with every outermost call recorded as a span ``name``."""
        name_id = self._name_id(name)
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            log = self._log()
            if log.open[name_id]:
                return fn(*args, **kwargs)
            index = len(log.starts)
            log.name_ids.append(name_id)
            log.parents.append(log.stack[-1] if log.stack else -1)
            log.ends.append(0.0)
            log.open[name_id] = 1
            log.stack.append(index)
            log.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.ends[index] = clock()
                log.stack.pop()
                log.open[name_id] = 0
            if count is not None:
                totals = log.counts.setdefault(name_id, {})
                for key, value in count(args, kwargs, result).items():
                    totals[key] = totals.get(key, 0) + int(value)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------
    def logs(self) -> List[_ThreadLog]:
        with self._lock:
            return list(self._logs)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``self_s``, ``wall_s`` and counts."""
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0, "wall_s": 0.0} for name in self.names
        }
        for log in self.logs():
            names = np.frombuffer(log.name_ids, dtype=np.int32)
            starts = np.frombuffer(log.starts, dtype=np.float64)
            ends = np.frombuffer(log.ends, dtype=np.float64)
            parents = np.frombuffer(log.parents, dtype=np.int64)
            own = self_times(parents, starts, ends)
            duration = ends - starts
            for name_id, name in enumerate(self.names):
                mask = names == name_id
                row = out[name]
                row["calls"] += int(mask.sum())
                row["self_s"] += float(own[mask].sum())
                row["wall_s"] += float(duration[mask].sum())
                for key, value in log.counts.get(name_id, {}).items():
                    row[key] = row.get(key, 0) + value
        return out

    def root_seconds(self) -> float:
        """Summed duration of every root span (spans with no parent)."""
        total = 0.0
        for log in self.logs():
            parents = np.frombuffer(log.parents, dtype=np.int64)
            starts = np.frombuffer(log.starts, dtype=np.float64)
            ends = np.frombuffer(log.ends, dtype=np.float64)
            roots = parents < 0
            total += float((ends[roots] - starts[roots]).sum())
        return total

    def write(self, path: str) -> int:
        """Write every span to ``path`` (``.npz``); returns the span count."""
        logs = self.logs()
        arrays = {
            "names": np.array(self.names),
            "name_id": _concat([log.name_ids for log in logs], np.int32),
            "start": _concat([log.starts for log in logs], np.float64),
            "end": _concat([log.ends for log in logs], np.float64),
            "parent": _concat([log.parents for log in logs], np.int64),
            "thread": np.concatenate(
                [np.full(len(log.starts), log.thread_id, np.uint64) for log in logs]
            )
            if logs
            else np.zeros(0, np.uint64),
        }
        np.savez(path, **arrays)
        return int(arrays["start"].size)


def _concat(parts: Sequence[array], dtype: Any) -> np.ndarray:
    if not parts:
        return np.zeros(0, dtype)
    return np.concatenate([np.frombuffer(p, dtype=dtype) for p in parts])


def self_times(
    parents: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    ``parents[i]`` is the index of span ``i``'s parent in the same
    arrays, or ``-1`` for a root.
    """
    parents = np.asarray(parents, dtype=np.int64)
    duration = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    own = duration.copy()
    nested = parents >= 0
    np.subtract.at(own, parents[nested], duration[nested])
    return own


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------
#: one wrap target: (owner class or module, attribute, span name, counts)
Target = Tuple[Any, str, str, Optional[CountFn]]


class Installed:
    """Context manager that swaps wrapped callables in and back out."""

    def __init__(self, recorder: SpanRecorder, targets: Sequence[Target]) -> None:
        self._recorder = recorder
        self._targets = list(targets)
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> SpanRecorder:
        wrapped: Dict[int, Callable[..., Any]] = {}
        for owner, attr, name, count in self._targets:
            original = vars(owner)[attr]
            # one function object reachable from two modules (a
            # ``from x import f``) gets one wrapper, so it records once
            if id(original) not in wrapped:
                wrapped[id(original)] = self._recorder.wrap(name, original, count)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped[id(original)])
        return self._recorder

    def __exit__(self, *exc_info: Any) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def subclasses(root: type) -> Iterator[type]:
    """``root`` and every class below it, each once."""
    seen = set()
    todo = [root]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        yield cls
        todo.extend(cls.__subclasses__())


def method_targets(
    root: type, attr: str, name: str, count: Optional[CountFn] = None
) -> List[Target]:
    """A target for every class under ``root`` that defines ``attr`` itself."""
    return [
        (cls, attr, name, count)
        for cls in subclasses(root)
        if attr in vars(cls)
    ]
