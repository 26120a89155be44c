"""Per-player working arrays that scale to million-player worlds.

The engines keep a handful of ``(n,)`` (or ``(K, n)``) working arrays per
run — satisfaction rounds, probe counters, churn timers. At the paper's
original n ≤ 4096 these are noise; at n = 10^6 each int64 array is 8 MB
and a batched run multiplies that by K lanes. Two levers keep them cheap:

* **Lazy zero pages.** :func:`player_array` allocates small arrays as
  ordinary ndarrays, but above :data:`MEMMAP_THRESHOLD` elements it backs
  the array with an anonymous (unlinked) temp-file ``np.memmap``. Pages
  materialize only when touched, so an idle player's slot in a
  fill-initialized array costs address space, not resident memory — and
  the kernel may reclaim cold pages under pressure instead of swapping.
* **Plain finalization.** :func:`finalize_player_array` converts any
  memmap-backed working array into an ordinary in-memory ndarray before
  it escapes the engine (e.g. into ``RunMetrics``), so results never
  reference engine-lifetime temp files and pickle across process
  boundaries exactly like before.

Both levers are representation-only: values, dtypes, and shapes are
identical either way, so the backing choice is bit-inert by
construction.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional, Tuple, Union

import numpy as np

#: arrays at or above this many elements are memmap-backed (2^19 — a
#: 4 MB int64 array; everything the small-n test suite touches stays
#: ordinary ndarray, while 10^5-player batched state and 10^6-player
#: scalar state go through the mapping)
MEMMAP_THRESHOLD = 1 << 19

_Shape = Union[int, Tuple[int, ...]]


def _n_elements(shape: _Shape) -> int:
    if isinstance(shape, int):
        return shape
    total = 1
    for dim in shape:
        total *= int(dim)
    return total


def player_array(
    shape: _Shape,
    fill_value: Union[int, float, bool],
    dtype: "np.typing.DTypeLike",
    threshold: Optional[int] = None,
) -> np.ndarray:
    """Allocate a per-player working array, memmap-backed when large.

    Below ``threshold`` elements (default :data:`MEMMAP_THRESHOLD`) this
    is exactly ``np.full(shape, fill_value, dtype)``. At or above it,
    the array is an ``np.memmap`` over an unlinked temporary file:
    identical values and dtype, but pages are materialized on first
    touch and the backing file needs no cleanup — the OS reclaims it
    when the array is garbage collected.

    The fill is written through a chunked loop (not one giant
    assignment) only when the fill value is non-zero; zero fills rely on
    the kernel's zero pages and touch nothing.
    """
    limit = MEMMAP_THRESHOLD if threshold is None else int(threshold)
    n_elements = _n_elements(shape)
    if n_elements < limit:
        return np.full(shape, fill_value, dtype=dtype)
    handle, path = tempfile.mkstemp(prefix="repro-playerstate-")
    try:
        array = np.memmap(path, dtype=dtype, mode="w+", shape=shape)
    finally:
        os.close(handle)
        os.unlink(path)  # POSIX: the mapping keeps the inode alive
    if fill_value:
        flat = array.reshape(-1)
        chunk = 1 << 22
        for start in range(0, n_elements, chunk):
            flat[start : start + chunk] = fill_value
    return array


def finalize_player_array(array: np.ndarray) -> np.ndarray:
    """Return an ordinary in-memory ndarray with the same contents.

    Ordinary ndarrays pass through untouched; memmap-backed arrays are
    copied out so nothing downstream (metrics, pickles, checkpoints)
    holds a reference to an engine-lifetime temp-file mapping.
    """
    if isinstance(array, np.memmap):
        return np.array(array)
    return array
