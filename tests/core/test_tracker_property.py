"""Property-based tests of the DISTILL phase machine.

Hypothesis drives random vote streams (arbitrary players, objects,
timings — i.e. arbitrary Byzantine posting patterns) through the tracker
and asserts its structural invariants: phase clocks never run backwards,
candidate sets are nested within Step 2, restarts reset cleanly, and the
machine is a pure function of the board prefix.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.billboard.board import Billboard
from repro.billboard.post import PostKind
from repro.billboard.views import BillboardView
from repro.core.parameters import DistillParameters
from repro.core.tracker import DistillPhase, DistillPhaseTracker
from repro.strategies.base import StrategyContext

N, M = 16, 16

vote_streams = st.lists(
    st.tuples(
        st.integers(0, 40),      # round offset
        st.integers(0, N - 1),   # player
        st.integers(0, M - 1),   # object
    ),
    max_size=50,
)


def build_board(stream):
    board = Billboard(N, M)
    for round_no, player, obj in sorted(stream, key=lambda t: t[0]):
        board.append(round_no, player, obj, 1.0, PostKind.VOTE)
    return board


def ctx():
    return StrategyContext(
        n=N, m=M, alpha=0.5, beta=0.25, good_threshold=0.5
    )


def drive(board, upto=60):
    """Advance a fresh tracker round by round; return state snapshots."""
    tracker = DistillPhaseTracker(ctx(), DistillParameters())
    states = []
    for round_no in range(upto):
        tracker.advance(
            round_no, BillboardView(board, before_round=round_no)
        )
        states.append(
            (
                round_no,
                tracker.phase,
                tracker.phase_start,
                tuple(tracker.candidates.tolist()),
                tuple(tracker.pool.tolist()),
            )
        )
    return tracker, states


@given(vote_streams)
@settings(max_examples=60, deadline=None)
def test_phase_start_never_decreases(stream):
    _tracker, states = drive(build_board(stream))
    starts = [s[2] for s in states]
    assert all(a <= b for a, b in zip(starts, starts[1:]))


@given(vote_streams)
@settings(max_examples=60, deadline=None)
def test_candidates_nested_within_iterations(stream):
    _tracker, states = drive(build_board(stream))
    previous = None
    for _round_no, phase, start, candidates, _pool in states:
        if phase is DistillPhase.ITERATION:
            if previous is not None and previous[0] == start:
                pass  # same window, same candidates
            elif previous is not None:
                # new iteration window: candidates must be a subset of
                # the previous window's candidates
                assert set(candidates) <= set(previous[1]) or not previous[1]
            previous = (start, candidates)
        else:
            previous = None


@given(vote_streams)
@settings(max_examples=60, deadline=None)
def test_pool_is_always_within_universe(stream):
    _tracker, states = drive(build_board(stream))
    for _round_no, _phase, _start, _candidates, pool in states:
        assert all(0 <= obj < M for obj in pool)


@given(vote_streams)
@settings(max_examples=60, deadline=None)
def test_step11_pool_is_full_universe(stream):
    _tracker, states = drive(build_board(stream))
    for _round_no, phase, _start, _candidates, pool in states:
        if phase is DistillPhase.STEP11:
            assert pool == tuple(range(M))


@given(vote_streams)
@settings(max_examples=60, deadline=None)
def test_tracker_is_deterministic_in_the_board(stream):
    board = build_board(stream)
    _t1, s1 = drive(board)
    _t2, s2 = drive(board)
    assert s1 == s2


@given(vote_streams)
@settings(max_examples=60, deadline=None)
def test_incremental_equals_batch_advance(stream):
    """Advancing round-by-round and jumping straight to the last round
    land in the same state (advance is idempotent over prefixes)."""
    board = build_board(stream)
    stepped, states = drive(board, upto=60)
    jumped = DistillPhaseTracker(ctx(), DistillParameters())
    jumped.advance(59, BillboardView(board, before_round=59))
    assert jumped.phase is stepped.phase
    assert jumped.phase_start == stepped.phase_start
    assert np.array_equal(jumped.candidates, stepped.candidates)


@given(vote_streams)
@settings(max_examples=60, deadline=None)
def test_diagnostics_account_all_iterations(stream):
    tracker, states = drive(build_board(stream))
    diag = tracker.diagnostics()
    assert diag["attempt_count"] >= 1
    assert diag["total_iterations"] == sum(
        a["iterations"] for a in diag["attempts"]
    )
    assert diag["max_iterations_per_attempt"] <= max(
        (a["iterations"] for a in diag["attempts"]), default=0
    ) + 0


# Step 1.1 universes as a caller may pass them: unsorted, duplicated,
# with ids outside [0, M), empty, or the full arange(M).
universes = st.one_of(
    st.lists(st.integers(-4, M + 4), max_size=2 * M).map(
        lambda ids: np.array(ids, dtype=np.int64)
    ),
    st.just(np.zeros(0, dtype=np.int64)),
    st.just(np.arange(M, dtype=np.int64)),
)


class CheckedTracker(DistillPhaseTracker):
    """Records each Step 1.2 ``pool`` and Step 1.4 ``C0`` next to an
    ``np.intersect1d`` reference computed from the same view."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked = []

    def _enter_step13(self, end, view):
        want = np.intersect1d(view.objects_with_votes(), self.universe)
        super()._enter_step13(end, view)
        self.checked.append((self.pool, want))

    def _enter_iterations(self, end, view):
        counts = view.counts_in_window(self.phase_start, end)
        want = np.intersect1d(
            np.flatnonzero(counts >= self.params.c0_vote_threshold),
            self.universe,
        )
        restarts = len(self._attempts)
        super()._enter_iterations(end, view)
        if len(self._attempts) == restarts:
            self.checked.append((self.candidates, want))
        else:  # an empty C0 restarted ATTEMPT and reset the candidates
            assert self._attempts[-1]["c_sizes"][-1] == 0
            assert want.size == 0


@given(vote_streams, universes)
@settings(max_examples=120, deadline=None)
def test_universe_filter_equals_intersect1d(stream, universe):
    board = build_board(stream)
    tracker = CheckedTracker(ctx(), DistillParameters(), universe=universe)
    for round_no in range(60):
        tracker.advance(round_no, BillboardView(board, before_round=round_no))
    assert tracker.checked  # Step 1.2 falls at round 4
    for got, want in tracker.checked:
        assert got.dtype == want.dtype == np.int64
        assert got.tolist() == want.tolist()
