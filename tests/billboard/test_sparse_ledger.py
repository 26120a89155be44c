"""Unit parity for the sparse columnar substrate.

:class:`~repro.billboard.sparse.SparseBoard` promises *bit-identical*
behaviour to the chained :class:`~repro.billboard.board.Billboard` for
every vote mode and every query — the substrate knob must never change
a result. Both boards carry the same
:class:`~repro.billboard.votes.VoteLedger`, so what this module drives
through the same randomized workloads is the two post logs, plus the
pinned satellite contracts: empty batches are explicit no-ops and
column views are read-only.
"""

import numpy as np
import pytest

from repro.billboard.board import Billboard
from repro.billboard.lanes import LaneBillboard
from repro.billboard.post import Post, PostKind
from repro.billboard.sparse import (
    SPARSE_AUTO_THRESHOLD,
    SparseBoard,
    choose_substrate,
    normalize_substrate,
    substrate_fallback_reason,
)
from repro.billboard.votes import VoteLedger, VoteMode
from repro.errors import ConfigurationError, InvalidPostError
from repro.sim.engine import EngineConfig

MODES = {
    "single": (VoteMode.SINGLE, 1),
    "multi": (VoteMode.MULTI, 3),
    "mutable": (VoteMode.MUTABLE, 2),
}


def _vote_post(round_no, player, obj):
    return Post(
        seq=0,
        round_no=round_no,
        player=player,
        object_id=obj,
        reported_value=1.0,
        kind=PostKind.VOTE,
    )


class TestLedgerParity:
    """The ledger contracts both boards inherit from the one ledger."""

    @pytest.mark.parametrize("mode_name", sorted(MODES))
    def test_empty_record_block_is_a_no_op(self, mode_name):
        mode, cap = MODES[mode_name]
        ledger = VoteLedger(24, 12, mode=mode, max_votes_per_player=cap)
        ledger.record(_vote_post(0, 1, 2))
        before = ledger.current_vote_array(1)
        accepted = ledger.record_block(
            3, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert accepted.shape == (0,)
        assert accepted.dtype == np.bool_
        assert ledger.effective_vote_count == 1
        assert np.array_equal(ledger.current_vote_array(1), before)

    def test_constructor_errors_match_dense(self):
        for args, kwargs in [
            ((0, 4), {}),
            ((4, 4), {"vote_mode": VoteMode.MULTI, "max_votes_per_player": 0}),
        ]:
            with pytest.raises(ConfigurationError) as dense_err:
                Billboard(*args, **kwargs)
            with pytest.raises(ConfigurationError) as sparse_err:
                SparseBoard(*args, **kwargs)
            assert str(dense_err.value) == str(sparse_err.value)


class TestBoardParity:
    """SparseBoard ≡ Billboard: posts, reads, errors, hash-free batches."""

    def _boards(self, mode_name="single"):
        mode, cap = MODES[mode_name]
        dense = Billboard(16, 8, vote_mode=mode, max_votes_per_player=cap)
        sparse = SparseBoard(16, 8, vote_mode=mode, max_votes_per_player=cap)
        return dense, sparse

    @pytest.mark.parametrize("mode_name", sorted(MODES))
    def test_append_paths_agree(self, mode_name):
        dense, sparse = self._boards(mode_name)
        rng = np.random.default_rng(7)
        round_no = 0
        for _step in range(25):
            entries = [
                (
                    int(rng.integers(16)),
                    int(rng.integers(8)),
                    float(rng.random()),
                    PostKind.VOTE if rng.random() < 0.7 else PostKind.REPORT,
                )
                for _ in range(int(rng.integers(0, 4)))
            ]
            a = dense.append_many(round_no, entries)
            b = sparse.append_many(round_no, entries)
            assert [p.__dict__ for p in a] == [p.__dict__ for p in b]
            round_no += int(rng.integers(0, 2))
        assert len(dense) == len(sparse)
        assert dense.last_round == sparse.last_round
        for i in range(len(dense)):
            assert dense[i] == sparse[i]
        for kind in (None, PostKind.VOTE, PostKind.REPORT):
            a = dense.posts(kind=kind)
            b = sparse.posts(kind=kind)
            assert a == b
        assert np.array_equal(
            dense.current_vote_array(), sparse.current_vote_array()
        )
        assert np.array_equal(
            dense.objects_with_votes(), sparse.objects_with_votes()
        )

    def test_empty_append_many_is_a_no_op(self):
        dense, sparse = self._boards()
        for board in (dense, sparse):
            assert board.append_many(5, []) == []
            assert len(board) == 0
            assert board.last_round == -1
        # a later batch at an *earlier* round still succeeds: the empty
        # batch must not have advanced the round clock
        dense.append_many(2, [(0, 0, 1.0, PostKind.VOTE)])
        sparse.append_many(2, [(0, 0, 1.0, PostKind.VOTE)])
        assert dense.last_round == sparse.last_round == 2

    def test_validation_errors_match_dense(self):
        dense, sparse = self._boards()
        for round_no, player, obj in [(0, 16, 0), (0, 0, 8), (-1, 0, 0)]:
            with pytest.raises(InvalidPostError) as dense_err:
                dense.append_many(
                    round_no, [(player, obj, 1.0, PostKind.VOTE)]
                )
            with pytest.raises(InvalidPostError) as sparse_err:
                sparse.append_many(
                    round_no, [(player, obj, 1.0, PostKind.VOTE)]
                )
            assert str(dense_err.value) == str(sparse_err.value)


class TestReadOnlyViews:
    """Satellite pin: ledger column views cannot be mutated in place."""

    def test_dense_column_view_is_read_only(self):
        ledger = VoteLedger(4, 4)
        ledger.record(_vote_post(0, 1, 2))
        view = ledger._players.view()
        with pytest.raises(ValueError):
            view[0] = 3

    def test_lane_column_view_is_read_only(self):
        board = LaneBillboard(2, 4, 4)
        board.lane(0).post_block(
            0,
            np.array([1]),
            np.array([2]),
            np.array([1.0]),
            PostKind.VOTE,
        )
        view = board.lane(0)._players.view()
        with pytest.raises(ValueError):
            view[0] = 3

    def test_view_does_not_freeze_the_buffer(self):
        # the writeable=False flag is on the returned window only; the
        # ledger itself must keep accepting votes afterwards
        ledger = VoteLedger(4, 4)
        ledger.record(_vote_post(0, 1, 2))
        ledger._players.view()
        assert ledger.record(_vote_post(1, 2, 3))


class TestSubstrateSelection:
    """The knob helpers behind ``substrate=``."""

    def test_normalize_accepts_the_three_choices(self):
        assert normalize_substrate(None) == "auto"
        assert normalize_substrate("auto") == "auto"
        assert normalize_substrate("dense") == "dense"
        assert normalize_substrate("sparse") == "sparse"
        with pytest.raises(ConfigurationError):
            normalize_substrate("bogus")

    def test_auto_picks_sparse_at_the_threshold(self):
        assert choose_substrate("auto", SPARSE_AUTO_THRESHOLD - 1) == "dense"
        assert choose_substrate("auto", SPARSE_AUTO_THRESHOLD) == "sparse"
        assert choose_substrate(None, SPARSE_AUTO_THRESHOLD) == "sparse"
        assert choose_substrate("dense", 10**6) == "dense"
        assert choose_substrate("sparse", 2) == "sparse"

    def test_traces_force_the_dense_fallback(self):
        assert substrate_fallback_reason(EngineConfig()) is None
        reason = substrate_fallback_reason(EngineConfig(trace=True))
        assert reason is not None and "trace" in reason
