"""Unit parity between the one board's writers, and ledger contracts.

:class:`~repro.billboard.board.Billboard` is the one post log. Its
entry writers (``append``/``append_many``, the scalar engines and the
service) and its block writers (``post_block``/``post_entries``, the
batched engine's lanes) validate differently — entry by entry versus
whole columns at once — but must leave identical boards and raise
identical errors. This module drives both through the same randomized
workloads in every vote mode, plus the pinned satellite contracts:
empty batches are explicit no-ops and column views are read-only.
"""

import numpy as np
import pytest

from repro.billboard.board import Billboard
from repro.billboard.post import Post, PostKind
from repro.billboard.votes import VoteLedger, VoteMode
from repro.errors import ConfigurationError, InvalidPostError, TamperError
from repro.sim.actions import ActionBlock

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
        """The board's constructor errors are the ledger's own."""
        for args, kwargs, ledger_kwargs in [
            ((0, 4), {}, {}),
            (
                (4, 4),
                {"vote_mode": VoteMode.MULTI, "max_votes_per_player": 0},
                {"mode": VoteMode.MULTI, "max_votes_per_player": 0},
            ),
        ]:
            with pytest.raises(ConfigurationError) as board_err:
                Billboard(*args, **kwargs)
            with pytest.raises(ConfigurationError) as ledger_err:
                VoteLedger(*args, **ledger_kwargs)
            assert str(board_err.value) == str(ledger_err.value)


class TestBoardParity:
    """Entry writers ≡ block writers: posts, reads, digests, errors."""

    def _boards(self, mode_name="single"):
        mode, cap = MODES[mode_name]
        entries = Billboard(16, 8, vote_mode=mode, max_votes_per_player=cap)
        blocks = Billboard(16, 8, vote_mode=mode, max_votes_per_player=cap)
        return entries, blocks

    @pytest.mark.parametrize("mode_name", sorted(MODES))
    def test_append_paths_agree(self, mode_name):
        entries_board, blocks_board = self._boards(mode_name)
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
            posts = entries_board.append_many(round_no, entries)
            blocks_board.post_entries(round_no, ActionBlock.from_entries(entries))
            assert posts == blocks_board.posts()[len(blocks_board) - len(posts):]
            round_no += int(rng.integers(0, 2))
        assert len(entries_board) == len(blocks_board)
        assert entries_board.last_round == blocks_board.last_round
        for i in range(len(entries_board)):
            assert entries_board[i] == blocks_board[i]
        for kind in (None, PostKind.VOTE, PostKind.REPORT):
            assert entries_board.posts(kind=kind) == blocks_board.posts(kind=kind)
        assert entries_board.head_digest == blocks_board.head_digest
        assert np.array_equal(
            entries_board.current_vote_array(), blocks_board.current_vote_array()
        )
        assert np.array_equal(
            entries_board.objects_with_votes(), blocks_board.objects_with_votes()
        )

    def test_empty_append_many_is_a_no_op(self):
        board = Billboard(16, 8)
        empty = np.zeros(0, dtype=np.int64)
        assert board.append_many(5, []) == []
        board.post_block(6, empty, empty, np.zeros(0), PostKind.VOTE)
        board.post_entries(7, ActionBlock.from_entries([]))
        assert len(board) == 0
        assert board.last_round == -1
        board.verify_integrity()
        # a later batch at an *earlier* round still succeeds: the empty
        # writes must not have advanced the round clock
        board.append_many(2, [(0, 0, 1.0, PostKind.VOTE)])
        assert board.last_round == 2

    def test_validation_errors_match_dense(self):
        """``post_block`` raises ``append_many``'s exact error for each
        single bad field, and neither writer appends anything."""
        for round_no, player, obj, error in [
            (4, 16, 0, InvalidPostError),  # unknown player
            (4, 0, 8, InvalidPostError),  # unknown object
            (-1, 0, 0, InvalidPostError),  # negative round
            (2, 0, 0, TamperError),  # round regression
        ]:
            entries_board, blocks_board = self._boards()
            for board in (entries_board, blocks_board):
                board.append(3, 1, 1, 1.0, PostKind.VOTE)
            with pytest.raises(error) as entries_err:
                entries_board.append_many(
                    round_no, [(player, obj, 1.0, PostKind.VOTE)]
                )
            with pytest.raises(error) as blocks_err:
                blocks_board.post_block(
                    round_no, np.array([player]), np.array([obj]),
                    np.array([1.0]), PostKind.VOTE,
                )
            assert str(entries_err.value) == str(blocks_err.value)
            for board in (entries_board, blocks_board):
                assert len(board) == 1
                assert board.ledger.effective_vote_count == 1
                board.verify_integrity()


class TestReadOnlyViews:
    """Satellite pin: ledger column views cannot be mutated in place."""

    def test_dense_column_view_is_read_only(self):
        ledger = VoteLedger(4, 4)
        ledger.record(_vote_post(0, 1, 2))
        view = ledger._players.view()
        with pytest.raises(ValueError):
            view[0] = 3

    def test_lane_column_view_is_read_only(self):
        board = Billboard(4, 4)
        board.post_block(
            0,
            np.array([1]),
            np.array([2]),
            np.array([1.0]),
            PostKind.VOTE,
        )
        view = board._players.view()
        with pytest.raises(ValueError):
            view[0] = 3

    def test_view_does_not_freeze_the_buffer(self):
        # the writeable=False flag is on the returned window only; the
        # ledger itself must keep accepting votes afterwards
        ledger = VoteLedger(4, 4)
        ledger.record(_vote_post(0, 1, 2))
        ledger._players.view()
        assert ledger.record(_vote_post(1, 2, 3))
