"""Tests for the append-only billboard."""

from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.billboard.board import Billboard
from repro.billboard.post import PostKind
from repro.errors import InvalidPostError, TamperError
from repro.sim.actions import ActionBlock

#: the head digest of a fixed three-post history, recorded from the eager
#: per-append chain before lazy materialization landed — must never change
GOLDEN_DIGEST = (
    "02ef530994b56ae56f4172b2401bb0c2e9a40e9d9c5811e78388b4d69039150c"
)


def _golden_entries():
    """(round_no, player, object_id, value, kind) rows behind GOLDEN_DIGEST."""
    return [
        (0, 1, 2, 1.0, PostKind.VOTE),
        (1, 2, 3, 0.25, PostKind.REPORT),
        (3, 0, 1, -2.5, PostKind.VOTE),
    ]


def _two_post_boards():
    """Two identical two-post boards: one written entry by entry (the
    scalar engines' path), one through the block writer (a batched
    engine lane)."""
    scalar = Billboard(8, 16)
    lane = Billboard(8, 16)
    for round_no, player, obj in [(0, 1, 2), (1, 2, 3)]:
        scalar.append(round_no, player, obj, 1.0, PostKind.VOTE)
        lane.post_block(
            round_no, np.array([player]), np.array([obj]), np.array([1.0]),
            PostKind.VOTE,
        )
    return [scalar, lane]


def _rewrite_rows(board, edit):
    """Apply ``edit`` to every column's rows behind the API's back."""
    for column in board._columns():
        rows = column._buf[: len(column)]
        rows[:] = edit(rows.copy())


def _drop_first_row(board):
    _rewrite_rows(board, lambda rows: np.roll(rows, -1))
    _truncate_last_row(board)


def _truncate_last_row(board):
    for column in board._columns():
        column._size -= 1


class TestAppend:
    def test_append_assigns_sequential_seq(self, board):
        p0 = board.append(0, 1, 2, 0.0, PostKind.REPORT)
        p1 = board.append(0, 2, 3, 1.0, PostKind.VOTE)
        assert (p0.seq, p1.seq) == (0, 1)

    def test_append_stamps_round(self, board):
        post = board.append(5, 0, 0, 0.0, PostKind.REPORT)
        assert post.round_no == 5
        assert board.last_round == 5

    def test_rejects_unknown_player(self, board):
        with pytest.raises(InvalidPostError):
            board.append(0, 8, 0, 0.0, PostKind.REPORT)

    def test_rejects_negative_player(self, board):
        with pytest.raises(InvalidPostError):
            board.append(0, -1, 0, 0.0, PostKind.REPORT)

    def test_rejects_unknown_object(self, board):
        with pytest.raises(InvalidPostError):
            board.append(0, 0, 16, 0.0, PostKind.REPORT)

    def test_rejects_negative_round(self, board):
        with pytest.raises(InvalidPostError):
            board.append(-1, 0, 0, 0.0, PostKind.REPORT)

    def test_append_only_rounds_must_not_decrease(self, board):
        board.append(4, 0, 0, 0.0, PostKind.REPORT)
        with pytest.raises(TamperError):
            board.append(3, 0, 0, 0.0, PostKind.REPORT)

    def test_same_round_multiple_posts_allowed(self, board):
        board.append(2, 0, 0, 0.0, PostKind.REPORT)
        board.append(2, 1, 1, 0.0, PostKind.REPORT)
        assert len(board) == 2


class TestReading:
    def test_len_counts_all_posts(self, board):
        for r in range(3):
            board.append(r, r, r, 0.0, PostKind.REPORT)
        assert len(board) == 3

    def test_iteration_preserves_order(self, board):
        board.append(0, 0, 1, 0.0, PostKind.REPORT)
        board.append(1, 1, 2, 0.0, PostKind.VOTE)
        seqs = [p.seq for p in board]
        assert seqs == [0, 1]

    def test_getitem_by_seq(self, board):
        board.append(0, 3, 4, 0.5, PostKind.VOTE)
        assert board[0].player == 3

    def test_posts_filter_by_kind(self, board):
        board.append(0, 0, 0, 0.0, PostKind.REPORT)
        board.append(0, 1, 1, 1.0, PostKind.VOTE)
        votes = board.posts(kind=PostKind.VOTE)
        assert len(votes) == 1
        assert votes[0].player == 1

    def test_posts_filter_by_player(self, board):
        board.append(0, 2, 0, 0.0, PostKind.REPORT)
        board.append(0, 3, 1, 0.0, PostKind.REPORT)
        assert len(board.posts(player=2)) == 1

    def test_posts_before_round_excludes_current(self, board):
        board.append(0, 0, 0, 1.0, PostKind.VOTE)
        board.append(1, 1, 1, 1.0, PostKind.VOTE)
        visible = board.posts(before_round=1)
        assert [p.player for p in visible] == [0]

    def test_empty_board_last_round(self, board):
        assert board.last_round == -1


class TestLedgerIntegration:
    def test_vote_posts_feed_ledger(self, board):
        board.append(0, 1, 5, 1.0, PostKind.VOTE)
        votes = board.current_vote_array()
        assert votes[1] == 5

    def test_reports_do_not_feed_ledger(self, board):
        board.append(0, 1, 5, 0.0, PostKind.REPORT)
        assert board.current_vote_array()[1] == -1

    def test_counts_in_window_passthrough(self, board):
        board.append(0, 1, 5, 1.0, PostKind.VOTE)
        board.append(3, 2, 5, 1.0, PostKind.VOTE)
        counts = board.counts_in_window(0, 2)
        assert counts[5] == 1

    def test_objects_with_votes_passthrough(self, board):
        board.append(0, 0, 7, 1.0, PostKind.VOTE)
        board.append(1, 1, 3, 1.0, PostKind.VOTE)
        assert np.array_equal(board.objects_with_votes(), [3, 7])


class TestIntegrityChain:
    def test_fresh_board_verifies(self, board):
        board.verify_integrity()

    def test_head_digest_changes_per_append(self, board):
        d0 = board.head_digest
        board.append(0, 0, 0, 0.0, PostKind.REPORT)
        d1 = board.head_digest
        board.append(0, 1, 1, 1.0, PostKind.VOTE)
        assert len({d0, d1, board.head_digest}) == 3

    def test_identical_histories_share_digests(self):
        a = Billboard(4, 4)
        b = Billboard(4, 4)
        for board_ in (a, b):
            board_.append(0, 1, 2, 1.0, PostKind.VOTE)
            board_.append(1, 2, 3, 0.0, PostKind.REPORT)
        assert a.head_digest == b.head_digest

    def test_populated_board_verifies(self, board):
        for r in range(5):
            board.append(r, r % 8, r % 16, float(r % 2), PostKind.VOTE)
        board.verify_integrity()

    def test_mutated_post_detected(self):
        """A post rewritten after the chain folded it fails the check."""
        for board in _two_post_boards():
            board.head_digest  # fold both rows into the chain
            board._objects._buf[0] = 9  # out-of-API mutation of history
            with pytest.raises(TamperError):
                board.verify_integrity()

    def test_reordered_posts_detected(self):
        for board in _two_post_boards():
            _rewrite_rows(board, lambda rows: rows[::-1])
            with pytest.raises(TamperError):
                board.verify_integrity()

    def test_deleted_post_detected(self):
        """Dropping the first row or truncating the last both fail."""
        for drop in (_drop_first_row, _truncate_last_row):
            for board in _two_post_boards():
                drop(board)
                with pytest.raises(TamperError):
                    board.verify_integrity()

    def test_digest_matches_pre_lazy_golden(self):
        b = Billboard(4, 4)
        for round_no, player, obj, value, kind in _golden_entries():
            b.append(round_no, player, obj, value, kind)
        assert b.head_digest == GOLDEN_DIGEST

    def test_mutation_before_materialization_detected(self):
        """The write fingerprint is taken at write time, so tampering
        with a stored post before the digest is ever read still fails."""
        for board in _two_post_boards():
            board._objects._buf[0] = 9  # changed without reading head_digest
            with pytest.raises(TamperError):
                board.verify_integrity()

    def test_digest_independent_of_read_schedule(self):
        """Polling head_digest mid-history must not change the final value."""
        polled = Billboard(4, 4)
        deferred = Billboard(4, 4)
        for round_no, player, obj, value, kind in _golden_entries():
            polled.append(round_no, player, obj, value, kind)
            polled.head_digest
            deferred.append(round_no, player, obj, value, kind)
        assert deferred.head_digest == polled.head_digest == GOLDEN_DIGEST

    def test_full_run_board_verifies(self):
        import numpy as np

        from repro.adversaries.flood import FloodAdversary
        from repro.core.distill import DistillStrategy
        from repro.sim.engine import SynchronousEngine
        from repro.world.generators import planted_instance

        inst = planted_instance(
            n=64, m=64, beta=1 / 8, alpha=0.5,
            rng=np.random.default_rng(3),
        )
        engine = SynchronousEngine(
            inst,
            DistillStrategy(),
            adversary=FloodAdversary(),
            rng=np.random.default_rng(4),
            adversary_rng=np.random.default_rng(5),
        )
        engine.run()
        engine.board.verify_integrity()

    def test_batched_run_lane_boards_verify(self):
        """Every lane board of a batched run passes the integrity check,
        and each lane's digest is the one ``append_many`` gives the same
        posts."""
        from repro.adversaries.batched import batched_adversary_for
        from repro.adversaries.split_vote import SplitVoteAdversary
        from repro.core.distill import DistillStrategy
        from repro.sim.batch_engine import BatchedEngine
        from repro.sim.engine import EngineConfig
        from repro.strategies.batched import batched_strategy_for
        from repro.world.generators import planted_instance

        lanes = 3
        engine = BatchedEngine(
            [
                planted_instance(
                    n=64, m=64, beta=1 / 8, alpha=0.5,
                    rng=np.random.default_rng(seed),
                )
                for seed in range(lanes)
            ],
            batched_strategy_for(DistillStrategy, lanes),
            adversary=batched_adversary_for(SplitVoteAdversary, lanes),
            rngs=[np.random.default_rng(10 + k) for k in range(lanes)],
            adversary_rngs=[np.random.default_rng(20 + k) for k in range(lanes)],
            config=EngineConfig(record_reports=True),
        )
        engine.run()
        for lane in engine.boards:
            assert len(lane) > 0
            lane.verify_integrity()
            replay = Billboard(64, 64)
            for round_no in range(lane.last_round + 1):
                replay.append_many(
                    round_no,
                    [
                        (p.player, p.object_id, p.reported_value, p.kind)
                        for p in lane.posts()
                        if p.round_no == round_no
                    ],
                )
            assert replay.head_digest == lane.head_digest
            replay.verify_integrity()


class TestAppendMany:
    def test_empty_batch_is_a_noop(self, board):
        assert board.append_many(0, []) == []
        assert len(board) == 0
        assert board.last_round == -1

    def test_batch_matches_per_post_appends(self):
        eager = Billboard(4, 4)
        batched = Billboard(4, 4)
        for round_no, player, obj, value, kind in _golden_entries():
            eager.append(round_no, player, obj, value, kind)
            batched.append_many(round_no, [(player, obj, value, kind)])
        assert list(batched) == list(eager)
        assert batched.head_digest == eager.head_digest == GOLDEN_DIGEST

    def test_sequential_seqs_across_batches(self, board):
        board.append(0, 0, 0, 0.0, PostKind.REPORT)
        posts = board.append_many(
            1,
            [(1, 1, 1.0, PostKind.VOTE), (2, 2, 0.0, PostKind.REPORT)],
        )
        assert [p.seq for p in posts] == [1, 2]
        assert board[2].player == 2

    def test_batch_feeds_ledger(self, board):
        board.append_many(
            0,
            [(1, 5, 1.0, PostKind.VOTE), (2, 7, 0.0, PostKind.REPORT)],
        )
        votes = board.current_vote_array()
        assert votes[1] == 5
        assert votes[2] == -1  # reports never reach the ledger

    def test_invalid_entry_leaves_board_unchanged(self, board):
        """Validation is all-or-nothing: a bad entry anywhere in the batch
        means nothing is appended."""
        board.append(0, 0, 0, 0.0, PostKind.REPORT)
        digest = board.head_digest
        with pytest.raises(InvalidPostError):
            board.append_many(
                1,
                [(1, 1, 1.0, PostKind.VOTE), (99, 2, 0.0, PostKind.REPORT)],
            )
        assert len(board) == 1
        assert board.head_digest == digest
        assert board.current_vote_array()[1] == -1

    def test_round_regression_rejected(self, board):
        board.append(4, 0, 0, 0.0, PostKind.REPORT)
        with pytest.raises(TamperError):
            board.append_many(3, [(1, 1, 1.0, PostKind.VOTE)])
        assert len(board) == 1


# ----------------------------------------------------------------------
# Property: append_many + lazy chain ≡ eager per-post appends
# ----------------------------------------------------------------------
_entry = st.tuples(
    st.integers(0, 7),
    st.integers(0, 15),
    st.sampled_from([0.0, 1.0, 0.25, -2.5]),
    st.sampled_from([PostKind.VOTE, PostKind.REPORT]),
)


@given(st.lists(_entry, max_size=40), st.integers(1, 7))
@settings(max_examples=80, deadline=None)
def test_append_many_equivalent_to_eager_appends(entries, batch_size):
    """Batched appends with deferred hashing must be indistinguishable
    from per-post appends with the digest forced after every post: same
    posts, same head digest, same ledger state, and a verifying chain.
    The block writers (``post_entries`` for the mixed batch, and
    ``post_block`` per same-kind run) are two more input paths."""
    eager = Billboard(8, 16)
    batched = Billboard(8, 16)
    entry_blocks = Billboard(8, 16)
    kind_blocks = Billboard(8, 16)
    for start in range(0, len(entries), batch_size):
        round_no = start // batch_size
        batch = entries[start : start + batch_size]
        for player, obj, value, kind in batch:
            eager.append(round_no, player, obj, value, kind)
            eager.head_digest  # force eager materialization per post
        batched.append_many(round_no, batch)
        entry_blocks.post_entries(round_no, ActionBlock.from_entries(batch))
        for kind, run in groupby(batch, key=lambda entry: entry[3]):
            players, objects, values, _kinds = zip(*run)
            kind_blocks.post_block(
                round_no, np.array(players), np.array(objects),
                np.array(values), kind,
            )
    for board in (batched, entry_blocks, kind_blocks):
        assert list(board) == list(eager)
        assert board.head_digest == eager.head_digest
        assert np.array_equal(
            board.current_vote_array(), eager.current_vote_array()
        )
        assert np.array_equal(
            board.objects_with_votes(), eager.objects_with_votes()
        )
        board.verify_integrity()
    eager.verify_integrity()
