"""Property-based tests for the VoteLedger (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.billboard.post import Post, PostKind
from repro.billboard.votes import VoteLedger, VoteMode

N_PLAYERS = 8
N_OBJECTS = 12

# A vote stream: (player, object) pairs posted in consecutive rounds.
vote_streams = st.lists(
    st.tuples(
        st.integers(0, N_PLAYERS - 1), st.integers(0, N_OBJECTS - 1)
    ),
    max_size=60,
)


def replay(mode, stream, f=2):
    ledger = VoteLedger(
        N_PLAYERS, N_OBJECTS, mode=mode, max_votes_per_player=f
    )
    for round_no, (player, obj) in enumerate(stream):
        ledger.record(
            Post(
                seq=round_no,
                round_no=round_no,
                player=player,
                object_id=obj,
                reported_value=1.0,
                kind=PostKind.VOTE,
            )
        )
    return ledger


@given(vote_streams)
@settings(max_examples=80, deadline=None)
def test_single_mode_at_most_one_vote_per_player(stream):
    ledger = replay(VoteMode.SINGLE, stream)
    for player in range(N_PLAYERS):
        assert len(ledger.votes_of(player)) <= 1


@given(vote_streams)
@settings(max_examples=80, deadline=None)
def test_single_mode_first_vote_wins(stream):
    ledger = replay(VoteMode.SINGLE, stream)
    first_by_player = {}
    for player, obj in stream:
        first_by_player.setdefault(player, obj)
    votes = ledger.current_vote_array()
    for player in range(N_PLAYERS):
        expected = first_by_player.get(player, -1)
        assert votes[player] == expected


@given(vote_streams, st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_multi_mode_cap_and_distinctness(stream, f):
    ledger = replay(VoteMode.MULTI, stream, f=f)
    for player in range(N_PLAYERS):
        targets = ledger.votes_of(player)
        assert len(targets) <= f
        assert len(set(targets)) == len(targets)


@given(vote_streams)
@settings(max_examples=80, deadline=None)
def test_mutable_mode_current_is_last_posted(stream):
    ledger = replay(VoteMode.MUTABLE, stream)
    last_by_player = {}
    for player, obj in stream:
        last_by_player[player] = obj
    votes = ledger.current_vote_array()
    for player in range(N_PLAYERS):
        assert votes[player] == last_by_player.get(player, -1)


@given(vote_streams, st.integers(0, 30), st.integers(0, 30))
@settings(max_examples=80, deadline=None)
def test_window_counts_are_additive(stream, a, b):
    lo, hi = sorted((a, b))
    ledger = replay(VoteMode.SINGLE, stream)
    whole = ledger.counts_in_window(0, 61)
    left = ledger.counts_in_window(0, lo)
    mid = ledger.counts_in_window(lo, hi)
    right = ledger.counts_in_window(hi, 61)
    assert np.array_equal(whole, left + mid + right)


@given(vote_streams)
@settings(max_examples=80, deadline=None)
def test_total_counts_equal_effective_votes(stream):
    ledger = replay(VoteMode.SINGLE, stream)
    counts = ledger.counts_in_window(0, len(stream) + 1)
    assert counts.sum() == ledger.effective_vote_count


@given(vote_streams)
@settings(max_examples=80, deadline=None)
def test_objects_with_votes_matches_counts(stream):
    ledger = replay(VoteMode.SINGLE, stream)
    counts = ledger.counts_in_window(0, len(stream) + 1)
    assert np.array_equal(
        ledger.objects_with_votes(), np.flatnonzero(counts > 0)
    )


# Interleaved ledger operations for the as-of cursor:
#   ("one", advance, [(player, obj)])   record() one vote post
#   ("block", advance, [(player, obj)]) record_block() a same-round block
#   ("query", back)                     current_vote_array at a horizon
# ``advance`` moves the round forward (0 keeps it); a query's horizon is
# ``round + 1 - back``, so ``back > 0`` asks for an older horizon.
_votes = st.tuples(
    st.integers(0, N_PLAYERS - 1), st.integers(0, N_OBJECTS - 1)
)
ledger_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("one"), st.integers(0, 2), st.lists(_votes, min_size=1, max_size=1)
        ),
        st.tuples(
            st.just("block"), st.integers(0, 2), st.lists(_votes, max_size=10)
        ),
        st.tuples(st.just("query"), st.integers(0, 4)),
    ),
    max_size=40,
)


def _vote_post(round_no, player, obj):
    return Post(
        seq=0,
        round_no=round_no,
        player=player,
        object_id=obj,
        reported_value=1.0,
        kind=PostKind.VOTE,
    )


def _recomputed(mode, posts, horizon):
    """The advice array from scratch: a fresh ledger fed the posts
    stamped before ``horizon``, read at its full (un-horizoned) state."""
    fresh = VoteLedger(N_PLAYERS, N_OBJECTS, mode=mode, max_votes_per_player=2)
    for round_no, player, obj in posts:
        if round_no < horizon:
            fresh.record(_vote_post(round_no, player, obj))
    return fresh.current_vote_array()


@given(st.sampled_from(list(VoteMode)), ledger_ops)
@settings(max_examples=150, deadline=None)
def test_asof_cursor_matches_recompute(mode, ops):
    ledger = VoteLedger(N_PLAYERS, N_OBJECTS, mode=mode, max_votes_per_player=2)
    posts = []
    round_no = 0
    for op in ops:
        if op[0] == "query":
            horizon = max(0, round_no + 1 - op[1])
            assert np.array_equal(
                ledger.current_vote_array(horizon),
                _recomputed(mode, posts, horizon),
            ), (mode, horizon, posts)
            continue
        kind, advance, block = op
        round_no += advance
        if kind == "one":
            ledger.record(_vote_post(round_no, *block[0]))
        else:
            ledger.record_block(
                round_no,
                np.array([p for p, _ in block], dtype=np.int64),
                np.array([o for _, o in block], dtype=np.int64),
            )
        posts.extend((round_no, p, o) for p, o in block)
    assert np.array_equal(
        ledger.current_vote_array(), _recomputed(mode, posts, round_no + 1)
    )


# Same-round blocks in the three shapes record_block sees: strictly
# increasing players (every honest vote block), unsorted players, and
# blocks that repeat a player (adversary slot blocks).
_block_players = st.one_of(
    st.sets(st.integers(0, N_PLAYERS - 1), max_size=N_PLAYERS).map(sorted),
    st.permutations(list(range(N_PLAYERS))).flatmap(
        lambda order: st.integers(0, N_PLAYERS).map(lambda k: order[:k])
    ),
    st.lists(st.integers(0, N_PLAYERS - 1), min_size=2, max_size=12),
)
vote_blocks = st.lists(
    _block_players.flatmap(
        lambda players: st.lists(
            st.integers(0, N_OBJECTS - 1),
            min_size=len(players),
            max_size=len(players),
        ).map(lambda objects: (players, objects))
    ),
    max_size=8,
)


@given(st.sampled_from(list(VoteMode)), vote_blocks)
@settings(max_examples=150, deadline=None)
def test_record_block_equals_per_post_record(mode, blocks):
    blocked = VoteLedger(N_PLAYERS, N_OBJECTS, mode=mode, max_votes_per_player=2)
    posted = VoteLedger(N_PLAYERS, N_OBJECTS, mode=mode, max_votes_per_player=2)
    for round_no, (players, objects) in enumerate(blocks):
        mask = blocked.record_block(
            round_no,
            np.array(players, dtype=np.int64),
            np.array(objects, dtype=np.int64),
        )
        expected = [
            posted.record(_vote_post(round_no, p, o))
            for p, o in zip(players, objects)
        ]
        assert mask.dtype == bool
        assert mask.tolist() == expected
    end = len(blocks)
    assert blocked.effective_vote_count == posted.effective_vote_count
    for player in range(N_PLAYERS):
        assert blocked.votes_of(player) == posted.votes_of(player)
    for horizon in (None, *range(end + 1)):
        assert np.array_equal(
            blocked.current_vote_array(horizon),
            posted.current_vote_array(horizon),
        )
        assert np.array_equal(
            blocked.objects_with_votes(horizon),
            posted.objects_with_votes(horizon),
        )
    assert np.array_equal(
        blocked.counts_in_window(0, end), posted.counts_in_window(0, end)
    )
    everyone = np.arange(N_PLAYERS)
    assert blocked.votes_cast_by(everyone) == posted.votes_cast_by(everyone)
