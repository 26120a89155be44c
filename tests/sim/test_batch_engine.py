"""Tests for the batched engine's adversary mediation.

The batched engine takes each lane's adversary turn as one
:class:`~repro.sim.actions.ActionBlock`. Like the scalar engine, it must
refuse a post under an identity the adversary does not control, and it
must check the whole block before posting any of it.
"""

import numpy as np
import pytest

from repro.adversaries.base import Adversary
from repro.adversaries.batched import BatchedAdversary, PerLaneAdversary
from repro.errors import AdversaryViolationError
from repro.sim.actions import ActionBlock, VoteAction
from repro.sim.batch_engine import BatchedEngine
from repro.strategies.base import Strategy
from repro.strategies.batched import PerLaneStrategy
from repro.world.generators import explicit_instance

N_LANES = 2
#: player 2 is the only dishonest identity of the 3-player world
DISHONEST = 2


class GoodProbeStrategy(Strategy):
    """Every active player probes the good object 1 (and so votes)."""

    name = "good-probe"

    def choose_probes(self, round_no, active_players, view):
        return np.ones(active_players.size, dtype=np.int64)


def world():
    """Object 0 bad, object 1 good; players 0, 1 honest."""
    return explicit_instance(
        values=np.array([0.0, 1.0]),
        good_mask=np.array([False, True]),
        honest_mask=np.array([True, True, False]),
        good_threshold=0.5,
    )


class BlockAdversary(BatchedAdversary):
    """Native block adversary: a legal vote, then one as ``forged``."""

    name = "block"

    def __init__(self, forged):
        self.forged = forged
        self.seen = {}

    def reset_lanes(self, instances, rngs):
        pass

    def act(self, lane, round_no, view):
        self.seen[lane] = len(view.posts())
        return ActionBlock.votes(
            np.array([DISHONEST, self.forged], dtype=np.int64),
            np.zeros(2, dtype=np.int64),
        )


class ListAdversary(Adversary):
    """Scalar list adversary: a legal vote, then one as ``forged``."""

    name = "list"

    def __init__(self, forged, seen, lane):
        self.forged = forged
        self.seen = seen
        self.lane = lane

    def act(self, round_no, view):
        self.seen[self.lane] = len(view.posts())
        return [
            VoteAction(player=DISHONEST, object_id=0),
            VoteAction(player=self.forged, object_id=0),
        ]


def native(forged):
    adversary = BlockAdversary(forged)
    return adversary, adversary.seen


def per_lane(forged):
    seen = {}
    adversary = PerLaneAdversary(
        [ListAdversary(forged, seen, lane) for lane in range(N_LANES)]
    )
    return adversary, seen


@pytest.mark.parametrize("make", [native, per_lane], ids=["native", "per-lane"])
@pytest.mark.parametrize("forged", [0, 1, 3, -1], ids=str)
def test_forged_identity_raises_and_posts_nothing(make, forged):
    adversary, seen = make(forged)
    engine = BatchedEngine(
        [world() for _ in range(N_LANES)],
        PerLaneStrategy([GoodProbeStrategy() for _ in range(N_LANES)]),
        adversary=adversary,
    )
    with pytest.raises(AdversaryViolationError, match=f"player {forged},"):
        engine.run()
    board = engine.boards[0]
    # lane 0's turn raised: its board holds the two honest votes only
    assert seen == {0: 2}
    assert len(board) == 2
    assert [p.player for p in board.posts()] == [0, 1]
    assert board.ledger.effective_vote_count == 2
    assert board.current_vote_array().tolist() == [1, 1, -1]


@pytest.mark.parametrize("make", [native, per_lane], ids=["native", "per-lane"])
def test_controlled_identity_posts(make):
    adversary, _seen = make(DISHONEST)
    engine = BatchedEngine(
        [world() for _ in range(N_LANES)],
        PerLaneStrategy([GoodProbeStrategy() for _ in range(N_LANES)]),
        adversary=adversary,
    )
    engine.run()
    for lane in range(N_LANES):
        board = engine.boards[lane]
        # the repeat vote by the same identity is posted, not effective
        assert [p.player for p in board.posts()] == [0, 1, 2, 2]
        assert board.current_vote_array().tolist() == [1, 1, 0]
