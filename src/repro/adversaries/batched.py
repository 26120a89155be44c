"""Batched (trial-lane) adversaries.

The batched engine asks its adversary one lane at a time —
``act(lane, round_no, view)`` — because each lane's attack depends on
that lane's own billboard history and rng stream. A lane's turn comes
back as one :class:`~repro.sim.actions.ActionBlock` of parallel
columns, which the engine checks and posts without a per-action Python
object. What batching buys on the adversary side is therefore
*within-lane* vectorization of the expensive adversaries, not
cross-lane fusion:

* the split-vote adversary's vote-slot pool becomes a numpy array, and
  a whole attack window is one slice of it
  (:class:`VectorSlotSplitVoteAdversary`), replacing the quadratic Python
  list rebuild that dominates the scalar engine's E3 profile;
* every other adversary runs as plain per-lane scalar instances; the
  adapters convert each turn's ``List[VoteAction]`` into a block once.

Equivalence contract: per lane, the rng draw sequence and the emitted
actions are exactly the scalar adversary's for the same instance and
stream. The split-vote subclass below only re-implements the slot
*bookkeeping*; every draw and every attack decision is inherited code.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.adversaries.base import Adversary
from repro.adversaries.random_votes import RandomVotesAdversary
from repro.adversaries.silent import SilentAdversary
from repro.adversaries.split_vote import SplitVoteAdversary
from repro.billboard.views import BillboardView
from repro.core.parameters import DistillParameters
from repro.sim.actions import EMPTY_BLOCK, ActionBlock
from repro.world.instance import Instance


class BatchedAdversary:
    """Base class for lane-indexed Byzantine adversaries."""

    name: str = "adversary"

    def reset_lanes(
        self,
        instances: Sequence[Instance],
        rngs: Sequence[np.random.Generator],
    ) -> None:
        raise NotImplementedError

    def act(self, lane: int, round_no: int, view: BillboardView) -> ActionBlock:
        """Posts lane ``lane``'s dishonest players make this round."""
        raise NotImplementedError


class PerLaneAdversary(BatchedAdversary):
    """Adapter: one scalar :class:`Adversary` instance per lane.

    The automatic fallback that makes every scalar adversary batchable;
    draw sequences are trivially identical because each lane runs its own
    instance against its own pinned stream.
    """

    def __init__(self, adversaries: Sequence[Adversary]) -> None:
        if not adversaries:
            raise ValueError("PerLaneAdversary needs at least one lane")
        self._adversaries = list(adversaries)
        self.name = self._adversaries[0].name

    def reset_lanes(
        self,
        instances: Sequence[Instance],
        rngs: Sequence[np.random.Generator],
    ) -> None:
        for adversary, instance, rng in zip(self._adversaries, instances, rngs):
            adversary.reset(instance, rng)

    def act(self, lane: int, round_no: int, view: BillboardView) -> ActionBlock:
        return ActionBlock.of(self._adversaries[lane].act(round_no, view))


class MixedLaneAdversary(BatchedAdversary):
    """Per-lane *optional* adversaries, for grid lanes.

    Grid-packed batches (:func:`~repro.sim.runner.run_trial_grid`) may mix
    lanes from experiment cells with different adversaries — including
    cells with none at all. ``None`` lanes are inert: they emit no
    actions and their pinned adversary stream is never touched, exactly
    like a scalar run with ``adversary=None``.
    """

    def __init__(self, adversaries: Sequence[Optional[Adversary]]) -> None:
        if not adversaries:
            raise ValueError("MixedLaneAdversary needs at least one lane")
        self._adversaries = list(adversaries)
        named = [a for a in self._adversaries if a is not None]
        self.name = named[0].name if named else "adversary"

    def reset_lanes(
        self,
        instances: Sequence[Instance],
        rngs: Sequence[np.random.Generator],
    ) -> None:
        for adversary, instance, rng in zip(self._adversaries, instances, rngs):
            if adversary is not None:
                adversary.reset(instance, rng)

    def act(self, lane: int, round_no: int, view: BillboardView) -> ActionBlock:
        adversary = self._adversaries[lane]
        if adversary is None:
            return EMPTY_BLOCK
        return ActionBlock.of(adversary.act(round_no, view))


class VectorSlotSplitVoteAdversary(SplitVoteAdversary):
    """Split-vote adversary with a vectorized vote-slot allocator.

    The scalar ``_cast`` calls ``_take_votes`` once per target, and each
    call rebuilds the slot pool as a Python list — quadratic over an
    attack window, and the single hottest path of the whole E3 cell.

    This subclass exploits a structural invariant of the pool: ``reset``
    builds it (with ``np.tile``) as ``votes_per_identity`` contiguous
    copies of one permutation of the dishonest identities, and the only
    consumer (``_cast``) takes slots from the front. Every reachable pool
    state is therefore a contiguous window of that periodic sequence, so
    any prefix of length ``<= n_distinct`` is automatically pairwise
    distinct — the scalar scan's "first ``need`` distinct identities in
    scan order" is simply the pool's first ``need`` entries. One whole
    ``_cast`` collapses to a single slice, returned as an
    :class:`~repro.sim.actions.ActionBlock` in the exact action order of
    the scalar loop (pinned by the equivalence suite). Its turns are
    therefore blocks, not lists: it runs behind the batched adapters.
    """

    def _slot_pool(self, shuffled: np.ndarray) -> np.ndarray:
        return np.tile(shuffled, self.votes_per_identity)

    def _cast(self, targets: np.ndarray, need: int) -> ActionBlock:
        pool = self._unused
        # Scalar behaviour when a full distinct batch is impossible:
        # _take_votes returns [] consuming nothing, and _cast breaks at
        # the first such target.
        if need > min(pool.size, self.dishonest_ids.size):
            return EMPTY_BLOCK
        n_batches = min(len(targets), pool.size // need)
        if n_batches == 0:
            return EMPTY_BLOCK
        self._unused = pool[n_batches * need:]
        return ActionBlock.votes(
            pool[: n_batches * need],
            np.repeat(np.asarray(targets[:n_batches], dtype=np.int64), need),
        )


class BatchedSilentAdversary(PerLaneAdversary):
    """Lane-indexed silent adversary (a no-op per lane)."""

    def __init__(self, n_lanes: int) -> None:
        super().__init__([SilentAdversary() for _ in range(n_lanes)])


class BatchedRandomVotesAdversary(PerLaneAdversary):
    """Lane-indexed random-votes adversary.

    The scalar implementation pre-draws its whole schedule at reset and
    acts by dict lookup, so per-lane instances are already optimal.
    """

    def __init__(self, n_lanes: int, horizon: int = 64) -> None:
        super().__init__(
            [RandomVotesAdversary(horizon=horizon) for _ in range(n_lanes)]
        )


class BatchedSplitVoteAdversary(PerLaneAdversary):
    """Lane-indexed split-vote adversary with vectorized slot pools."""

    def __init__(
        self,
        n_lanes: int,
        params: Optional[DistillParameters] = None,
        step11_fraction: float = 0.25,
        step13_fraction: float = 0.5,
        votes_per_identity: int = 1,
    ) -> None:
        super().__init__(
            [
                VectorSlotSplitVoteAdversary(
                    params=params,
                    step11_fraction=step11_fraction,
                    step13_fraction=step13_fraction,
                    votes_per_identity=votes_per_identity,
                )
                for _ in range(n_lanes)
            ]
        )


def batched_adversary_for(
    make_adversary: Optional[Callable[[], Optional[Adversary]]],
    n_lanes: int,
) -> Optional[BatchedAdversary]:
    """Build the batched counterpart of a scalar adversary factory.

    Scalar adversaries that batch themselves natively expose
    ``make_batched(n_lanes)``; everything else gets one instance per lane.
    ``None`` factories (or factories returning ``None``) mean no
    adversary.
    """
    if make_adversary is None:
        return None
    template = make_adversary()
    if template is None:
        return None
    maker = getattr(template, "make_batched", None)
    if maker is not None:
        return maker(n_lanes)
    return PerLaneAdversary(
        [template] + [make_adversary() for _ in range(n_lanes - 1)]
    )
