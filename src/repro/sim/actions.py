"""Adversary actions.

Honest players act through their cohort :class:`~repro.strategies.base.Strategy`
(arrays of probe choices); the Byzantine adversary acts through explicit
:class:`VoteAction` records, which the engine validates — an adversary may
only post under identities it controls. Probes by dishonest players are not
mediated by the engine at all: they cost the adversary nothing we measure,
and the Byzantine model lets dishonest players "know" whatever the
adversary scripts, so only their *posts* can influence honest players.

The batched engine takes a whole lane's turn as one :class:`ActionBlock`:
the same records as parallel columns, which flow to the lane board
without a per-action Python object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from repro.billboard.post import REPORT_CODE, VOTE_CODE, PostKind


@dataclass(frozen=True)
class VoteAction:
    """A dishonest post: ``player`` posts about ``object_id``.

    ``claimed_value`` is what the post reports as the observed value; it
    only matters in worlds where readers inspect reported values (the
    no-local-testing model), and defaults to 1.0 ("looks good").

    ``kind`` defaults to a positive vote. Slander — a negative REPORT
    post ("that object is bad") — is expressible too; Algorithm DISTILL
    ignores it ("our algorithm uses only positive recommendations"), but
    the Section 6 open-problem extensions
    (:mod:`repro.extensions.slander`) study readers that do not.
    """

    player: int
    object_id: int
    claimed_value: float = 1.0
    kind: PostKind = field(default=PostKind.VOTE)


@dataclass(frozen=True)
class ActionBlock:
    """One adversary turn as parallel columns, in posting order.

    Row ``i`` is the post ``VoteAction(players[i], objects[i], values[i],
    kind)`` with ``kinds[i]`` the kind's int8 code
    (:data:`~repro.billboard.post.VOTE_CODE` /
    :data:`~repro.billboard.post.REPORT_CODE`). ``len(block)`` is the
    row count.
    """

    players: np.ndarray
    objects: np.ndarray
    values: np.ndarray
    kinds: np.ndarray

    def __len__(self) -> int:
        return self.players.shape[0]

    @classmethod
    def votes(cls, players: np.ndarray, objects: np.ndarray) -> "ActionBlock":
        """Positive votes claiming value 1.0 (the ``VoteAction`` defaults)."""
        size = players.shape[0]
        return cls(
            players,
            objects,
            np.ones(size, dtype=np.float64),
            np.full(size, VOTE_CODE, dtype=np.int8),
        )

    @classmethod
    def of(cls, actions: Union["ActionBlock", Sequence[VoteAction]]) -> "ActionBlock":
        """A scalar adversary's turn as a block (a block passes through)."""
        if isinstance(actions, ActionBlock):
            return actions
        return cls.from_entries(
            [(a.player, a.object_id, a.claimed_value, a.kind) for a in actions]
        )

    @classmethod
    def from_entries(cls, entries: Sequence[tuple]) -> "ActionBlock":
        """Rows of ``(player, object_id, claimed_value, kind)`` tuples."""
        if not entries:
            return EMPTY_BLOCK
        players, objects, values, kinds = zip(*entries)
        return cls(
            np.array(players, dtype=np.int64),
            np.array(objects, dtype=np.int64),
            np.array(values, dtype=np.float64),
            np.array(
                [VOTE_CODE if k is PostKind.VOTE else REPORT_CODE for k in kinds],
                dtype=np.int8,
            ),
        )


#: the turn of an adversary that posts nothing
EMPTY_BLOCK = ActionBlock.votes(
    np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
)
