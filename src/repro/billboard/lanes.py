"""Multi-lane columnar billboard substrate for the batched engine.

The batched engine (:mod:`repro.sim.batch_engine`) advances ``K``
independent trials in lockstep. Each trial still needs a billboard with
the *exact* reader semantics of :class:`~repro.billboard.board.Billboard`
— the vote ledger rules are what keep the DISTILL cohort in lockstep —
but none of the per-post overhead: no :class:`Post` dataclass per entry,
no hash-chain field snapshot, no Python list walk per query.

:class:`LaneBillboard` therefore stores each lane's log as growable numpy
columns (round, player, object, value, kind) plus a per-lane
:class:`~repro.billboard.votes.VoteLedger` — the same ledger class the
scalar board uses, so every effectiveness rule is shared code, not a
re-implementation. :meth:`LaneBoard.posts` materializes `Post` objects on
demand, which keeps per-lane adapter strategies (anything written against
:class:`~repro.billboard.views.BillboardView`) fully supported.

What a lane board deliberately does *not* carry is the tamper-evidence
hash chain: lanes live and die inside one engine call and are never
handed to untrusted code, and the batched path's integrity guarantee is
the golden equivalence suite against the scalar engine (which does chain
its board).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.billboard.post import REPORT_CODE, VOTE_CODE, Post, PostKind
from repro.billboard.sparse import SparseVoteLedger, normalize_substrate
from repro.billboard.votes import VoteLedger, VoteMode
from repro.errors import ConfigurationError, InvalidPostError, TamperError

if TYPE_CHECKING:  # the sim package imports this module
    from repro.sim.actions import ActionBlock


class _Column:
    """A growable single-dtype column with amortized O(1) appends."""

    __slots__ = ("_buf", "_size")

    def __init__(self, dtype: "np.typing.DTypeLike", capacity: int = 64) -> None:
        self._buf = np.empty(max(int(capacity), 1), dtype=dtype)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def extend(self, values: np.ndarray) -> None:
        needed = self._size + values.shape[0]
        if needed > self._buf.shape[0]:
            capacity = self._buf.shape[0]
            while capacity < needed:
                capacity *= 2
            grown = np.empty(capacity, dtype=self._buf.dtype)
            grown[: self._size] = self._buf[: self._size]
            self._buf = grown
        self._buf[self._size : needed] = values
        self._size = needed

    def view(self) -> np.ndarray:
        """Zero-copy read-only window onto the filled prefix (see
        :meth:`~repro.billboard.votes._IntColumn.view`)."""
        window = self._buf[: self._size]
        window.flags.writeable = False
        return window


class LaneBoard:
    """One lane's billboard: columnar log + shared-code vote ledger.

    Implements the full read API of
    :class:`~repro.billboard.board.Billboard` (everything
    :class:`~repro.billboard.views.BillboardView` forwards to), so a view
    over a lane board is indistinguishable from a view over a scalar
    board with the same post history.
    """

    __slots__ = (
        "n_players",
        "n_objects",
        "ledger",
        "_rounds",
        "_players",
        "_objects",
        "_values",
        "_kinds",
        "_last_round",
    )

    def __init__(
        self,
        n_players: int,
        n_objects: int,
        vote_mode: VoteMode = VoteMode.SINGLE,
        max_votes_per_player: int = 1,
        substrate: str = "dense",
    ) -> None:
        self.n_players = n_players
        self.n_objects = n_objects
        # The lane board's post log is already columnar; the substrate
        # knob selects the *ledger* representation — the dense ledger's
        # O(n) per-player state vs the object-sharded sparse ledger.
        # Both are bit-identical for every query (the equivalence grid
        # pins this), so the choice never affects results.
        ledger_cls = (
            SparseVoteLedger
            if normalize_substrate(substrate) == "sparse"
            else VoteLedger
        )
        self.ledger: "VoteLedger | SparseVoteLedger" = ledger_cls(
            n_players,
            n_objects,
            mode=vote_mode,
            max_votes_per_player=max_votes_per_player,
        )
        self._rounds = _Column(np.int64)
        self._players = _Column(np.int64)
        self._objects = _Column(np.int64)
        self._values = _Column(np.float64)
        self._kinds = _Column(np.int8)
        self._last_round = -1

    # ------------------------------------------------------------------
    # Writing (engine-only; vectorized)
    # ------------------------------------------------------------------
    def post_block(
        self,
        round_no: int,
        players: np.ndarray,
        objects: np.ndarray,
        values: np.ndarray,
        kind: PostKind,
    ) -> None:
        """Append a same-round, same-kind block of posts, in order.

        Validates the whole block before appending anything, mirroring
        ``Billboard.append_many``'s all-or-nothing contract and its error
        messages.
        """
        players = np.ascontiguousarray(players, dtype=np.int64)
        objects = np.ascontiguousarray(objects, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if players.size == 0:
            return
        self._validate_block(round_no, players, objects)
        code = VOTE_CODE if kind is PostKind.VOTE else REPORT_CODE
        kinds = np.full(players.size, code, np.int8)
        self._append(round_no, players, objects, values, kinds)
        if kind is PostKind.VOTE:
            self.ledger.record_block(round_no, players, objects)

    def post_entries(self, round_no: int, block: "ActionBlock") -> None:
        """Append a mixed-kind block (an adversary turn), in order."""
        if not len(block):
            return
        self._validate_block(round_no, block.players, block.objects)
        self._append(
            round_no, block.players, block.objects, block.values, block.kinds
        )
        vote_mask = block.kinds == VOTE_CODE
        if vote_mask.any():
            # Non-vote posts never touch the ledger, so recording the
            # vote subset in order is equivalent to per-post recording.
            self.ledger.record_block(
                round_no, block.players[vote_mask], block.objects[vote_mask]
            )

    def _append(
        self,
        round_no: int,
        players: np.ndarray,
        objects: np.ndarray,
        values: np.ndarray,
        kinds: np.ndarray,
    ) -> None:
        self._rounds.extend(np.full(players.size, round_no, np.int64))
        self._players.extend(players)
        self._objects.extend(objects)
        self._values.extend(values)
        self._kinds.extend(kinds)
        self._last_round = round_no

    def _validate_block(
        self, round_no: int, players: np.ndarray, objects: np.ndarray
    ) -> None:
        bad_p = (players < 0) | (players >= self.n_players)
        if bad_p.any():
            player = int(players[np.argmax(bad_p)])
            raise InvalidPostError(
                f"unknown player identity {player} (n={self.n_players})"
            )
        bad_o = (objects < 0) | (objects >= self.n_objects)
        if bad_o.any():
            object_id = int(objects[np.argmax(bad_o)])
            raise InvalidPostError(
                f"unknown object {object_id} (m={self.n_objects})"
            )
        if round_no < 0:
            raise InvalidPostError(f"negative round {round_no}")
        if round_no < self._last_round:
            raise TamperError(
                f"post stamped round {round_no} after round {self._last_round} "
                "was already on the board (append-only violation)"
            )

    # ------------------------------------------------------------------
    # Reading (the Billboard API BillboardView forwards to)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rounds)

    @property
    def last_round(self) -> int:
        """Round stamp of the newest post (``-1`` for an empty board)."""
        return self._last_round

    def posts(
        self,
        kind: Optional[PostKind] = None,
        player: Optional[int] = None,
        before_round: Optional[int] = None,
    ) -> List[Post]:
        """The log in append order, materialized to ``Post`` on demand.

        This is the compatibility path for per-lane adapter strategies;
        native batched strategies use the ledger queries and never pay
        for materialization.
        """
        rounds = self._rounds.view()
        cutoff = rounds.size
        if before_round is not None:
            cutoff = int(np.searchsorted(rounds, before_round, side="left"))
        keep = np.ones(cutoff, dtype=bool)
        if kind is not None:
            want = VOTE_CODE if kind is PostKind.VOTE else REPORT_CODE
            keep &= self._kinds.view()[:cutoff] == want
        if player is not None:
            keep &= self._players.view()[:cutoff] == player
        seqs = np.flatnonzero(keep)
        players = self._players.view()
        objects = self._objects.view()
        values = self._values.view()
        kinds = self._kinds.view()
        return [
            Post(
                seq=int(s),
                round_no=int(rounds[s]),
                player=int(players[s]),
                object_id=int(objects[s]),
                reported_value=float(values[s]),
                kind=PostKind.VOTE if kinds[s] == VOTE_CODE else PostKind.REPORT,
            )
            for s in seqs
        ]

    def vote_posts(self, before_round: Optional[int] = None) -> List[Post]:
        """All vote posts (effective or not) in append order."""
        return self.posts(kind=PostKind.VOTE, before_round=before_round)

    # Ledger pass-throughs ---------------------------------------------
    def current_vote_array(self, before_round: Optional[int] = None) -> np.ndarray:
        return self.ledger.current_vote_array(before_round)

    def objects_with_votes(self, before_round: Optional[int] = None) -> np.ndarray:
        return self.ledger.objects_with_votes(before_round)

    def counts_in_window(self, start_round: int, end_round: int) -> np.ndarray:
        return self.ledger.counts_in_window(start_round, end_round)


class LaneBillboard:
    """``K`` independent lane boards with identical shape and vote rules."""

    __slots__ = ("n_lanes", "lanes")

    def __init__(
        self,
        n_lanes: int,
        n_players: int,
        n_objects: int,
        vote_mode: VoteMode = VoteMode.SINGLE,
        max_votes_per_player: int = 1,
        substrate: str = "dense",
    ) -> None:
        if n_lanes < 1:
            raise ConfigurationError(f"need at least one lane, got {n_lanes}")
        self.n_lanes = n_lanes
        self.lanes = [
            LaneBoard(
                n_players,
                n_objects,
                vote_mode=vote_mode,
                max_votes_per_player=max_votes_per_player,
                substrate=substrate,
            )
            for _ in range(n_lanes)
        ]

    def lane(self, index: int) -> LaneBoard:
        return self.lanes[index]
