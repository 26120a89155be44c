"""Columnar post log for population-scale worlds, and the substrate knob.

Every board carries the one reader-side vote ledger,
:class:`~repro.billboard.votes.VoteLedger`: its per-player state is
three ``int64`` columns allocated through
:func:`~repro.world.playerstate.player_array` (memmap-backed for
million-player worlds), and its effective-vote log is columnar, so each
query is a vectorized slice. What the ``substrate`` knob still selects
is the *post log* of the scalar engine and the service:

* ``dense`` — :class:`~repro.billboard.board.Billboard`, which keeps one
  :class:`Post` object per entry plus the tamper-evidence hash chain;
* ``sparse`` — :class:`SparseBoard`, a scalar columnar log (the
  single-lane analogue of :class:`~repro.billboard.lanes.LaneBoard`) at
  ~17 bytes a post, with :class:`Post` objects materialized on demand.
  It implements the full Billboard API the engine and
  :class:`~repro.billboard.views.BillboardView` use, with the same
  validation error messages, but carries no hash chain: its integrity
  guarantee is the sparse≡dense golden equivalence suite
  (``tests/billboard/test_sparse_equivalence.py``), and audit runs
  (structured tracing) stay on the chained board (see
  :func:`substrate_fallback_reason`).

``auto`` picks sparse at or above :data:`SPARSE_AUTO_THRESHOLD`
players. Selection is **bit-inert**: for the same seed both post logs
produce identical :class:`~repro.sim.metrics.RunMetrics`. The batched
engine's lane boards are columnar already and ignore the knob.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.billboard.post import REPORT_CODE, VOTE_CODE, Post, PostKind
from repro.billboard.votes import VoteLedger, VoteMode, _IntColumn
from repro.errors import ConfigurationError, InvalidPostError, TamperError

#: ``substrate="auto"`` picks the columnar :class:`SparseBoard` at or
#: above this many players. Both boards carry the same ledger; below the
#: threshold the chained board's per-post objects are cheap, above it
#: they dominate the post log's RSS.
SPARSE_AUTO_THRESHOLD = 32_768

#: valid values of the ``substrate`` knob, in documentation order
SUBSTRATE_CHOICES: Tuple[str, ...] = ("auto", "dense", "sparse")

#: Alias of :class:`VoteLedger` under its former sparse-substrate name,
#: kept for importers such as ``perfbench/layers.py``.
SparseVoteLedger = VoteLedger


def normalize_substrate(substrate: Optional[str]) -> str:
    """Validate a ``substrate`` knob value; ``None`` means ``auto``."""
    if substrate is None:
        return "auto"
    name = str(substrate).strip().lower()
    if name not in SUBSTRATE_CHOICES:
        raise ConfigurationError(
            f"substrate must be one of {', '.join(SUBSTRATE_CHOICES)}; "
            f"got {substrate!r}"
        )
    return name


def choose_substrate(substrate: Optional[str], n_players: int) -> str:
    """Resolve the knob to a concrete substrate (``dense``/``sparse``).

    ``auto`` (and ``None``) picks ``sparse`` at or above
    :data:`SPARSE_AUTO_THRESHOLD` players, ``dense`` below it. The
    choice never affects results — only memory and speed.
    """
    name = normalize_substrate(substrate)
    if name != "auto":
        return name
    return "sparse" if n_players >= SPARSE_AUTO_THRESHOLD else "dense"


def substrate_fallback_reason(config: Optional[object]) -> Optional[str]:
    """Why a run cannot use the sparse substrate (or ``None``).

    Structured tracing is the auditing path: trace runs keep the
    chained, tamper-evident dense :class:`Billboard` as their
    reference substrate. Engines consult this before honoring a
    ``sparse``/``auto`` request and degrade to dense (identical
    results) with a ``substrate.fallback`` counter when it returns a
    reason.
    """
    if config is not None and bool(getattr(config, "trace", False)):
        return "structured traces audit the chained dense board"
    return None


class SparseBoard:
    """Scalar columnar billboard over a :class:`VoteLedger`.

    The single-lane sparse analogue of
    :class:`~repro.billboard.lanes.LaneBoard`: the post log is stored
    as growable columns (round, player, object, value, kind) with
    :class:`Post` objects materialized only on demand, and validation
    raises the exact errors :class:`Billboard` raises. Like the lane
    boards it carries no hash chain; audit (trace) runs stay on the
    dense board via :func:`substrate_fallback_reason`.
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
    ) -> None:
        self.n_players = n_players
        self.n_objects = n_objects
        self.ledger = VoteLedger(
            n_players,
            n_objects,
            mode=vote_mode,
            max_votes_per_player=max_votes_per_player,
        )
        # Narrow columnar log: ids fit int32 comfortably (the knob only
        # matters below ~2^31 players), kinds are a bit, values are the
        # float64 the dense Post carries. ~17 bytes/post vs the dense
        # board's per-Post objects.
        self._rounds = _IntColumn(dtype=np.int32)
        self._players = _IntColumn(dtype=np.int32)
        self._objects = _IntColumn(dtype=np.int32)
        self._values = _IntColumn(dtype=np.float64)
        self._kinds = _IntColumn(dtype=np.int8)
        self._last_round = -1

    # ------------------------------------------------------------------
    # Appending (the Billboard write API)
    # ------------------------------------------------------------------
    def append(
        self,
        round_no: int,
        player: int,
        object_id: int,
        reported_value: float,
        kind: PostKind,
    ) -> Post:
        """Stamp, validate, and append one post; returns the record."""
        posts = self.append_many(
            round_no, [(player, object_id, reported_value, kind)]
        )
        return posts[0]

    def append_many(
        self,
        round_no: int,
        entries: Sequence[Tuple[int, int, float, PostKind]],
    ) -> List[Post]:
        """Stamp, validate, and append a batch of posts for one round.

        Same all-or-nothing contract, validation errors, and empty-batch
        no-op as :meth:`Billboard.append_many`; the returned ``Post``
        records are materialized for the caller but not retained (the
        board keeps columns only).
        """
        if not entries:
            return []
        for player, object_id, _value, _kind in entries:
            self._validate_entry(round_no, int(player), int(object_id))
        base = len(self._rounds)
        count = len(entries)
        players = np.fromiter(
            (int(e[0]) for e in entries), np.int64, count=count
        )
        objects = np.fromiter(
            (int(e[1]) for e in entries), np.int64, count=count
        )
        values = np.fromiter(
            (float(e[2]) for e in entries), np.float64, count=count
        )
        votes = np.fromiter(
            (e[3] is PostKind.VOTE for e in entries), bool, count=count
        )
        self._rounds.extend(np.full(count, round_no, np.int32))
        self._players.extend(players.astype(np.int32, copy=False))
        self._objects.extend(objects.astype(np.int32, copy=False))
        self._values.extend(values)
        self._kinds.extend(votes.astype(np.int8, copy=False))
        self._last_round = round_no
        if votes.any():
            # One vectorized ledger pass per batch; its equivalence to
            # per-post record() is pinned by the ledger property suite.
            self.ledger.record_block(
                round_no, players[votes], objects[votes]
            )
        return [
            Post(
                seq=base + offset,
                round_no=round_no,
                player=int(players[offset]),
                object_id=int(objects[offset]),
                reported_value=float(values[offset]),
                kind=PostKind.VOTE if votes[offset] else PostKind.REPORT,
            )
            for offset in range(count)
        ]

    def _validate_entry(self, round_no: int, player: int, object_id: int) -> None:
        if not 0 <= player < self.n_players:
            raise InvalidPostError(
                f"unknown player identity {player} (n={self.n_players})"
            )
        if not 0 <= object_id < self.n_objects:
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

    def __getitem__(self, seq: int) -> Post:
        if not 0 <= seq < len(self._rounds):
            raise IndexError(seq)
        return self._materialize(seq)

    def _materialize(self, seq: int) -> Post:
        return Post(
            seq=seq,
            round_no=int(self._rounds.view()[seq]),
            player=int(self._players.view()[seq]),
            object_id=int(self._objects.view()[seq]),
            reported_value=float(self._values.view()[seq]),
            kind=(
                PostKind.VOTE
                if self._kinds.view()[seq] == VOTE_CODE
                else PostKind.REPORT
            ),
        )

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
        """The log in append order, materialized to ``Post`` on demand."""
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
        return [self._materialize(int(s)) for s in np.flatnonzero(keep)]

    def vote_posts(self, before_round: Optional[int] = None) -> List[Post]:
        """All vote posts (effective or not) in append order."""
        return self.posts(kind=PostKind.VOTE, before_round=before_round)

    # Ledger pass-throughs ---------------------------------------------
    def current_vote_array(self, before_round: Optional[int] = None) -> np.ndarray:
        """See :meth:`VoteLedger.current_vote_array`."""
        return self.ledger.current_vote_array(before_round)

    def objects_with_votes(self, before_round: Optional[int] = None) -> np.ndarray:
        """See :meth:`VoteLedger.objects_with_votes`."""
        return self.ledger.objects_with_votes(before_round)

    def counts_in_window(self, start_round: int, end_round: int) -> np.ndarray:
        """See :meth:`VoteLedger.counts_in_window`."""
        return self.ledger.counts_in_window(start_round, end_round)
