"""The append-only billboard.

Section 2.1 of the paper makes two assumptions about the billboard, both
enforced here:

1. every message is reliably tagged with the posting player's identity and a
   timestamp — the board stamps posts itself, so a poster cannot forge
   either; and
2. the board is append-only — no message is ever erased, and any attempt to
   rewrite history raises :class:`~repro.errors.TamperError`.

:class:`Billboard` is the one post log every engine and the service use.
It stores the log as five growable columns — round, player and object
(``int32``), reported value (``float64``) and kind (``int8``), about 17
bytes a post — and builds :class:`Post` records only for the prefix a
reader has asked for (most readers query the vote ledger instead).
Four writers fill it: :meth:`~Billboard.append` and
:meth:`~Billboard.append_many` validate entry by entry (the scalar
engines and the service), :meth:`~Billboard.post_block` and
:meth:`~Billboard.post_entries` validate whole columns at once (the
batched engine, one board per lane).

The board keeps two kinds of tamper evidence over its columns, and
:meth:`Billboard.verify_integrity` re-derives both:

* a **hash chain** over each post's canonical field string (each post's
  digest covers the previous digest), computed lazily: reading
  :attr:`Billboard.head_digest` folds the rows appended since the last
  read, straight from the columns. The value is bit-identical to eager
  per-append chaining;
* a **write fingerprint**: every write stores the SHA-256 of the column
  bytes it appended, with the row it ended at. Because it is taken at
  write time, a row mutated behind the API's back is detected even when
  the mutation happened before the chain ever folded that row.

The model's adversary never gets the power to rewrite the board; the
evidence is a guard-rail for the *implementation* (test code or a buggy
strategy poking at internals).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.billboard.post import REPORT_CODE, VOTE_CODE, Post, PostKind
from repro.billboard.votes import VoteLedger, VoteMode, _IntColumn
from repro.errors import InvalidPostError, TamperError

if TYPE_CHECKING:  # the sim package imports this module
    from repro.sim.actions import ActionBlock

#: digest of the empty board (the chain's genesis value)
GENESIS_DIGEST = hashlib.sha256(b"repro-billboard-genesis").hexdigest()

#: one batch entry for :meth:`Billboard.append_many`
Entry = Tuple[int, int, float, PostKind]


def _fold_digest(previous: str, fields: str) -> str:
    """Fold one canonical field string onto the previous digest."""
    return hashlib.sha256(f"{previous}|{fields}".encode()).hexdigest()


def _kind_of(code: int) -> PostKind:
    return PostKind.VOTE if code == VOTE_CODE else PostKind.REPORT


class Billboard:
    """Append-only columnar post log plus its vote ledger.

    The board validates identities and timestamps; vote *semantics* (which
    votes count) live in the attached :class:`VoteLedger` because they are a
    reader-side convention, not a property of the medium.

    Parameters
    ----------
    n_players, n_objects:
        World dimensions used for identity/object validation.
    vote_mode:
        Reader-side vote rule (see :class:`VoteMode`).
    max_votes_per_player:
        The ``f`` of Section 4.1 (MULTI mode only).
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
        "_digest",
        "_digested",
        "_writes",
        "_posts",
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
        self._rounds = _IntColumn(dtype=np.int32)
        self._players = _IntColumn(dtype=np.int32)
        self._objects = _IntColumn(dtype=np.int32)
        self._values = _IntColumn(dtype=np.float64)
        self._kinds = _IntColumn(dtype=np.int8)
        self._last_round = -1
        #: digest of the chain over the first ``_digested`` rows
        self._digest = GENESIS_DIGEST
        self._digested = 0
        #: one ``(end row, SHA-256 of the rows written)`` per write
        self._writes: List[Tuple[int, bytes]] = []
        #: :class:`Post` records of the prefix readers have asked for
        self._posts: List[Post] = []

    def _columns(self) -> Tuple[_IntColumn, ...]:
        return (
            self._rounds, self._players, self._objects, self._values, self._kinds
        )

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(
        self,
        round_no: int,
        player: int,
        object_id: int,
        reported_value: float,
        kind: PostKind,
    ) -> Post:
        """Stamp, validate, and append a post; returns the stored record.

        Raises
        ------
        InvalidPostError
            If the player or object id is out of range, or the round is
            negative.
        TamperError
            If the round number is earlier than an already-appended post
            (which would amount to rewriting history).
        """
        self._validate_entry(round_no, player, object_id)
        post = Post(
            seq=len(self),
            round_no=round_no,
            player=int(player),
            object_id=int(object_id),
            reported_value=float(reported_value),
            kind=kind,
        )
        self._append(
            round_no,
            np.array([post.player], np.int64),
            np.array([post.object_id], np.int64),
            np.array([post.reported_value], np.float64),
            np.array([VOTE_CODE if post.is_vote else REPORT_CODE], np.int8),
        )
        return post

    def append_many(
        self, round_no: int, entries: Sequence[Entry]
    ) -> List[Post]:
        """Stamp, validate, and append a batch of posts for one round.

        ``entries`` is a sequence of ``(player, object_id, reported_value,
        kind)`` tuples. Equivalent to calling :meth:`append` once per entry
        in order — same post sequence, same ledger state, same hash chain —
        but the whole batch is validated *before* anything is appended
        (all-or-nothing), and the per-call overhead of stamping and
        digest bookkeeping is amortized over the batch.

        An empty batch is an explicit no-op: nothing is validated, the
        board (and its hash chain) is untouched, and ``[]`` is returned.

        Raises
        ------
        InvalidPostError, TamperError
            Same conditions as :meth:`append`; on error the board is
            unchanged.
        """
        if not entries:
            return []
        for player, object_id, _value, _kind in entries:
            self._validate_entry(round_no, player, object_id)
        base = len(self)
        posts = [
            Post(
                seq=base + offset,
                round_no=round_no,
                player=int(player),
                object_id=int(object_id),
                reported_value=float(value),
                kind=kind,
            )
            for offset, (player, object_id, value, kind) in enumerate(entries)
        ]
        self._append(
            round_no,
            np.array([p.player for p in posts], np.int64),
            np.array([p.object_id for p in posts], np.int64),
            np.array([p.reported_value for p in posts], np.float64),
            np.array(
                [VOTE_CODE if p.is_vote else REPORT_CODE for p in posts], np.int8
            ),
        )
        return posts

    def post_block(
        self,
        round_no: int,
        players: np.ndarray,
        objects: np.ndarray,
        values: np.ndarray,
        kind: PostKind,
    ) -> None:
        """Append a same-round, same-kind block of posts, in order.

        The batched engine's writer: validates the whole block with
        vectorized checks before appending anything, with
        :meth:`append_many`'s all-or-nothing contract and error messages.
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

    def post_entries(self, round_no: int, block: "ActionBlock") -> None:
        """Append a mixed-kind block (an adversary turn), in order."""
        if not len(block):
            return
        self._validate_block(round_no, block.players, block.objects)
        self._append(
            round_no, block.players, block.objects, block.values, block.kinds
        )

    def _append(
        self,
        round_no: int,
        players: np.ndarray,
        objects: np.ndarray,
        values: np.ndarray,
        kinds: np.ndarray,
    ) -> None:
        """Write validated rows, fingerprint them, and feed the ledger."""
        start = len(self._rounds)
        end = start + players.shape[0]
        self._rounds.extend(np.full(players.shape[0], round_no, np.int32))
        self._players.extend(players)
        self._objects.extend(objects)
        self._values.extend(values)
        self._kinds.extend(kinds)
        self._last_round = round_no
        self._writes.append((end, self._fingerprint(start, end)))
        votes = kinds == VOTE_CODE
        n_votes = np.count_nonzero(votes)
        # Non-vote posts never touch the ledger, so recording the vote
        # subset in order is equivalent to per-post recording.
        if n_votes == votes.shape[0]:
            self.ledger.record_block(round_no, players, objects)
        elif n_votes:
            self.ledger.record_block(round_no, players[votes], objects[votes])

    def _validate_entry(self, round_no: int, player: int, object_id: int) -> None:
        if not 0 <= player < self.n_players:
            raise InvalidPostError(
                f"unknown player identity {player} (n={self.n_players})"
            )
        if not 0 <= object_id < self.n_objects:
            raise InvalidPostError(
                f"unknown object {object_id} (m={self.n_objects})"
            )
        self._validate_round(round_no)

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
        self._validate_round(round_no)

    def _validate_round(self, round_no: int) -> None:
        if round_no < 0:
            raise InvalidPostError(f"negative round {round_no}")
        if round_no < self._last_round:
            raise TamperError(
                f"post stamped round {round_no} after round {self._last_round} "
                "was already on the board (append-only violation)"
            )

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    @property
    def head_digest(self) -> str:
        """Digest of the whole log (changes with every append).

        Folds the rows appended since the last read on access; the value
        is bit-identical to eager per-append chaining.
        """
        size = len(self)
        if self._digested < size:
            self._digest = self._fold(self._digest, self._digested, size)
            self._digested = size
        return self._digest

    def _fold(self, digest: str, start: int, end: int) -> str:
        """Chain the canonical field strings of rows ``[start, end)``."""
        rows = zip(
            range(start, end),
            *(column.view()[start:end].tolist() for column in self._columns()),
        )
        for seq, round_no, player, object_id, value, code in rows:
            digest = _fold_digest(
                digest,
                f"{seq}|{round_no}|{player}|{object_id}|{value!r}|"
                f"{_kind_of(code).value}",
            )
        return digest

    def _fingerprint(self, start: int, end: int) -> bytes:
        """SHA-256 over the column bytes of rows ``[start, end)``."""
        digest = hashlib.sha256()
        for column in self._columns():
            digest.update(column._buf[start:end])
        return digest.digest()

    def verify_integrity(self) -> None:
        """Re-derive the write fingerprints and the hash chain; raise
        :class:`TamperError` if the stored columns disagree with either.

        The fingerprints were taken at write time, so a row mutated after
        its write is detected even if :attr:`head_digest` was never read
        before the mutation; reordered or truncated rows fail them too.
        """
        size = len(self)
        if any(len(column) != size for column in self._columns()):
            raise TamperError("billboard columns disagree on the post count")
        start = 0
        for end, fingerprint in self._writes:
            if end > size or self._fingerprint(start, end) != fingerprint:
                raise TamperError(
                    f"posts {start}..{end - 1} no longer match the "
                    "fingerprint taken when they were written"
                )
            start = end
        if start != size:
            raise TamperError(
                f"board holds {size} posts but its writes appended {start}"
            )
        rounds = self._rounds.view()
        regressed = np.flatnonzero(rounds[1:] < rounds[:-1])
        if regressed.size:
            index = int(regressed[0]) + 1
            raise TamperError(
                f"post {index} is stamped round {rounds[index]} after "
                f"round {rounds[index - 1]}"
            )
        if self._fold(GENESIS_DIGEST, 0, size) != self.head_digest:
            raise TamperError(
                "billboard hash chain mismatch: a stored post was mutated "
                "outside the append API"
            )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rounds)

    def __iter__(self) -> Iterator[Post]:
        return iter(self.posts())

    def __getitem__(self, seq: int) -> Post:
        size = len(self)
        index = seq + size if seq < 0 else seq
        if not 0 <= index < size:
            raise IndexError(f"post {seq} out of range for {size} posts")
        return self._materialize(np.array([index]))[0]

    def _materialize(self, seqs: np.ndarray) -> List[Post]:
        """The posts at ``seqs`` (ascending), each built once and kept."""
        cache = self._posts
        if seqs.size and seqs[-1] >= len(cache):
            start, end = len(cache), int(seqs[-1]) + 1
            rows = zip(
                range(start, end),
                *(column.view()[start:end].tolist() for column in self._columns()),
            )
            cache.extend(
                Post(
                    seq=seq,
                    round_no=round_no,
                    player=player,
                    object_id=object_id,
                    reported_value=value,
                    kind=_kind_of(code),
                )
                for seq, round_no, player, object_id, value, code in rows
            )
        return [cache[seq] for seq in seqs.tolist()]

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
        """The log in append order, optionally filtered, as :class:`Post`
        records (each built on its first read and kept; posts are
        immutable and the log is append-only).

        ``before_round`` keeps only posts stamped strictly earlier — the
        honest player's view at the start of that round. Rounds are
        non-decreasing, so the horizon is one binary search.
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
        return self._materialize(np.flatnonzero(keep))

    def vote_posts(self, before_round: Optional[int] = None) -> List[Post]:
        """All vote posts (effective or not) in append order."""
        return self.posts(kind=PostKind.VOTE, before_round=before_round)

    # Ledger pass-throughs (the queries DISTILL actually uses) ----------
    def current_vote_array(self, before_round: Optional[int] = None) -> np.ndarray:
        """See :meth:`VoteLedger.current_vote_array`."""
        return self.ledger.current_vote_array(before_round)

    def objects_with_votes(self, before_round: Optional[int] = None) -> np.ndarray:
        """See :meth:`VoteLedger.objects_with_votes`."""
        return self.ledger.objects_with_votes(before_round)

    def counts_in_window(self, start_round: int, end_round: int) -> np.ndarray:
        """See :meth:`VoteLedger.counts_in_window`."""
        return self.ledger.counts_in_window(start_round, end_round)
