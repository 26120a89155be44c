"""The shared billboard substrate of the paper (Section 2.1).

The billboard is an append-only log of *posts*. Each post is reliably tagged
with the identity of the posting player and a timestamp (here: the round
number). Honest players post the outcome of every probe; a probe of a good
object is a *vote* — the only kind of report Algorithm DISTILL consumes.

The components are:

* :class:`~repro.billboard.post.Post` — one immutable billboard entry.
* :class:`~repro.billboard.board.Billboard` — the append-only log with
  integrity enforcement.
* :class:`~repro.billboard.votes.VoteLedger` — the *reader-side* vote
  accounting: one vote per player (Figure 1), or the first ``f`` votes
  (Section 4.1), or the mutable best-so-far vote (Section 5.3). It is the
  one ledger every board below carries.
* :class:`~repro.billboard.views.BillboardView` — the read-only window a
  player or adversary is handed during a round.
* :class:`~repro.billboard.lanes.LaneBoard` — the batched engine's
  per-lane columnar log.
* :class:`~repro.billboard.sparse.SparseBoard` — the scalar columnar post
  log for population-scale worlds (``substrate="sparse"``), bit-identical
  to :class:`Billboard` for every query but without the hash chain.
"""

from repro.billboard.board import Billboard
from repro.billboard.lanes import LaneBillboard, LaneBoard
from repro.billboard.post import Post, PostKind
from repro.billboard.sparse import (
    SPARSE_AUTO_THRESHOLD,
    SUBSTRATE_CHOICES,
    SparseBoard,
    choose_substrate,
    normalize_substrate,
    substrate_fallback_reason,
)
from repro.billboard.views import BillboardView
from repro.billboard.votes import VoteLedger, VoteMode

__all__ = [
    "Billboard",
    "BillboardView",
    "LaneBillboard",
    "LaneBoard",
    "Post",
    "PostKind",
    "SPARSE_AUTO_THRESHOLD",
    "SUBSTRATE_CHOICES",
    "SparseBoard",
    "VoteLedger",
    "VoteMode",
    "choose_substrate",
    "normalize_substrate",
    "substrate_fallback_reason",
]
