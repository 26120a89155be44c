"""The shared billboard substrate of the paper (Section 2.1).

The billboard is an append-only log of *posts*. Each post is reliably tagged
with the identity of the posting player and a timestamp (here: the round
number). Honest players post the outcome of every probe; a probe of a good
object is a *vote* — the only kind of report Algorithm DISTILL consumes.

The components are:

* :class:`~repro.billboard.post.Post` — one immutable billboard entry.
* :class:`~repro.billboard.board.Billboard` — the append-only columnar
  log with integrity enforcement (a lazily computed hash chain plus a
  fingerprint per write). It is the one post log: the scalar engines,
  each lane of the batched engine, and the service all use it.
* :class:`~repro.billboard.votes.VoteLedger` — the *reader-side* vote
  accounting: one vote per player (Figure 1), or the first ``f`` votes
  (Section 4.1), or the mutable best-so-far vote (Section 5.3). Every
  board carries one.
* :class:`~repro.billboard.views.BillboardView` — the read-only window a
  player or adversary is handed during a round.
"""

from repro.billboard.board import Billboard
from repro.billboard.post import Post, PostKind
from repro.billboard.views import BillboardView
from repro.billboard.votes import VoteLedger, VoteMode

__all__ = [
    "Billboard",
    "BillboardView",
    "Post",
    "PostKind",
    "VoteLedger",
    "VoteMode",
]
