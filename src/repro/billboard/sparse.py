"""Former home of the scalar columnar post log, kept as aliases.

:class:`~repro.billboard.board.Billboard` is the one columnar post log
and :class:`~repro.billboard.votes.VoteLedger` the one ledger; these
names survive for importers such as ``perfbench/layers.py``.
"""

from repro.billboard.board import Billboard
from repro.billboard.votes import VoteLedger

SparseBoard = Billboard
SparseVoteLedger = VoteLedger
