"""Former home of the batched engine's lane board, kept as an alias.

Each lane of :class:`~repro.sim.batch_engine.BatchedEngine` holds a
plain :class:`~repro.billboard.board.Billboard`; the name survives for
importers such as ``perfbench/layers.py``.
"""

from repro.billboard.board import Billboard

LaneBoard = Billboard
