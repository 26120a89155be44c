"""The adaptive split-vote adversary — the worst case of Lemma 7.

Lemma 7 bounds DISTILL's while-loop by charging each surviving bad
candidate its threshold of fresh dishonest votes: keeping a bad object in
``C_{t+1}`` costs strictly more than ``n/(4·c_t)`` votes *cast in iteration
t*, and the total dishonest budget is ``(1-α)n``. The adversary that
realizes the bound spends exactly that way: it tops bad candidates up to
just past each stage's threshold, keeping as many alive as it can afford,
for as long as it can afford.

Because every phase boundary of DISTILL is a deterministic function of the
public billboard (see :class:`~repro.core.tracker.DistillPhaseTracker`),
the adversary simply runs the same tracker the honest players do and reads
the thresholds off it. This is a legitimate adaptive Byzantine adversary:
it uses only public information plus realized history.

Attack plan per window:

* **Step 1.3 window** — spend up to ``step13_fraction`` of the remaining
  budget pushing distinct bad objects to the ``ceil(k2/4)`` entry
  threshold of ``C0`` (Step 1.4 counts votes for *any* object, so no
  Step 1.1 grooming is needed).
* **Iteration window** — the survival threshold is ``floor(n/(4·c_t))+1``
  fresh votes; keep ``min(|bad ∩ C_t|, budget // need)`` bad candidates
  alive, preferring candidates that survived so far (sunk cost already
  paid by earlier votes).
* **Step 1.1 window** — spend up to ``step11_fraction`` of the remaining
  budget on *distinct* bad objects. A vote here cannot reach ``C0`` by
  itself (Step 1.4's threshold sees to that), but it inflates ``S`` and so
  dilutes the honest probes of Step 1.3 — each bogus entry lowers the
  chance an honest Step 1.3 probe lands on a genuinely good candidate.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.adversaries.base import Adversary
from repro.billboard.views import BillboardView
from repro.core.parameters import DistillParameters
from repro.core.tracker import DistillPhase, DistillPhaseTracker
from repro.sim.actions import VoteAction
from repro.strategies.base import StrategyContext
from repro.world.instance import Instance


class SplitVoteAdversary(Adversary):
    """Threshold-topping adaptive adversary against DISTILL.

    Parameters
    ----------
    params:
        The DISTILL constants the honest players run with (the algorithm
        is public). Must match the honest strategy's for the mirror to be
        exact; a mismatched mirror degrades the attack, not the
        simulation.
    step11_fraction:
        Fraction of the remaining budget spent diluting ``S`` per ATTEMPT.
    step13_fraction:
        Fraction of the remaining budget allowed on ``C0`` pollution per
        ATTEMPT.
    votes_per_identity:
        The ``f`` of Section 4.1: how many effective votes each dishonest
        identity is worth under the run's ledger mode. Must match the
        engine's ``max_votes_per_player`` for the budget model to be
        exact.
    """

    name = "split-vote"

    def __init__(
        self,
        params: Optional[DistillParameters] = None,
        step11_fraction: float = 0.25,
        step13_fraction: float = 0.5,
        votes_per_identity: int = 1,
    ) -> None:
        if votes_per_identity < 1:
            raise ValueError(
                f"votes_per_identity must be >= 1, got {votes_per_identity}"
            )
        self.votes_per_identity = votes_per_identity
        for label, frac in (
            ("step11_fraction", step11_fraction),
            ("step13_fraction", step13_fraction),
        ):
            if not 0 <= frac <= 1:
                raise ValueError(f"{label} must be in [0, 1], got {frac}")
        self.params = params or DistillParameters()
        self.step11_fraction = step11_fraction
        self.step13_fraction = step13_fraction

    def make_batched(self, n_lanes: int) -> "BatchedSplitVoteAdversary":
        """Trial-lane counterpart (see :mod:`repro.adversaries.batched`)."""
        from repro.adversaries.batched import BatchedSplitVoteAdversary

        return BatchedSplitVoteAdversary(
            n_lanes,
            params=self.params,
            step11_fraction=self.step11_fraction,
            step13_fraction=self.step13_fraction,
            votes_per_identity=self.votes_per_identity,
        )

    # ------------------------------------------------------------------
    def reset(self, instance: Instance, rng: np.random.Generator) -> None:
        super().reset(instance, rng)
        ctx = StrategyContext(
            n=instance.n,
            m=instance.m,
            alpha=instance.alpha,
            beta=instance.beta,
            good_threshold=instance.space.good_threshold,
        )
        self.tracker = DistillPhaseTracker(ctx, self.params)
        # Each identity supplies `votes_per_identity` vote slots. Slots of
        # one identity must target *distinct* objects (the ledger dedups),
        # which the attack plans already guarantee by batching per object.
        self._unused = self._slot_pool(self.rng.permutation(self.dishonest_ids))
        self._bad = self.bad_object_ids()
        self._handled_window = (None, -1)

    @property
    def remaining_budget(self) -> int:
        return len(self._unused)

    # ------------------------------------------------------------------
    def act(self, round_no: int, view: BillboardView) -> List[VoteAction]:
        # len() (rather than truthiness) keeps this guard valid for the
        # vectorized subclass, whose slot pool is an ndarray.
        if len(self._unused) == 0 or self._bad.size == 0:
            return []
        # Mirror the honest phase computation exactly: advance on the
        # honest start-of-round horizon.
        self.tracker.advance(round_no, view.with_horizon(round_no))
        window = (self.tracker.phase, self.tracker.phase_start)
        if window == self._handled_window:
            return []
        self._handled_window = window

        if self.tracker.phase is DistillPhase.STEP11:
            return self._attack_step11()
        if self.tracker.phase is DistillPhase.STEP13:
            return self._attack_step13()
        return self._attack_iteration()

    # ------------------------------------------------------------------
    def _slot_pool(self, shuffled: np.ndarray) -> List[int]:
        """``votes_per_identity`` passes over one shuffled identity order."""
        return [p for _ in range(self.votes_per_identity) for p in shuffled]

    def _take_votes(self, count: int) -> List[int]:
        """Consume ``count`` vote slots with pairwise-distinct identities.

        Distinctness matters because the ledger deduplicates repeat votes
        by one player for one object; a batch aimed at a single object
        must come from ``count`` different identities or the threshold is
        not reached. Returns ``[]`` (consuming nothing) when the pool
        cannot supply a full distinct batch.
        """
        taken: List[int] = []
        rest: List[int] = []
        seen = set()
        for player in self._unused:
            p = int(player)
            if len(taken) < count and p not in seen:
                taken.append(p)
                seen.add(p)
            else:
                rest.append(p)
        if len(taken) < count:
            return []
        self._unused = rest
        return taken

    def _cast(self, targets: np.ndarray, need: int) -> List[VoteAction]:
        """``need`` votes for each target, while vote slots last."""
        actions: List[VoteAction] = []
        for obj in targets:
            voters = self._take_votes(need)
            if not voters:
                break
            actions.extend(
                VoteAction(player=p, object_id=int(obj)) for p in voters
            )
        return actions

    def _attack_step11(self) -> List[VoteAction]:
        budget = math.floor(self.step11_fraction * len(self._unused))
        n_targets = min(self._bad.size, budget)
        if n_targets <= 0:
            return []
        targets = self.rng.choice(self._bad, size=n_targets, replace=False)
        return self._cast(targets, need=1)

    def _attack_step13(self) -> List[VoteAction]:
        need = max(1, math.ceil(self.params.c0_vote_threshold))
        budget = math.floor(self.step13_fraction * len(self._unused))
        n_targets = min(self._bad.size, budget // need)
        if n_targets <= 0:
            return []
        targets = self.rng.choice(self._bad, size=n_targets, replace=False)
        return self._cast(targets, need)

    def _attack_iteration(self) -> List[VoteAction]:
        candidates = np.asarray(self.tracker.candidates, dtype=np.int64)
        bad_candidates = candidates[np.isin(candidates, self._bad)]
        if bad_candidates.size == 0:
            return []
        need = math.floor(self.tracker.iteration_threshold()) + 1
        n_targets = min(bad_candidates.size, len(self._unused) // need)
        if n_targets <= 0:
            return []
        return self._cast(bad_candidates[:n_targets], need)
