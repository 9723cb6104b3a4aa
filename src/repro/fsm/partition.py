"""Partitioned transition relations with early quantification.

The classic scaling move of symbolic model checking (Burch/Clarke/Long):
instead of one monolithic transition BDD ``TM = T1 & T2 & ... & Tk`` (one
conjunct per latch), keep the conjuncts separate and compute images as a
*scheduled* chain of relational products::

    image(S) = exists V . (S & T1 & ... & Tk)
             = exists Q_k . (... exists Q_1 . (S & T_{o1}) ... & T_{ok})

where ``o`` orders the conjuncts and ``Q_i`` quantifies out every variable
whose last occurrence is at step ``i`` — *early quantification*.  The
monolithic relation (often the biggest BDD of the whole run) is never
built, and intermediate products stay small because variables leave the
computation as soon as they legally can.

Two pieces live here:

* :func:`early_quantification_schedule` — given the support of each
  conjunct and the set of variables to quantify, choose a conjunct order
  (greedy minimum-active-lifetime heuristic) and place each variable at
  its earliest legal step.
* :class:`TransitionPartition` — the list of per-latch conjuncts an FSM
  carries in partitioned mode, with schedules cached per quantification
  set.  :meth:`TransitionPartition.relprod` executes the chain via
  :meth:`repro.bdd.manager.BDDManager.and_exists_chain`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..bdd import Function
from ..engine import TRANS_MODES, TRANS_MONO, TRANS_PARTITIONED
from ..errors import ModelError

__all__ = [
    "TRANS_MONO",
    "TRANS_PARTITIONED",
    "TRANS_MODES",
    "ScheduleStep",
    "Schedule",
    "early_quantification_schedule",
    "TransitionPartition",
]


def validate_trans_mode(trans: str) -> str:
    """Return ``trans`` if it names a valid mode, else raise ``ModelError``.

    >>> validate_trans_mode("mono")
    'mono'
    """
    if trans not in TRANS_MODES:
        raise ModelError(
            f"unknown transition mode {trans!r}; valid: {', '.join(TRANS_MODES)}"
        )
    return trans


@dataclass(frozen=True)
class ScheduleStep:
    """One step of an early-quantification schedule.

    ``conjunct`` indexes the partition's conjunct list; ``quantify`` is the
    tuple of variable ids quantified out right after this conjunct is
    conjoined (its variables occur in no later conjunct).
    """

    conjunct: int
    quantify: Tuple[int, ...]


@dataclass(frozen=True)
class Schedule:
    """A complete schedule for one quantification variable set.

    ``prequantify`` are variables to existentially quantify out of the
    *state set* before the chain starts — variables mentioned by no
    conjunct at all (for preimages these are the next-state copies of free
    inputs, which is exactly why preimages profit most from partitioning).
    ``steps`` then runs the conjuncts in scheduled order.
    """

    prequantify: Tuple[int, ...]
    steps: Tuple[ScheduleStep, ...]

    def quantified_vars(self) -> FrozenSet[int]:
        """Every variable the schedule quantifies (for validity checks)."""
        out = set(self.prequantify)
        for step in self.steps:
            out.update(step.quantify)
        return frozenset(out)


def _order_conjuncts(
    supports: Sequence[FrozenSet[int]], quantify: FrozenSet[int]
) -> List[int]:
    """Greedy conjunct order minimising the live quantified-variable set.

    At each step pick the conjunct that retires the most quantified
    variables (variables occurring in no other remaining conjunct) while
    introducing the fewest new ones; ties break toward smaller support and
    then the original index, keeping the order deterministic.
    """
    remaining = list(range(len(supports)))
    # How many *remaining* conjuncts mention each quantified variable.
    mentions: Dict[int, int] = {}
    for support in supports:
        for var in support & quantify:
            mentions[var] = mentions.get(var, 0) + 1
    active: set = set()
    order: List[int] = []
    while remaining:
        best = None
        best_key = None
        for index in remaining:
            qvars = supports[index] & quantify
            freed = sum(1 for v in qvars if mentions[v] == 1)
            introduced = sum(
                1 for v in qvars if v not in active and mentions[v] > 1
            )
            # Maximise freed, minimise introduced (lexicographic), then the
            # deterministic tie-breakers.
            key = (-freed, introduced, len(supports[index]), index)
            if best_key is None or key < best_key:
                best, best_key = index, key
        order.append(best)
        remaining.remove(best)
        for var in supports[best] & quantify:
            mentions[var] -= 1
            if mentions[var] == 0:
                active.discard(var)
            else:
                active.add(var)
    return order


def early_quantification_schedule(
    supports: Sequence[FrozenSet[int]], quantify: Sequence[int]
) -> Schedule:
    """Compute an early-quantification schedule.

    Parameters
    ----------
    supports:
        Per-conjunct support sets (variable ids).
    quantify:
        The variable ids to quantify out of the overall product.

    Returns a :class:`Schedule` in which every quantified variable appears
    exactly once, placed at the *earliest legal* position: variables no
    conjunct mentions go to ``prequantify``; every other variable is
    quantified at the last scheduled conjunct that mentions it (any earlier
    would change the result, any later would keep it alive needlessly).
    """
    quantify_set = frozenset(quantify)
    order = _order_conjuncts(supports, quantify_set)
    last_step: Dict[int, int] = {}
    for step, index in enumerate(order):
        for var in supports[index] & quantify_set:
            last_step[var] = step
    prequantify = tuple(sorted(quantify_set - set(last_step)))
    groups: List[List[int]] = [[] for _ in order]
    for var, step in last_step.items():
        groups[step].append(var)
    steps = tuple(
        ScheduleStep(conjunct=index, quantify=tuple(sorted(group)))
        for index, group in zip(order, groups)
    )
    return Schedule(prequantify=prequantify, steps=steps)


class TransitionPartition:
    """A conjunctively partitioned transition relation.

    Holds one relation conjunct per latch (``latch#next <-> f(current)``
    for functional circuits, but any conjunction of relations works) and
    lazily computes/caches an early-quantification schedule per distinct
    quantification variable set (one for images, one for preimages, in
    practice).

    Parameters
    ----------
    conjuncts:
        The relation conjuncts, all owned by the same manager.
    labels:
        Optional human-readable name per conjunct (the latch name), used in
        diagnostics and the performance docs.
    """

    def __init__(
        self,
        conjuncts: Sequence[Function],
        labels: Optional[Sequence[str]] = None,
    ):
        if not conjuncts:
            raise ModelError("a transition partition needs at least one conjunct")
        self.conjuncts: List[Function] = list(conjuncts)
        manager = self.conjuncts[0].manager
        for conjunct in self.conjuncts:
            if conjunct.manager is not manager:
                raise ModelError("partition conjuncts span multiple managers")
        self.manager = manager
        if labels is not None and len(labels) != len(self.conjuncts):
            raise ModelError(
                f"{len(labels)} labels for {len(self.conjuncts)} conjuncts"
            )
        self.labels: List[str] = (
            list(labels)
            if labels is not None
            else [f"t{i}" for i in range(len(self.conjuncts))]
        )
        self._supports: List[FrozenSet[int]] = [
            frozenset(conjunct.support()) for conjunct in self.conjuncts
        ]
        self._schedules: Dict[FrozenSet[int], Schedule] = {}
        # Cofactors already computed: (conjunct index, fixed (var, value)
        # pairs of its support) -> cofactor.
        self._cofactors: Dict[Tuple[int, Tuple[Tuple[int, bool], ...]], Function] = {}
        self._mono: Optional[Function] = None

    def __len__(self) -> int:
        return len(self.conjuncts)

    def supports(self) -> List[FrozenSet[int]]:
        """Per-conjunct support sets (variable ids), in conjunct order."""
        return list(self._supports)

    def schedule(self, quantify: Sequence[int]) -> Schedule:
        """The (cached) early-quantification schedule for ``quantify``."""
        key = frozenset(quantify)
        cached = self._schedules.get(key)
        if cached is None:
            cached = early_quantification_schedule(self._supports, key)
            self._schedules[key] = cached
        return cached

    def relprod(self, states: Function, quantify: Sequence[int]) -> Function:
        """``exists quantify . (states & T1 & ... & Tk)`` via the schedule.

        The workhorse behind partitioned :meth:`repro.fsm.fsm.FSM.image`
        and :meth:`~repro.fsm.fsm.FSM.preimage`.
        """
        schedule = self.schedule(quantify)
        if schedule.prequantify:
            states = states.exist(schedule.prequantify)
        steps = [
            (self.conjuncts[step.conjunct], step.quantify)
            for step in schedule.steps
        ]
        return states.and_exists_chain(steps)

    def cofactors(self, assignment: Dict[int, bool]) -> List[Function]:
        """Every conjunct cofactored at the variables of ``assignment`` it
        mentions (read from the cached supports), in conjunct order.

        Their conjunction is the whole relation's cofactor at
        ``assignment``; a conjunct that mentions none of the variables is
        returned unchanged.  Cofactors are memoised per conjunct and fixed
        values: a trace fixes the next-state variables at every step, and
        a per-latch conjunct mentions one of them, so it has at most two
        cofactors however long the trace.
        """
        memo = self._cofactors
        out: List[Function] = []
        for index, (conjunct, support) in enumerate(zip(self.conjuncts, self._supports)):
            fixed = tuple((var, assignment[var]) for var in support if var in assignment)
            cofactor = memo.get((index, fixed))
            if cofactor is None:
                cofactor = conjunct.cofactor(dict(fixed))
                memo[(index, fixed)] = cofactor
            out.append(cofactor)
        return out

    def monolithic(self) -> Function:
        """The conjunction of all conjuncts (cached).

        Building this is exactly the cost partitioning avoids; it exists
        for mono-mode execution, cross-checks, and size diagnostics.
        """
        if self._mono is None:
            out = Function.true(self.manager)
            for conjunct in self.conjuncts:
                out = out & conjunct
            self._mono = out
        return self._mono

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = sum(c.size() for c in self.conjuncts)
        return (
            f"<TransitionPartition conjuncts={len(self.conjuncts)} "
            f"total_nodes={sizes}>"
        )
