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
  carries in partitioned mode, with schedules and their clustered chains
  cached per quantification set.  :meth:`TransitionPartition.relprod`
  executes the clustered chain via
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
    "Cluster",
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


@dataclass(frozen=True)
class Cluster:
    """One step of a clustered chain: consecutive schedule steps merged.

    ``conjuncts`` are the merged partition indices in schedule order,
    ``relation`` is their conjunction and ``quantify`` the union of their
    steps' variables.  Quantifying all of them after the last member stays
    legal: a variable placed at a step occurs in no later conjunct.
    """

    conjuncts: Tuple[int, ...]
    relation: Function
    quantify: Tuple[int, ...]


def may_cluster(left: FrozenSet[int], right: FrozenSet[int]) -> bool:
    """Whether two conjuncts with supports ``left`` and ``right`` are
    candidates for one cluster: they share a variable, and every variable
    they share sits above every variable either one owns (ids are levels,
    so above means a smaller id).

    Their product then splits below the shared prefix into two independent
    parts, so conjoining them costs about the prefix, and one chain step
    descends the prefix where two did.
    """
    shared = left & right
    if not shared:
        return False
    owned = (left | right) - shared
    return not owned or max(shared) < min(owned)


def _order_conjuncts(
    supports: Sequence[FrozenSet[int]], quantify: FrozenSet[int]
) -> List[int]:
    """Greedy conjunct order minimising the live quantified-variable set.

    At each step pick the conjunct that retires the most quantified
    variables (variables occurring in no other remaining conjunct) while
    introducing the fewest new ones; ties break toward smaller support and
    then the original index, keeping the order deterministic.

    A variable adds the same amount to the score of every remaining
    conjunct that mentions it: one "freed" when that conjunct is its last
    mention, one "introduced" while it is not yet live and more than one
    conjunct mentions it.  So each conjunct keeps its two sums, and a pick
    updates only the users of a variable whose contribution changed.
    """
    qvars = [support & quantify for support in supports]
    users: Dict[int, List[int]] = {}
    for index, variables in enumerate(qvars):
        for var in variables:
            users.setdefault(var, []).append(index)
    # How many *remaining* conjuncts mention each quantified variable.
    mentions = {var: len(indices) for var, indices in users.items()}
    active: set = set()

    def contribution(var: int) -> Tuple[int, int]:
        count = mentions[var]
        return (1 if count == 1 else 0,
                1 if count > 1 and var not in active else 0)

    freed = [0] * len(supports)
    introduced = [0] * len(supports)
    for var, indices in users.items():
        var_freed, var_introduced = contribution(var)
        for index in indices:
            freed[index] += var_freed
            introduced[index] += var_introduced
    remaining = set(range(len(supports)))
    order: List[int] = []
    while remaining:
        # Maximise freed, minimise introduced (lexicographic), then the
        # deterministic tie-breakers.
        best = min(
            remaining,
            key=lambda i: (-freed[i], introduced[i], len(supports[i]), i),
        )
        order.append(best)
        remaining.remove(best)
        for var in qvars[best]:
            before = contribution(var)
            mentions[var] -= 1
            if mentions[var] == 0:
                active.discard(var)
            else:
                active.add(var)
            after = contribution(var)
            if after == before:
                continue
            for index in users[var]:
                if index in remaining:
                    freed[index] += after[0] - before[0]
                    introduced[index] += after[1] - before[1]
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
        # The clustered chain of each cached schedule, same keys.  Its
        # relations are wrappers, so they are GC roots like the cofactors.
        self._chains: Dict[FrozenSet[int], Tuple[Cluster, ...]] = {}
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

    def chain(self, quantify: Sequence[int]) -> Tuple[Cluster, ...]:
        """The (cached) clustered chain of ``schedule(quantify)``.

        Walks the schedule in order and folds the next conjunct into the
        current cluster when :func:`may_cluster` holds for the cluster's
        support and the conjunct's, and their conjunction has no more
        nodes than the two parts.
        """
        key = frozenset(quantify)
        cached = self._chains.get(key)
        if cached is not None:
            return cached
        clusters: List[Cluster] = []
        support: FrozenSet[int] = frozenset()  # of the last cluster
        for step in self.schedule(key).steps:
            conjunct = self.conjuncts[step.conjunct]
            conjunct_support = self._supports[step.conjunct]
            if clusters and may_cluster(support, conjunct_support):
                last = clusters[-1]
                merged = last.relation & conjunct
                if merged.size() <= last.relation.size() + conjunct.size():
                    clusters[-1] = Cluster(
                        last.conjuncts + (step.conjunct,),
                        merged,
                        tuple(sorted(last.quantify + step.quantify)),
                    )
                    support = support | conjunct_support
                    continue
            clusters.append(Cluster((step.conjunct,), conjunct, step.quantify))
            support = conjunct_support
        cached = tuple(clusters)
        self._chains[key] = cached
        return cached

    def relprod(self, states: Function, quantify: Sequence[int]) -> Function:
        """``exists quantify . (states & T1 & ... & Tk)`` via the clustered
        chain of the schedule.

        The workhorse behind partitioned :meth:`repro.fsm.fsm.FSM.image`
        and :meth:`~repro.fsm.fsm.FSM.preimage`.
        """
        schedule = self.schedule(quantify)
        if schedule.prequantify:
            states = states.exist(schedule.prequantify)
        steps = [
            (cluster.relation, cluster.quantify)
            for cluster in self.chain(quantify)
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
