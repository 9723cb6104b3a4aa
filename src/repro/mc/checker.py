"""Symbolic CTL model checking over an :class:`~repro.fsm.fsm.FSM`.

The checker computes satisfaction sets bottom-up with the classic EX/EU/EG
core; universal operators go through duality.  Fairness constraints (paper
Section 4.3) relativise every path quantifier to *fair paths* — paths along
which each constraint holds infinitely often — via the Emerson-Lei fixpoint
for fair ``EG`` and target-strengthening for ``EX``/``EU``.

Satisfaction sets are memoised per formula object; the coverage estimator
shares a checker instance, which implements the paper's remark that results
computed during verification can be reused during coverage estimation
(Section 3, complexity paragraph).

Every path quantifier bottoms out in :meth:`FSM.preimage`, so the checker
transparently inherits the FSM's transition-relation mode: on a
partitioned machine (the default) each ``EX`` step runs the scheduled
early-quantification chain instead of one product against a monolithic
relation BDD — see :mod:`repro.fsm.partition` and ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..bdd import Function
from ..ctl.actl import desugar_af
from ..ctl.ast import (
    AF,
    AG,
    AU,
    AX,
    EF,
    EG,
    EU,
    EX,
    Atom,
    CtlAnd,
    CtlFormula,
    CtlIff,
    CtlImplies,
    CtlNot,
    CtlOr,
    CtlXor,
    collapse,
)
from ..fsm.fsm import FSM
from ..obs.telemetry import WorkStats

__all__ = ["ModelChecker", "CheckResult"]


@dataclass
class CheckResult:
    """Outcome of checking one property.

    Attributes
    ----------
    formula:
        The checked formula.
    holds:
        Whether every initial state satisfies it.
    sat:
        The full satisfaction set (over all states, not just reachable).
    stats:
        Time/BDD work spent on this check.
    counterexample:
        For failing properties: a trace (list of state assignments) from an
        initial state to a violation witness where one can be derived (AG
        bodies); otherwise a single violating initial state.
    """

    formula: CtlFormula
    holds: bool
    sat: Function
    stats: WorkStats
    counterexample: Optional[List[Dict[str, bool]]] = None


class ModelChecker:
    """CTL model checker bound to one FSM.

    Parameters
    ----------
    fsm:
        The machine to check.
    use_fairness:
        Honour the FSM's fairness constraints (default) or ignore them.
    memoize:
        Cache satisfaction sets per (sub)formula.  The coverage estimator
        relies on this cache being shared; disable only for the memoisation
        ablation benchmark.
    """

    def __init__(self, fsm: FSM, use_fairness: bool = True, memoize: bool = True):
        self.fsm = fsm
        self.fairness = list(fsm.fairness) if use_fairness else []
        self.memoize = memoize
        self._sat_cache: Dict[CtlFormula, Function] = {}
        self._norm_cache: Dict[CtlFormula, CtlFormula] = {}
        self._fair_states: Optional[Function] = None

    def _normalized(self, formula: CtlFormula) -> CtlFormula:
        """The canonical cache key: collapsed propositional subtrees, ``AF``
        desugared to ``A[true U .]``.

        This is the same rewrite :func:`~repro.ctl.actl.normalize_for_coverage`
        applies (minus the acceptable-subset validation, which the checker
        does not impose), so satisfaction sets memoised while *verifying*
        ``AF ack`` are found again when the coverage estimator asks for
        ``A[true U ack]`` — the paper's reuse remark would otherwise be lost
        to a hash mismatch between equivalent spellings.
        """
        cached = self._norm_cache.get(formula)
        if cached is None:
            cached = desugar_af(collapse(formula))
            self._norm_cache[formula] = cached
        return cached

    # ------------------------------------------------------------------
    # Fairness machinery
    # ------------------------------------------------------------------

    def fair_states(self) -> Function:
        """States from which some fair path starts (``EG_fair true``).

        Without fairness constraints this is the whole state space.
        """
        if self._fair_states is None:
            if not self.fairness:
                self._fair_states = self.fsm.true_set()
            else:
                self._fair_states = self._eg_fair(self.fsm.true_set())
        return self._fair_states

    def _ex_plain(self, states: Function) -> Function:
        return self.fsm.preimage(states)

    def _eu_plain(self, constraint: Function, target: Function) -> Function:
        reached = target
        frontier = target
        while not frontier.is_false():
            new = (self._ex_plain(frontier) & constraint).diff(reached)
            reached = reached | new
            frontier = new
        return reached

    def _eg_plain(self, states: Function) -> Function:
        current = states
        while True:
            new = states & self._ex_plain(current)
            if new == current:
                return current
            current = new

    def _eg_fair(self, states: Function) -> Function:
        """Emerson-Lei: ``EG_fair p = nu Z. p & AND_i EX E[p U Z & p & c_i]``."""
        current = states
        while True:
            new = states
            for constraint in self.fairness:
                target = current & states & constraint
                new = new & self._ex_plain(self._eu_plain(states, target))
            if new == current:
                return current
            current = new

    # ------------------------------------------------------------------
    # Fair path quantifiers (the checker's EX/EU/EG)
    # ------------------------------------------------------------------

    def _ex(self, states: Function) -> Function:
        if not self.fairness:
            return self._ex_plain(states)
        return self._ex_plain(states & self.fair_states())

    def _eu(self, constraint: Function, target: Function) -> Function:
        if not self.fairness:
            return self._eu_plain(constraint, target)
        return self._eu_plain(constraint, target & self.fair_states())

    def _eg(self, states: Function) -> Function:
        if not self.fairness:
            return self._eg_plain(states)
        return self._eg_fair(states)

    # ------------------------------------------------------------------
    # Satisfaction sets
    # ------------------------------------------------------------------

    def sat(self, formula: CtlFormula) -> Function:
        """The set of states satisfying ``formula`` (fair semantics).

        Memoised on the *normalized* formula, so syntactically different but
        equivalent spellings (``AF ack`` vs ``A[true U ack]``, re-parsed vs
        collapsed propositional subtrees) share one cache entry.
        """
        formula = self._normalized(formula)
        if self.memoize:
            cached = self._sat_cache.get(formula)
            if cached is not None:
                return cached
        result = self._sat_rec(formula)
        if self.memoize:
            self._sat_cache[formula] = result
        return result

    def _sat_rec(self, f: CtlFormula) -> Function:
        fsm = self.fsm
        if isinstance(f, Atom):
            return fsm.symbolize(f.expr)
        if isinstance(f, CtlNot):
            return ~self.sat(f.operand)
        if isinstance(f, CtlAnd):
            out = fsm.true_set()
            for arg in f.args:
                out = out & self.sat(arg)
            return out
        if isinstance(f, CtlOr):
            out = fsm.empty_set()
            for arg in f.args:
                out = out | self.sat(arg)
            return out
        if isinstance(f, CtlImplies):
            return self.sat(f.lhs).implies(self.sat(f.rhs))
        if isinstance(f, CtlIff):
            return self.sat(f.lhs).iff(self.sat(f.rhs))
        if isinstance(f, CtlXor):
            return self.sat(f.lhs) ^ self.sat(f.rhs)
        if isinstance(f, EX):
            return self._ex(self.sat(f.operand))
        if isinstance(f, EF):
            return self._eu(fsm.true_set(), self.sat(f.operand))
        if isinstance(f, EU):
            return self._eu(self.sat(f.lhs), self.sat(f.rhs))
        if isinstance(f, EG):
            return self._eg(self.sat(f.operand))
        if isinstance(f, AX):
            return ~self._ex(~self.sat(f.operand))
        if isinstance(f, AG):
            return ~self._eu(fsm.true_set(), ~self.sat(f.operand))
        if isinstance(f, AF):
            return ~self._eg(~self.sat(f.operand))
        if isinstance(f, AU):
            p = self.sat(f.lhs)
            q = self.sat(f.rhs)
            not_q = ~q
            # A[p U q] = !( E[!q U (!p & !q)] | EG !q )
            return ~(self._eu(not_q, ~p & not_q) | self._eg(not_q))
        raise TypeError(f"unknown CTL node {type(f).__name__}")

    # ------------------------------------------------------------------
    # Top-level checks
    # ------------------------------------------------------------------

    def holds(self, formula: CtlFormula) -> bool:
        """Whether every initial state satisfies ``formula`` — ``M, SI |= f``."""
        return self.fsm.init.subseteq(self.sat(formula))

    def check(self, formula: CtlFormula) -> CheckResult:
        """Check ``formula``, measuring cost and deriving a counterexample."""
        with self.fsm.telemetry.span("verify", property=str(formula)) as span:
            sat = self.sat(formula)
            holds = self.fsm.init.subseteq(sat)
            counterexample = None
            if not holds:
                counterexample = self._counterexample(formula, sat)
        return CheckResult(
            formula=formula,
            holds=holds,
            sat=sat,
            stats=span.stats,
            counterexample=counterexample,
        )

    def check_all(self, formulas) -> List[CheckResult]:
        """Check a property suite; memoisation is shared across properties."""
        return [self.check(f) for f in formulas]

    def _counterexample(
        self, formula: CtlFormula, sat: Function
    ) -> List[Dict[str, bool]]:
        """A best-effort failure witness.

        For ``AG f`` the witness is a shortest trace from an initial state to
        a reachable state violating ``f`` — the classic invariant
        counterexample.  For other shapes, the violating initial state is
        reported (a full tree-shaped CTL counterexample is out of scope).
        """
        if isinstance(formula, AG):
            violation = ~self.sat(formula.operand) & self.fsm.reachable()
            trace = self.fsm.shortest_trace(violation)
            if trace is not None:
                return trace
        bad_init = self.fsm.init.diff(sat)
        return [self.fsm._pick(bad_init)]
