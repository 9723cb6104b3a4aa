"""The coverage estimation algorithm — the paper's core contribution.

:class:`CoverageEstimator` implements the Table 1 recursion: the covered set
``C(S0, g)`` of an acceptable ACTL formula ``g`` with respect to start states
``S0`` and an observed signal ``q``::

    C(S0, b)          = S0 & depend(b)
    C(S0, b -> f)     = C(S0 & T(b), f)
    C(S0, AX f)       = C(forward(S0), f)
    C(S0, AG f)       = C(reachable(S0), f)
    C(S0, A[f1 U f2]) = C(traverse(S0,f1,f2), f1) | C(firstreached(S0,f2), f2)
    C(S0, f1 & f2)    = C(S0, f1) | C(S0, f2)

The recursion operates on the *original* formula but computes the covered
set of the *observability-transformed* formula (Definition 5) — this is the
paper's Correctness Theorem, validated empirically against the Definition-3
mutation oracle in the test suite.

Satisfaction sets of sub-formulas (``T(f)``) come from a shared
:class:`~repro.mc.checker.ModelChecker`, so results memoised during
verification are reused during estimation (the paper's complexity remark).

Fairness (Section 4.3): when the FSM carries fairness constraints, all
traversal stays within the fair states (every image is clipped) and the
coverage space is the set of states reachable along fair paths.

Don't-cares (Section 4.2): a user-supplied state predicate excluded from
the coverage space before the percentage is computed.

The recursion is dominated by image computations (``forward``,
``reachable``, ``traverse``, ``firstreached``), all of which go through
:meth:`FSM.image`/:meth:`FSM.preimage` and therefore honour the FSM's
transition-relation mode — partitioned machines (the default) never build
the monolithic relation at all.  Mono and partitioned estimation produce
byte-identical reports (asserted by ``tests/fsm/test_trans_equivalence.py``).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

from ..bdd import Function
from ..ctl.actl import normalize_for_coverage
from ..ctl.ast import (
    AG,
    AU,
    AX,
    Atom,
    CtlAnd,
    CtlFormula,
    CtlImplies,
    formula_atoms,
)
from ..errors import CoverageError, VerificationError
from ..expr.ast import Expr
from ..expr.parser import parse_expr
from ..fsm.fsm import FSM
from ..mc.checker import ModelChecker
from .functions import depend, firstreached, restricted_forward, traverse
from .report import CoverageReport, PropertyCoverage

__all__ = ["CoverageEstimator"]

ObservedSpec = Union[str, Sequence[str]]
DontCareSpec = Union[None, str, Expr, Function]


class CoverageEstimator:
    """Computes covered sets and coverage reports for verified properties.

    Parameters
    ----------
    fsm:
        The design under verification.
    checker:
        Optional shared model checker.  Passing the instance used for
        verification reuses its memoised satisfaction sets (recommended);
        by default a fresh checker (honouring the FSM's fairness
        constraints) is created.
    """

    def __init__(self, fsm: FSM, checker: Optional[ModelChecker] = None):
        self.fsm = fsm
        self.checker = checker if checker is not None else ModelChecker(fsm)
        if self.checker.fsm is not fsm:
            raise CoverageError("checker is bound to a different FSM")

    # ------------------------------------------------------------------
    # Fairness plumbing
    # ------------------------------------------------------------------

    def _fair_restrict(self) -> Optional[Function]:
        """The fair-state set when fairness is active, else ``None``."""
        if not self.checker.fairness:
            return None
        return self.checker.fair_states()

    def _fair_reachable(self) -> Function:
        """Reachable states clipped to fair states (all reachable states
        without fairness)."""
        reach = self.fsm.reachable()
        restrict = self._fair_restrict()
        return reach if restrict is None else reach & restrict

    def coverage_space(self, dont_care: DontCareSpec = None) -> Function:
        """Reachable states, clipped to fair paths, minus don't-cares."""
        space = self._fair_reachable()
        dc = self._dont_care_set(dont_care)
        if dc is not None:
            space = space.diff(dc)
        return space

    def _dont_care_set(self, dont_care: DontCareSpec) -> Optional[Function]:
        if dont_care is None:
            return None
        if isinstance(dont_care, Function):
            return dont_care
        if isinstance(dont_care, str):
            dont_care = parse_expr(dont_care)
        if isinstance(dont_care, Expr):
            return self.fsm.symbolize(dont_care)
        raise CoverageError(
            f"don't-care must be an expression or state set, got "
            f"{type(dont_care).__name__}"
        )

    # ------------------------------------------------------------------
    # Table 1 recursion
    # ------------------------------------------------------------------

    def covered_set(
        self,
        formula: CtlFormula,
        observed: ObservedSpec,
        start: Optional[Function] = None,
        verify: bool = True,
    ) -> Function:
        """The covered set of one property for the observed signal(s).

        ``start`` defaults to the initial states (clipped to fair states
        when fairness is active), i.e. the paper's ``C(SI, g)``.

        With multiple observed signals the result is the union of the
        per-signal covered sets (paper Section 2).  ``verify`` first model
        checks the property and raises
        :class:`~repro.errors.VerificationError` if it fails — Definition 3
        only defines coverage for satisfied properties.
        """
        observed_list = self._observed_list(observed)
        normalized = normalize_for_coverage(formula)
        if verify:
            self._ensure_holds(normalized)
        if start is None:
            # Note: the initial set is NOT clipped to fair states here.
            # Propositional formulas are state formulas — their truth at an
            # initial state is fairness-independent, so flipping the observed
            # signal there falsifies the property even if the state lies on
            # no fair path.  Fair-clipping happens where path quantifiers
            # enter (AX/AG/AU), where unfair states satisfy everything
            # vacuously.
            start = self.fsm.init
        out = self.fsm.empty_set()
        for signal in observed_list:
            out = out | self._covered(start, normalized, signal)
        return out

    def _observed_list(self, observed: ObservedSpec) -> List[str]:
        if isinstance(observed, str):
            names: List[str] = [observed]
        else:
            names = list(observed)
        if not names:
            raise CoverageError("at least one observed signal is required")
        expanded: List[str] = []
        for name in names:
            if name in self.fsm.words:
                # A word as observed signal means each of its bits, with the
                # covered sets unioned (Section 2: multiple observed signals).
                expanded.extend(self.fsm.words[name])
            elif name in self.fsm.signals:
                expanded.append(name)
            else:
                raise CoverageError(
                    f"unknown observed signal {name!r} on {self.fsm.name!r}"
                )
        return expanded

    def _mentions(self, formula: CtlFormula, observed: str) -> bool:
        """Whether the formula mentions ``observed`` directly or via a word."""
        names = formula_atoms(formula)
        if observed in names:
            return True
        return any(
            observed in self.fsm.words.get(name, ()) for name in names
        )

    def _ensure_holds(self, formula: CtlFormula) -> None:
        if not self.checker.holds(formula):
            raise VerificationError(
                f"cannot estimate coverage: property fails on "
                f"{self.fsm.name!r}: {formula}"
            )

    def _covered(
        self, start: Function, formula: CtlFormula, observed: str
    ) -> Function:
        if start.is_false():
            return start
        if not self._mentions(formula, observed):
            # No occurrence of q anywhere below: depend() of every atom is
            # empty, so the covered set is empty.  Pure optimisation.
            return self.fsm.empty_set()
        if isinstance(formula, Atom):
            return start & depend(self.fsm, formula.expr, observed)
        if isinstance(formula, CtlImplies):
            antecedent = self.checker.sat(formula.lhs)
            return self._covered(start & antecedent, formula.rhs, observed)
        if isinstance(formula, AX):
            forward = restricted_forward(self.fsm, start, self._fair_restrict())
            return self._covered(forward, formula.operand, observed)
        if isinstance(formula, AG):
            reach = self._restricted_reachable_from(start)
            return self._covered(reach, formula.operand, observed)
        if isinstance(formula, AU):
            t_f1 = self.checker.sat(formula.lhs)
            t_f2 = self.checker.sat(formula.rhs)
            restrict = self._fair_restrict()
            # A[f1 U f2] is vacuously true at states with no fair path, so
            # such start states contribute no until coverage.
            au_start = start if restrict is None else start & restrict
            left_start = traverse(self.fsm, au_start, t_f1, t_f2, restrict)
            right_start = firstreached(self.fsm, au_start, t_f2, restrict)
            return self._covered(left_start, formula.lhs, observed) | self._covered(
                right_start, formula.rhs, observed
            )
        if isinstance(formula, CtlAnd):
            out = self.fsm.empty_set()
            for arg in formula.args:
                out = out | self._covered(start, arg, observed)
            return out
        raise CoverageError(  # pragma: no cover - normalize guarantees subset
            f"formula outside acceptable subset reached the recursion: {formula}"
        )

    def _restricted_reachable_from(self, start: Function) -> Function:
        """States reachable from ``start`` along fair states only: the
        ``reachable(S0)`` of ``C(S0, AG f)`` under Section 4.3's semantics.

        From the initial states this is the FSM's cached reachable set
        clipped to the fair states — the paper's remark about sharing
        fixpoints between verification and estimation, applied to the most
        expensive one.  That is exact: a state on a path into a fair state
        has a fair continuation, so it is itself fair.  Every path from an
        initial state to a reachable fair state therefore stays inside the
        fair states, and the clipped search below would visit exactly
        ``reachable & fair``.
        """
        if start == self.fsm.init:
            return self._fair_reachable()
        restrict = self._fair_restrict()
        if restrict is None:
            return self.fsm.reachable_from(start)
        reached = start & restrict
        frontier = reached
        while not frontier.is_false():
            new = (self.fsm.image(frontier) & restrict).diff(reached)
            reached = reached | new
            frontier = new
        return reached

    # ------------------------------------------------------------------
    # Suite-level estimation (Definition 4 + Section 4 methodology)
    # ------------------------------------------------------------------

    def estimate(
        self,
        properties: Iterable[CtlFormula],
        observed: ObservedSpec,
        dont_care: DontCareSpec = None,
        verify: bool = True,
    ) -> CoverageReport:
        """Estimate coverage of a property suite for the observed signal(s).

        Returns a :class:`~repro.coverage.report.CoverageReport` whose
        percentage is Definition 4 computed over the coverage space
        (fair-reachable states minus don't-cares).  Per-property covered
        sets and costs are recorded for Table 2-style reporting.
        """
        observed_list = self._observed_list(observed)
        space = self.coverage_space(dont_care)
        per_property: List[PropertyCoverage] = []
        total = self.fsm.empty_set()
        for formula in properties:
            with self.fsm.telemetry.span("coverage", property=str(formula)) as span:
                covered = self.covered_set(formula, observed_list, verify=verify)
                covered = covered & space
            per_property.append(
                PropertyCoverage(formula=formula, covered=covered, stats=span.stats)
            )
            total = total | covered
        return CoverageReport(
            fsm=self.fsm,
            observed=observed_list,
            space=space,
            covered=total,
            per_property=per_property,
        )
