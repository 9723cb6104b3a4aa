"""Coverage reports: percentages, uncovered states, cubes, and summaries.

A :class:`CoverageReport` captures everything the paper's estimator prints
(Section 3, last paragraph): the coverage percentage (Definition 4), the
list of uncovered states, and — via :mod:`repro.coverage.traces` — input
traces leading to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..bdd import Function
from ..ctl.ast import CtlFormula
from ..fsm.fsm import FSM
from ..obs.telemetry import WorkStats

__all__ = ["PropertyCoverage", "CoverageReport"]


@dataclass
class PropertyCoverage:
    """Coverage contribution of a single verified property."""

    formula: CtlFormula
    #: Covered states (within the coverage space) from this property alone.
    covered: Function
    #: Cost of computing this property's covered set.
    stats: WorkStats


@dataclass
class CoverageReport:
    """Result of estimating coverage of a property suite for observed signals.

    Attributes
    ----------
    fsm:
        The machine coverage was computed on.
    observed:
        The observed signal names (multiple signals union their covered
        sets, as in Section 2 of the paper).
    space:
        The coverage space: reachable states, restricted to fair paths when
        fairness constraints exist, minus user don't-cares (Sections 4.2-4.3).
    covered:
        Union of all properties' covered sets, clipped to the space.
    per_property:
        Per-property breakdown (the union of these is ``covered``).
    """

    fsm: FSM
    observed: List[str]
    space: Function
    covered: Function
    per_property: List[PropertyCoverage] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Definition 4
    # ------------------------------------------------------------------

    @property
    def space_count(self) -> int:
        """Number of states in the coverage space."""
        return self.fsm.count_states(self.space)

    @property
    def covered_count(self) -> int:
        """Number of covered states."""
        return self.fsm.count_states(self.covered)

    @property
    def percentage(self) -> float:
        """Definition 4: covered / coverage-space * 100."""
        total = self.space_count
        if total == 0:
            return 100.0
        return 100.0 * self.covered_count / total

    @property
    def uncovered(self) -> Function:
        """The coverage holes: space minus covered."""
        return self.space.diff(self.covered)

    def is_fully_covered(self) -> bool:
        """Whether every state of the space is covered (100%)."""
        return self.uncovered.is_false()

    # ------------------------------------------------------------------
    # Hole inspection
    # ------------------------------------------------------------------

    def uncovered_states(self, limit: int = 32) -> List[Dict[str, bool]]:
        """Up to ``limit`` explicit uncovered states."""
        out: List[Dict[str, bool]] = []
        for state in self.fsm.iter_states(self.uncovered):
            out.append(state)
            if len(out) >= limit:
                break
        return out

    def uncovered_cubes(self, limit: int = 32) -> List[Dict[str, bool]]:
        """Up to ``limit`` cubes (partial assignments) covering the holes.

        Cubes are BDD paths, so each stands for a set of uncovered states —
        a far more readable rendering for wide machines.
        """
        id_to_name = {
            self.fsm.current_ids[v]: v for v in self.fsm.state_vars
        }
        out: List[Dict[str, bool]] = []
        for cube in self.uncovered.iter_cubes():
            out.append({id_to_name[i]: v for i, v in cube.items()})
            if len(out) >= limit:
                break
        return out

    def format_uncovered(self, limit: int = 16) -> str:
        """Human-readable listing of uncovered state cubes."""
        if self.is_fully_covered():
            return "no uncovered states"
        lines = []
        for cube in self.uncovered_cubes(limit):
            lines.append("  " + (self.fsm.format_state(cube) or "<any>"))
        remaining = self.fsm.count_states(self.uncovered)
        lines.insert(0, f"uncovered states ({remaining} of {self.space_count}):")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------

    def total_stats(self) -> WorkStats:
        """Aggregate estimation cost across properties."""
        total = WorkStats()
        for prop in self.per_property:
            total = total + prop.stats
        return total

    def summary(self) -> str:
        """One-paragraph summary in the spirit of the paper's Table 2 rows."""
        signals = ", ".join(self.observed)
        lines = [
            f"coverage of {len(self.per_property)} properties for "
            f"observed signal(s) {signals} on {self.fsm.name!r}:",
            f"  covered {self.covered_count} / {self.space_count} "
            f"reachable states = {self.percentage:.2f}%",
        ]
        stats = self.total_stats()
        lines.append(f"  estimation cost: {stats.format()}")
        if not self.is_fully_covered():
            lines.append(self.format_uncovered(limit=8))
        return "\n".join(lines)
