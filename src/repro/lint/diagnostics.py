"""Diagnostic codes, severities, and the lint report container.

Every analysis in :mod:`repro.lint` emits :class:`Diagnostic` records with
a *stable* code (``RML000`` … ``RML018``): codes are append-only API — a
code is never renumbered or reused, so waiver pragmas, golden tests, and
downstream tooling can rely on them across releases.  The full catalogue
with rationale lives in ``docs/linting.md``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Severity",
    "Diagnostic",
    "CodeInfo",
    "DIAGNOSTIC_CODES",
    "CODE_INDEX",
    "LintReport",
    "LINT_SCHEMA_ID",
]

#: Schema identifier of the JSON document :meth:`LintReport.to_json` emits.
LINT_SCHEMA_ID = "repro-lint/v1"


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so thresholds compare naturally."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def from_name(cls, name: str) -> "Severity":
        """Parse ``"info"`` / ``"warning"`` / ``"error"`` (case-insensitive)."""
        try:
            return cls[name.upper()]
        except KeyError:
            valid = ", ".join(s.name.lower() for s in cls)
            raise ValueError(
                f"unknown severity {name!r} (valid: {valid})"
            ) from None


@dataclass(frozen=True)
class CodeInfo:
    """One registered diagnostic code: identity, default severity, summary."""

    code: str
    name: str
    severity: Severity
    summary: str


#: The shipped catalogue, in code order.  Append-only: never renumber.
DIAGNOSTIC_CODES: Tuple[CodeInfo, ...] = (
    CodeInfo("RML000", "parse-error", Severity.ERROR,
             "the module source does not parse"),
    CodeInfo("RML001", "unknown-name", Severity.ERROR,
             "an expression, property, or OBSERVED list references an "
             "undeclared signal"),
    CodeInfo("RML002", "bit-collision", Severity.ERROR,
             "a declaration collides with the implicit bit name of a word"),
    CodeInfo("RML003", "define-cycle", Severity.ERROR,
             "combinational cycle through DEFINE signals"),
    CodeInfo("RML004", "case-not-exhaustive", Severity.ERROR,
             "the last case arm's condition is not the constant TRUE"),
    CodeInfo("RML005", "width-mismatch", Severity.ERROR,
             "a word value does not fit its target register"),
    CodeInfo("RML006", "constant-compare", Severity.WARNING,
             "a word comparison is constant for every value the word's "
             "width admits"),
    CodeInfo("RML007", "unused-signal", Severity.WARNING,
             "a declared input or DEFINE is never read"),
    CodeInfo("RML008", "write-only-latch", Severity.WARNING,
             "a latch is read only by its own next-state logic and is "
             "not observed"),
    CodeInfo("RML009", "unreachable-arm", Severity.WARNING,
             "a case arm can never be selected"),
    CodeInfo("RML010", "overlapping-arm", Severity.WARNING,
             "a case arm repeats an earlier arm's condition"),
    CodeInfo("RML011", "observed-unmentioned", Severity.WARNING,
             "an OBSERVED signal appears in no property — its coverage "
             "(Definition 1) is structurally zero"),
    CodeInfo("RML012", "latch-outside-coi", Severity.WARNING,
             "a latch lies outside every property's cone of influence"),
    CodeInfo("RML013", "latch-unobservable", Severity.WARNING,
             "a latch cannot reach any OBSERVED signal through the "
             "dependency graph"),
    CodeInfo("RML014", "constant-latch", Severity.WARNING,
             "a latch provably holds its reset value forever"),
    CodeInfo("RML015", "vacuous-antecedent", Severity.WARNING,
             "an implication's antecedent is structurally constant-false"),
    CodeInfo("RML016", "missing-init", Severity.INFO,
             "a latch has no explicit init() and defaults to 0"),
    CodeInfo("RML017", "init-on-input", Severity.ERROR,
             "init() on a variable with no next(): free inputs take no "
             "reset value"),
    CodeInfo("RML018", "no-state", Severity.ERROR,
             "the module declares no state variable"),
)

#: code -> :class:`CodeInfo`, for message construction and validation.
CODE_INDEX: Dict[str, CodeInfo] = {info.code: info for info in DIAGNOSTIC_CODES}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a coded message anchored to a source location.

    ``line``/``column`` are 1-based and 0 when the finding has no usable
    anchor (module-level smells on synthesised modules); renderers print
    such locations as just the file name.
    """

    code: str
    message: str
    file: str = "<module>"
    line: int = 0
    column: int = 0

    def __post_init__(self) -> None:
        if self.code not in CODE_INDEX:
            raise ValueError(f"unregistered diagnostic code {self.code!r}")

    @property
    def info(self) -> CodeInfo:
        return CODE_INDEX[self.code]

    @property
    def severity(self) -> Severity:
        return self.info.severity

    @property
    def name(self) -> str:
        return self.info.name

    def location(self) -> str:
        """``file:line:col`` (or just ``file`` without an anchor)."""
        if self.line:
            return f"{self.file}:{self.line}:{self.column}"
        return self.file

    def format(self) -> str:
        """The canonical one-line rendering."""
        return (
            f"{self.location()}: {self.severity}[{self.code}] {self.message}"
        )

    def sort_key(self) -> Tuple:
        return (self.file, self.line, self.column, self.code, self.message)

    def to_json(self) -> Dict:
        return {
            "code": self.code,
            "name": self.name,
            "severity": str(self.severity),
            "file": self.file,
            "line": self.line,
            "column": self.column,
            "message": self.message,
        }


@dataclass
class LintReport:
    """The outcome of linting one or more modules.

    ``diagnostics`` is sorted by (file, line, column, code) so reports are
    deterministic regardless of rule execution order; ``suppressed``
    counts findings waived by ``-- repro-lint: allow CODE`` pragmas.
    """

    diagnostics: List[Diagnostic] = field(default_factory=list)
    files: List[str] = field(default_factory=list)
    suppressed: int = 0

    def __post_init__(self) -> None:
        self.diagnostics = sorted(self.diagnostics, key=Diagnostic.sort_key)

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity == severity)

    @property
    def errors(self) -> int:
        return self.count(Severity.ERROR)

    @property
    def warnings(self) -> int:
        return self.count(Severity.WARNING)

    @property
    def infos(self) -> int:
        return self.count(Severity.INFO)

    @property
    def clean(self) -> bool:
        """No findings at any severity (suppressed ones don't count)."""
        return not self.diagnostics

    def max_severity(self) -> Optional[Severity]:
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    def at_or_above(self, threshold: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= threshold]

    def codes(self) -> Tuple[str, ...]:
        """The codes present, sorted, with multiplicity."""
        return tuple(sorted(d.code for d in self.diagnostics))

    def merge(self, other: "LintReport") -> "LintReport":
        """A combined report over both inputs' files and findings."""
        return LintReport(
            diagnostics=self.diagnostics + other.diagnostics,
            files=self.files + other.files,
            suppressed=self.suppressed + other.suppressed,
        )

    def to_json(self) -> Dict:
        """The ``repro-lint/v1`` document (see ``docs/linting.md``)."""
        from .._version import __version__

        return {
            "schema": LINT_SCHEMA_ID,
            "generator": f"repro {__version__}",
            "files": list(self.files),
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "totals": {
                "files": len(self.files),
                "diagnostics": len(self.diagnostics),
                "errors": self.errors,
                "warnings": self.warnings,
                "infos": self.infos,
                "suppressed": self.suppressed,
            },
        }
