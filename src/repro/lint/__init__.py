"""Static analysis (lint) over ``.rml`` modules and their CTL properties.

The paper's coverage metric exists because verification can "look done"
while large parts of a design were never exercised; this package finds
the *structural* causes of that gap before any BDD is ever built.  It is
a battery of engine-free analyses over the parsed ASTs of
:mod:`repro.lang` and :mod:`repro.ctl`: every finding of the module
validator (:mod:`repro.lang.check`, the same pass that decides what
``elaborate()`` rejects), then use-def, cone-of-influence analysis
linking latches to observed signals to property atoms, constant-latch
propagation, case-arm reachability, and structural vacuity smells — each
reported as a stable-coded :class:`Diagnostic` with a ``file:line:col``
location.

This package is strictly read-only over ASTs: importing it must not load
:mod:`repro.bdd` (enforced by test), so ``repro lint`` stays cheap enough
to run as a pre-filter on every model a service ever receives.

Quickstart::

    >>> from repro.lint import lint_source
    >>> report = lint_source(
    ...     "MODULE m\\n"
    ...     "VAR x : boolean; y : boolean; z : boolean;\\n"
    ...     "ASSIGN init(x) := 0; next(x) := !x;\\n"
    ...     "ASSIGN init(y) := 0; next(y) := y & x;\\n"
    ...     "SPEC AG (x | y);\\n"
    ...     "OBSERVED x, y, z;\\n",
    ...     filename="m.rml",
    ... )
    >>> [d.code for d in report.diagnostics]
    ['RML014', 'RML011']
    >>> print(report.diagnostics[1].format())
    m.rml:6:16: warning[RML011] observed signal 'z' appears in no \
property's cone of influence: its coverage is structurally zero
"""

from .diagnostics import (
    CODE_INDEX,
    DIAGNOSTIC_CODES,
    LINT_SCHEMA_ID,
    CodeInfo,
    Diagnostic,
    LintReport,
    Severity,
)
from .render import render_json, render_text
from .runner import lint_module, lint_path, lint_source

__all__ = [
    "CODE_INDEX",
    "DIAGNOSTIC_CODES",
    "LINT_SCHEMA_ID",
    "CodeInfo",
    "Diagnostic",
    "LintReport",
    "Severity",
    "lint_module",
    "lint_path",
    "lint_source",
    "render_json",
    "render_text",
]
