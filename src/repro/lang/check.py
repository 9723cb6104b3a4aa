"""Validation: the one decision on which parsed modules elaborate.

:func:`check_module` runs one pass over a :class:`~repro.lang.ast.Module`
AST, with no engine module loaded, and returns every defect that makes
the module impossible to lower as a :class:`Finding`:

* RML001 a reference to an undeclared signal;
* RML002 an implicit word-bit name colliding with a declaration;
* RML003 a combinational cycle through DEFINE signals;
* RML004 a ``case`` whose last arm's condition is not ``TRUE``;
* RML005 a word value that cannot fit or type its target, or a word-sum
  operand that is not a word declared above;
* RML017 an ``init()`` on a variable with no ``next()`` (a free input);
* RML018 a module with no state variable.

:func:`~repro.lang.elaborate.elaborate` raises the first finding, in the
order ``repro lint`` reports them, as a :class:`~repro.errors.ParseError`;
:mod:`repro.lint` reports them all, with its warnings.  So a module has an
error-severity lint finding exactly when ``elaborate()`` rejects it.

Constructs the AST carries no position for (``OBSERVED`` names,
``DONTCARE``, the ``MODULE`` header) are anchored in the source text when
it is given (:func:`locate`), and have no location otherwise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from ..ctl.ast import formula_atoms
from ..errors import ParseError
from ..expr.ast import Const, Expr
from .ast import (
    Case,
    Module,
    WordConst,
    WordExpr,
    WordOffset,
    WordRef,
    WordSum,
)
from .deps import DepGraph, build_deps, define_cycles
from .symbols import SymbolTable

__all__ = ["Finding", "ModuleCheck", "check_module", "locate"]


class Finding(NamedTuple):
    """One defect, its fields ordered as ``repro lint`` sorts a file's
    findings; ``line``/``column`` are 0 when it has no anchor."""

    line: int
    column: int
    code: str
    message: str


@dataclass
class ModuleCheck:
    """What one validation pass learned about a module.

    ``findings`` is sorted; the atom sets are each declaration's names as
    written (``graph.reads`` holds those of every latch and DEFINE), kept
    so later passes do not walk the expressions again.
    """

    module: Module
    table: SymbolTable
    graph: DepGraph
    spec_atoms: Tuple[FrozenSet[str], ...]
    fairness_atoms: Tuple[FrozenSet[str], ...]
    dontcare_atoms: FrozenSet[str]
    findings: List[Finding]

    def error(self) -> ParseError:
        """The first finding as the ``file:line:column: message`` error
        that :func:`~repro.lang.elaborate.elaborate` raises."""
        line, column, _, message = self.findings[0]
        location = self.module.filename or "<module>"
        if line:
            location += f":{line}:{column}"
        return ParseError(
            f"{location}: {message}",
            line=line or None,
            column=column or None,
            filename=self.module.filename,
        )


def locate(
    text: Optional[str], keyword: str, name: Optional[str] = None
) -> Tuple[int, int]:
    """Best-effort anchor in ``text`` for a construct the AST carries no
    position for: the first whole-word occurrence of ``name`` at or after
    the first line that starts with ``keyword`` (the keyword itself when
    ``name`` is omitted or not found); ``(0, 0)`` without text."""
    if text is None:
        return (0, 0)
    lines = text.splitlines()
    start = next(
        (i for i, raw in enumerate(lines)
         if raw.split("--", 1)[0].strip().startswith(keyword)),
        None,
    )
    if start is None:
        return (0, 0)
    if name is not None:
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        for i in range(start, len(lines)):
            match = pattern.search(lines[i].split("--", 1)[0])
            if match is not None:
                return (i + 1, match.start() + 1)
    return (start + 1, lines[start].index(keyword) + 1)


def check_module(module: Module, text: Optional[str] = None) -> ModuleCheck:
    """Validate ``module``; ``text``, its source, anchors the findings on
    ``OBSERVED``, ``DONTCARE`` and the ``MODULE`` header."""
    table = SymbolTable(module)
    graph = build_deps(module, table)
    check = ModuleCheck(
        module=module,
        table=table,
        graph=graph,
        spec_atoms=tuple(formula_atoms(s.formula) for s in module.specs),
        fairness_atoms=tuple(f.expr.atoms() for f in module.fairness),
        dontcare_atoms=(
            module.dont_care.atoms()
            if module.dont_care is not None
            else frozenset()
        ),
        findings=[],
    )
    findings = check.findings
    _unknown_names(check, text)
    _bit_collisions(table, findings)
    _define_cycles(table, graph, findings)
    _case_exhaustive(module, findings)
    _width_mismatches(module, table, findings)
    _init_on_input(module, findings)
    if not module.vars:
        line, column = locate(text, "MODULE")
        findings.append(Finding(
            line, column, "RML018",
            f"module {module.name!r} has no state variables "
            f"(declare at least one VAR)",
        ))
    findings.sort()
    return check


# ----------------------------------------------------------------------
# RML001 / RML002 / RML003: name and structure errors
# ----------------------------------------------------------------------


def _unknown_names(check: ModuleCheck, text: Optional[str]) -> None:
    """RML001: references to names no declaration provides.  Word-sum
    operands are RML005's."""
    module, table, findings = check.module, check.table, check.findings

    def unknown(atoms: Iterable[str], what: str, line: int, column: int):
        for atom in sorted(atoms):
            if table.resolve(atom) is None:
                findings.append(Finding(
                    line, column, "RML001",
                    f"unknown signal {atom!r} in {what}",
                ))

    reads = check.graph.reads
    for assign in module.nexts:
        unknown(
            reads[assign.target], f"next({assign.target})",
            assign.line, assign.column,
        )
    for define in module.defines:
        if not isinstance(define.value, WordSum):
            unknown(
                reads[define.name], f"DEFINE {define.name}",
                define.line, define.column,
            )
    for fairness, atoms in zip(module.fairness, check.fairness_atoms):
        unknown(atoms, "FAIRNESS", fairness.line, fairness.column)
    if any(table.resolve(atom) is None for atom in check.dontcare_atoms):
        unknown(check.dontcare_atoms, "DONTCARE", *locate(text, "DONTCARE"))
    for spec, atoms in zip(module.specs, check.spec_atoms):
        unknown(atoms, "SPEC", spec.line, spec.column)
    for name in module.observed:
        if table.resolve(name) is None:
            line, column = locate(text, "OBSERVED", name)
            findings.append(Finding(
                line, column, "RML001", f"unknown OBSERVED signal {name!r}"
            ))


def _bit_collisions(table: SymbolTable, findings: List[Finding]) -> None:
    """RML002: implicit word-bit names colliding with declarations."""
    seen_bits = {}
    for word in sorted(table.word_bits):
        anchor = table.symbols.get(word)
        line = anchor.line if anchor else 0
        column = anchor.column if anchor else 0
        for bit in table.word_bits[word]:
            if bit in table.symbols:
                findings.append(Finding(
                    line, column, "RML002",
                    f"bit {bit!r} of word {word!r} collides with another "
                    f"declaration",
                ))
            elif bit in seen_bits and seen_bits[bit] != word:
                findings.append(Finding(
                    line, column, "RML002",
                    f"bit {bit!r} of word {word!r} collides with a bit of "
                    f"word {seen_bits[bit]!r}",
                ))
            else:
                seen_bits[bit] = word


def _define_cycles(
    table: SymbolTable, graph: DepGraph, findings: List[Finding]
) -> None:
    """RML003: combinational DEFINE → DEFINE cycles."""
    for cycle in define_cycles(graph, table):
        first = table.symbols[cycle[0]]
        loop = " -> ".join(cycle + [cycle[0]])
        findings.append(Finding(
            first.line, first.column, "RML003",
            f"combinational cycle through DEFINE signals: {loop}",
        ))


# ----------------------------------------------------------------------
# RML004 / RML005: case and width errors
# ----------------------------------------------------------------------


def _case_exhaustive(module: Module, findings: List[Finding]) -> None:
    """RML004: the mandatory ``TRUE`` default arm is missing."""
    for assign in module.nexts:
        value = assign.value
        if not isinstance(value, Case) or not value.arms:
            continue
        last = value.arms[-1].condition
        if not (isinstance(last, Const) and last.value):
            findings.append(Finding(
                assign.line, assign.column, "RML004",
                f"case for next({assign.target}) is not exhaustive: the "
                f"last arm's condition must be TRUE",
            ))


def _word_value_error(
    value, target: str, width: int, table: SymbolTable
) -> Optional[str]:
    """Why ``value`` cannot be the next value of ``width``-bit word
    ``target``, or ``None``."""
    where = f"next({target})"
    if isinstance(value, WordConst):
        if value.value >= (1 << width):
            return (
                f"constant {value.value} out of range for {width}-bit "
                f"word {target!r}"
            )
    elif isinstance(value, (WordRef, WordOffset)):
        if table.resolve(value.name) is None:
            return None  # RML001
        if value.name not in table.word_bits:
            return f"{value.name!r} is not a word in {where}"
        source = table.width_of(value.name)
        if isinstance(value, WordRef) and source > width:
            return (
                f"word {value.name!r} ({source} bits) is wider than "
                f"{target!r} ({width} bits)"
            )
        if isinstance(value, WordOffset) and source != width:
            return (
                f"offset arithmetic needs matching widths: "
                f"{value.name!r} is {source} bits, {target!r} is {width}"
            )
    elif isinstance(value, WordSum):
        return f"word sums are only allowed in DEFINE, not in {where}"
    elif isinstance(value, Expr):
        return f"next({target}) needs a word value, not a boolean expression"
    return None


def _width_mismatches(
    module: Module, table: SymbolTable, findings: List[Finding]
) -> None:
    """RML005: word values that cannot fit (or type) their target, and
    word sums over anything but words declared above."""
    for assign in module.nexts:
        symbol = table.symbols.get(assign.target)
        if symbol is None:
            continue
        value = assign.value
        values = (
            [arm.value for arm in value.arms]
            if isinstance(value, Case)
            else [value]
        )
        for arm_value in values:
            if symbol.is_word:
                message = _word_value_error(
                    arm_value, assign.target, symbol.width, table
                )
            elif isinstance(arm_value, WordExpr):
                message = (
                    f"next({assign.target}) needs a boolean expression, "
                    f"not a word value"
                )
            else:
                message = None
            if message is not None:
                findings.append(Finding(
                    assign.line, assign.column, "RML005", message
                ))
    words_above = {var.name for var in module.vars if var.is_word}
    for define in module.defines:
        if not isinstance(define.value, WordSum):
            continue
        for operand in dict.fromkeys((define.value.lhs, define.value.rhs)):
            if operand not in words_above:
                findings.append(Finding(
                    define.line, define.column, "RML005",
                    f"word sum operand {operand!r} is not a known word "
                    f"(sums may only add words declared above)",
                ))
        words_above.add(define.name)


# ----------------------------------------------------------------------
# RML017: init() on a free input
# ----------------------------------------------------------------------


def _init_on_input(module: Module, findings: List[Finding]) -> None:
    """RML017: a reset value for a variable with no ``next()``."""
    latches = {assign.target for assign in module.nexts}
    for init in module.inits:
        if init.target not in latches:
            findings.append(Finding(
                init.line, init.column, "RML017",
                f"init({init.target}) assigned but {init.target!r} has no "
                f"next() — free inputs take no reset value",
            ))
