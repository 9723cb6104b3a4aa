"""The lint battery: the validator's errors plus the RML006…RML016 warnings.

The error findings (RML001–RML005, RML017, RML018) are the validator's
(:func:`repro.lang.check.check_module`): the same pass decides what
``elaborate()`` rejects, so ``repro lint`` reports an error exactly when
``elaborate()`` would raise, at the same position.  The warning rules here
find models the engine happily accepts but whose verification is
structurally hollow — the paper's "looks done, isn't" failure mode caught
before any BDD work.

Each warning rule is a function over a shared :class:`LintContext` (the
validation pass's symbol table, dependency graph and atom sets, the
constant env, raw source text) appending
:class:`~repro.lint.diagnostics.Diagnostic` records.  Rules are
independent and engine-free: everything is derived from the parsed
module, never from a built BDD model.  Facts several rules share (spec
seeds, mention sets, the property cone) are computed once per module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..ctl.ast import (
    AU,
    EU,
    Atom,
    CtlAnd,
    CtlFormula,
    CtlIff,
    CtlImplies,
    CtlNot,
    CtlOr,
    CtlXor,
    is_propositional,
    to_expr,
)
from ..expr.ast import (
    And,
    Expr,
    Iff,
    Implies,
    Not,
    Or,
    WordCmp,
    Xor,
)
from ..lang.ast import Case, Module, NextAssign
from ..lang.check import ModuleCheck, check_module, locate
from ..lang.deps import DepGraph, resolve_all
from ..lang.symbols import KIND_INPUT, KIND_LATCH, SymbolTable
from .coi import observed_cone, spec_seeds, union_property_cone
from .diagnostics import Diagnostic
from .folding import (
    ConstEnv,
    cmp_constant_by_width,
    constant_env,
    fold_expr,
)

__all__ = ["LintContext", "run_rules"]


@dataclass
class LintContext:
    """Shared state for one module's rule run: the validation pass, the
    constant env, and the facts several rules read, each computed once."""

    check: ModuleCheck
    env: ConstEnv
    filename: str
    text: Optional[str] = None
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: name -> codes already reported for it (cross-rule noise control).
    flagged: Dict[str, Set[str]] = field(default_factory=dict)

    @property
    def module(self) -> Module:
        return self.check.module

    @property
    def table(self) -> SymbolTable:
        return self.check.table

    @property
    def graph(self) -> DepGraph:
        return self.check.graph

    def emit(
        self, code: str, message: str, line: int = 0, column: int = 0,
        about: Optional[str] = None,
    ) -> None:
        self.diagnostics.append(
            Diagnostic(code, message, self.filename, line, column)
        )
        if about is not None:
            self.flagged.setdefault(about, set()).add(code)

    def locate(self, keyword: str, name: Optional[str] = None) -> Tuple[int, int]:
        """Raw-text anchor for constructs the AST carries no position for
        (see :func:`repro.lang.check.locate`)."""
        return locate(self.text, keyword, name)

    def next_of(self, latch: str) -> Optional[NextAssign]:
        for assign in self.module.nexts:
            if assign.target == latch:
                return assign
        return None

    @cached_property
    def spec_seeds(self) -> List[FrozenSet[str]]:
        """Per SPEC, the declared signals it mentions."""
        return spec_seeds(self.check)

    @cached_property
    def read(self) -> FrozenSet[str]:
        """Signals some latch's or DEFINE's logic reads."""
        return frozenset().union(*self.graph.deps.values())

    @cached_property
    def mentioned(self) -> FrozenSet[str]:
        """Signals the properties, fairness, DONTCARE or OBSERVED name."""
        check = self.check
        return frozenset().union(
            *self.spec_seeds,
            *(resolve_all(self.table, a) for a in check.fairness_atoms),
            resolve_all(self.table, check.dontcare_atoms),
            resolve_all(self.table, self.module.observed),
        )

    @cached_property
    def property_cone(self) -> FrozenSet[str]:
        """Everything at least one property can see."""
        return union_property_cone(self.graph, self.spec_seeds)


# ----------------------------------------------------------------------
# Expression walking helpers
# ----------------------------------------------------------------------


def _walk_exprs(expr: Expr):
    """Yield every node of an expression tree, iteratively."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (And, Or)):
            stack.extend(node.args)
        elif isinstance(node, (Xor, Iff, Implies)):
            stack.append(node.lhs)
            stack.append(node.rhs)


def _walk_ctl(formula: CtlFormula):
    """Yield every CTL node, iteratively."""
    stack = [formula]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (CtlNot,)):
            stack.append(node.operand)
        elif isinstance(node, (CtlAnd, CtlOr)):
            stack.extend(node.args)
        elif isinstance(node, (CtlImplies, CtlIff, CtlXor, AU, EU)):
            stack.append(node.lhs)
            stack.append(node.rhs)
        elif hasattr(node, "operand"):  # AX/AG/AF/EX/EG/EF
            stack.append(node.operand)


def _expr_sites(ctx: LintContext):
    """Every propositional expression in the module with its anchor:
    ``(expr, what, line, column)``."""
    for assign in ctx.module.nexts:
        what = f"next({assign.target})"
        value = assign.value
        if isinstance(value, Case):
            for arm in value.arms:
                yield arm.condition, what, assign.line, assign.column
                if isinstance(arm.value, Expr):
                    yield arm.value, what, assign.line, assign.column
        elif isinstance(value, Expr):
            yield value, what, assign.line, assign.column
    for define in ctx.module.defines:
        if isinstance(define.value, Expr):
            yield define.value, f"DEFINE {define.name}", define.line, \
                define.column
    for fairness in ctx.module.fairness:
        yield fairness.expr, "FAIRNESS", fairness.line, fairness.column
    if ctx.module.dont_care is not None:
        line, column = ctx.locate("DONTCARE")
        yield ctx.module.dont_care, "DONTCARE", line, column
    for spec in ctx.module.specs:
        for node in _walk_ctl(spec.formula):
            if isinstance(node, Atom):
                yield node.expr, "SPEC", spec.line, spec.column


# ----------------------------------------------------------------------
# RML006: width-constant comparisons
# ----------------------------------------------------------------------


def rule_constant_compare(ctx: LintContext) -> None:
    """RML006: comparisons decided by the word's width alone."""
    seen: Set[Tuple[int, int, str]] = set()
    for expr, what, line, column in _expr_sites(ctx):
        for node in _walk_exprs(expr):
            if not isinstance(node, WordCmp) or isinstance(node.rhs, str):
                continue
            width = ctx.table.width_of(node.lhs)
            if width is None:
                continue  # RML001 already
            constant = cmp_constant_by_width(node.op, int(node.rhs), width)
            if constant is None:
                continue
            key = (line, column, f"{node.lhs} {node.op} {node.rhs}")
            if key in seen:
                continue
            seen.add(key)
            ctx.emit(
                "RML006",
                f"comparison '{node.lhs} {node.op} {node.rhs}' is always "
                f"{str(constant).lower()}: {node.lhs!r} is only "
                f"{width} bits (max {(1 << width) - 1})",
                line,
                column,
            )


# ----------------------------------------------------------------------
# RML007 / RML008: use-def smells
# ----------------------------------------------------------------------


def rule_unused_signal(ctx: LintContext) -> None:
    """RML007: inputs and DEFINEs nothing ever reads or mentions."""
    for symbol in ctx.table.symbols.values():
        if symbol.kind == KIND_LATCH:
            continue  # latches get the sharper RML008
        if symbol.name in ctx.read or symbol.name in ctx.mentioned:
            continue
        kind = "input" if symbol.kind == KIND_INPUT else "DEFINE"
        ctx.emit(
            "RML007",
            f"{kind} {symbol.name!r} is never read by any logic, "
            f"property, or OBSERVED list",
            symbol.line,
            symbol.column,
            about=symbol.name,
        )


def rule_write_only_latch(ctx: LintContext) -> None:
    """RML008: latches only their own next-state logic ever reads."""
    readers = ctx.graph.readers()
    for symbol in ctx.table.symbols.values():
        if symbol.kind != KIND_LATCH or symbol.name in ctx.mentioned:
            continue
        if readers.get(symbol.name, set()) - {symbol.name}:
            continue
        ctx.emit(
            "RML008",
            f"latch {symbol.name!r} is write-only: nothing outside its own "
            f"next-state logic reads it and no property observes it",
            symbol.line,
            symbol.column,
            about=symbol.name,
        )


# ----------------------------------------------------------------------
# RML009 / RML010: case-arm reachability
# ----------------------------------------------------------------------


def rule_case_arms(ctx: LintContext) -> None:
    """RML009 unreachable arms and RML010 overlapping (duplicate) arms."""
    for assign in ctx.module.nexts:
        value = assign.value
        if not isinstance(value, Case):
            continue
        seen_conditions: List = []
        always_taken = False
        for i, arm in enumerate(value.arms):
            position = f"arm {i + 1} of next({assign.target})"
            duplicate = next(
                (
                    j
                    for j, earlier in enumerate(seen_conditions)
                    if earlier == arm.condition
                ),
                None,
            )
            if duplicate is not None:
                ctx.emit(
                    "RML010",
                    f"{position} repeats the condition of arm "
                    f"{duplicate + 1}; first match wins, so it never fires",
                    assign.line,
                    assign.column,
                )
                seen_conditions.append(arm.condition)
                continue
            seen_conditions.append(arm.condition)
            if always_taken:
                ctx.emit(
                    "RML009",
                    f"{position} is unreachable: an earlier arm's condition "
                    f"is always true",
                    assign.line,
                    assign.column,
                )
                continue
            folded = fold_expr(arm.condition, ctx.table, ctx.env)
            if folded is False:
                ctx.emit(
                    "RML009",
                    f"{position} can never fire: its condition is "
                    f"constant false",
                    assign.line,
                    assign.column,
                )
            elif folded is True and i + 1 < len(value.arms):
                always_taken = True


# ----------------------------------------------------------------------
# RML011 / RML012 / RML013: cone-of-influence coverage smells
# ----------------------------------------------------------------------


def rule_observed_unmentioned(ctx: LintContext) -> None:
    """RML011: an OBSERVED signal outside every property's cone — its
    Definition-1 coverage is structurally zero."""
    if not ctx.module.specs:
        return
    cone = ctx.property_cone
    for observed in ctx.module.observed:
        name = ctx.table.resolve(observed)
        if name is None or name in cone:
            continue
        line, column = ctx.locate("OBSERVED", observed)
        ctx.emit(
            "RML011",
            f"observed signal {observed!r} appears in no property's cone "
            f"of influence: its coverage is structurally zero",
            line,
            column,
            about=name,
        )


def rule_latch_outside_coi(ctx: LintContext) -> None:
    """RML012: a latch no property can see, even indirectly."""
    if not ctx.module.specs:
        return
    cone = ctx.property_cone
    for symbol in ctx.table.symbols.values():
        if symbol.kind != KIND_LATCH or symbol.name in cone:
            continue
        if "RML008" in ctx.flagged.get(symbol.name, set()):
            continue  # write-only already says it sharper
        ctx.emit(
            "RML012",
            f"latch {symbol.name!r} is outside every property's cone of "
            f"influence: no SPEC can depend on it",
            symbol.line,
            symbol.column,
            about=symbol.name,
        )


def rule_latch_unobservable(ctx: LintContext) -> None:
    """RML013: a latch that cannot reach any OBSERVED signal.

    Latches feeding the ``DONTCARE`` predicate are exempt: the don't-care
    set shapes the coverage metric itself, so they are not dead weight
    even when no observed signal depends on them.
    """
    if not ctx.module.observed:
        return
    cone = observed_cone(ctx.check)
    if ctx.module.dont_care is not None:
        dont_care = resolve_all(ctx.table, ctx.check.dontcare_atoms)
        cone = cone | ctx.graph.closure(dont_care)
    for symbol in ctx.table.symbols.values():
        if symbol.kind != KIND_LATCH or symbol.name in cone:
            continue
        if ctx.flagged.get(symbol.name, set()) & {"RML008", "RML012"}:
            continue
        ctx.emit(
            "RML013",
            f"latch {symbol.name!r} cannot influence any OBSERVED signal: "
            f"no coverage metric can ever charge it",
            symbol.line,
            symbol.column,
            about=symbol.name,
        )


# ----------------------------------------------------------------------
# RML014 / RML015: constant propagation smells
# ----------------------------------------------------------------------


def rule_constant_latch(ctx: LintContext) -> None:
    """RML014: latches provably stuck at their reset value."""
    for latch in sorted(ctx.env):
        value = ctx.env[latch]
        assign = ctx.next_of(latch)
        rendered = int(value)
        ctx.emit(
            "RML014",
            f"latch {latch!r} provably holds its reset value "
            f"({rendered}) forever: its next-state logic can never "
            f"change it",
            assign.line if assign else 0,
            assign.column if assign else 0,
            about=latch,
        )


def rule_vacuous_antecedent(ctx: LintContext) -> None:
    """RML015: implications whose antecedent is constant-false."""
    for spec in ctx.module.specs:
        reported: Set[str] = set()

        def report(antecedent: Expr) -> None:
            rendered = str(antecedent)
            if rendered in reported:
                return
            reported.add(rendered)
            ctx.emit(
                "RML015",
                f"antecedent '{rendered}' is constant false: the "
                f"implication holds vacuously",
                spec.line,
                spec.column,
            )

        for node in _walk_ctl(spec.formula):
            if isinstance(node, CtlImplies) and is_propositional(node.lhs):
                antecedent = to_expr(node.lhs)
                if fold_expr(antecedent, ctx.table, ctx.env) is False:
                    report(antecedent)
            elif isinstance(node, Atom):
                for sub in _walk_exprs(node.expr):
                    if isinstance(sub, Implies):
                        if fold_expr(sub.lhs, ctx.table, ctx.env) is False:
                            report(sub.lhs)


# ----------------------------------------------------------------------
# RML016: missing init
# ----------------------------------------------------------------------


def rule_missing_init(ctx: LintContext) -> None:
    """RML016: latches silently defaulting to reset value 0."""
    initialised = {init.target for init in ctx.module.inits}
    for symbol in ctx.table.symbols.values():
        if symbol.kind != KIND_LATCH or symbol.name in initialised:
            continue
        ctx.emit(
            "RML016",
            f"latch {symbol.name!r} has no init() and defaults to 0; "
            f"declare the reset value explicitly",
            symbol.line,
            symbol.column,
            about=symbol.name,
        )


#: The warning rules in execution order.  Order matters only for the
#: ``flagged`` noise suppression (RML008 before RML012 before RML013); the
#: report itself is re-sorted by location.
ALL_RULES = (
    rule_constant_compare,
    rule_unused_signal,
    rule_write_only_latch,
    rule_case_arms,
    rule_observed_unmentioned,
    rule_latch_outside_coi,
    rule_latch_unobservable,
    rule_constant_latch,
    rule_vacuous_antecedent,
    rule_missing_init,
)


def run_rules(
    module: Module,
    filename: str,
    text: Optional[str] = None,
) -> List[Diagnostic]:
    """The validator's errors and the warning battery over one parsed
    module."""
    check = check_module(module, text)
    ctx = LintContext(
        check=check,
        env=constant_env(module, check.table),
        filename=filename,
        text=text,
        diagnostics=[
            Diagnostic(code, message, filename, line, column)
            for line, column, code, message in check.findings
        ],
    )
    for rule in ALL_RULES:
        rule(ctx)
    return ctx.diagnostics
