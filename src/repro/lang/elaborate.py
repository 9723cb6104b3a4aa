"""Elaboration: lower a parsed :class:`~repro.lang.ast.Module` to an FSM.

The elaborator drives the existing :class:`~repro.fsm.builder.CircuitBuilder`
exactly the way the hand-written circuits in :mod:`repro.circuits` do:

* a variable with a ``next()`` assignment becomes a latch (words become
  per-bit latch banks via :meth:`CircuitBuilder.word_latch`); one without
  becomes a free input;
* word-valued right-hand sides are lowered to per-bit expressions with the
  RTL builders of :mod:`repro.expr.arith` (``count + 1`` becomes a
  ripple-carry increment, ``case`` blocks become per-bit mux trees);
* ``DEFINE`` bodies become combinational signals; word sums
  (``total := hi + lo``) expand to a carry chain plus a word alias;
* ``FAIRNESS``/``SPEC``/``OBSERVED``/``DONTCARE`` pass through with their
  names validated.

Every validation failure raises a :class:`~repro.errors.ParseError` carrying
the declaration's source line/column, so errors from ``.rml`` files point at
the offending text rather than at library internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from ..ctl.ast import CtlFormula, formula_atoms
from ..errors import ParseError
from ..expr.arith import add_const_bits, add_words_bits, const_bits, mux
from ..expr.ast import FALSE_EXPR, Const, Expr, Var
from .ast import (
    Case,
    DefineDecl,
    Module,
    NextAssign,
    VarDecl,
    WordConst,
    WordExpr,
    WordOffset,
    WordRef,
    WordSum,
)

if TYPE_CHECKING:
    from ..engine import EngineConfig
    from ..fsm.fsm import FSM

__all__ = ["ElaboratedModel", "elaborate"]


@dataclass
class ElaboratedModel:
    """The executable form of a module: FSM plus coverage inputs."""

    module: Module
    fsm: FSM
    specs: List[CtlFormula] = field(default_factory=list)
    observed: List[str] = field(default_factory=list)
    dont_care: Optional[Expr] = None


class _Elaborator:
    def __init__(
        self,
        module: Module,
        config: Optional[EngineConfig] = None,
    ):
        self.module = module
        self.config = config
        self.filename = module.filename or "<module>"
        #: word name -> LSB-first bit names (vars and word-sum defines)
        self.word_bits: Dict[str, List[str]] = {}
        self.known: set = set()

    def err(self, message: str, line: int = 0, column: int = 0) -> ParseError:
        location = self.filename
        if line:
            location += f":{line}:{column}"
        return ParseError(
            f"{location}: {message}",
            line=line or None,
            column=column or None,
            filename=self.module.filename,
        )

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------

    def build_symbol_tables(self) -> None:
        module = self.module
        for var in module.vars:
            if var.is_word:
                self.word_bits[var.name] = [
                    f"{var.name}{i}" for i in range(var.width)
                ]
        for define in module.defines:
            if isinstance(define.value, WordSum):
                for operand in (define.value.lhs, define.value.rhs):
                    if operand not in self.word_bits:
                        raise self.err(
                            f"word sum operand {operand!r} is not a known "
                            f"word (sums may only add words declared above)",
                            define.line,
                            define.column,
                        )
                width = max(
                    len(self.word_bits[define.value.lhs]),
                    len(self.word_bits[define.value.rhs]),
                ) + 1
                self.word_bits[define.name] = [
                    f"{define.name}{i}" for i in range(width)
                ]

        toplevel = {v.name for v in module.vars} | {
            d.name for d in module.defines
        }
        for word, bits in self.word_bits.items():
            for bit in bits:
                if bit in toplevel:
                    raise self.err(
                        f"bit {bit!r} of word {word!r} collides with "
                        f"another declaration"
                    )
        self.known = set(toplevel)
        for bits in self.word_bits.values():
            self.known.update(bits)

    def check_expr(self, expr: Expr, what: str, line: int, column: int) -> None:
        for atom in sorted(expr.atoms()):
            if atom not in self.known:
                raise self.err(
                    f"unknown signal {atom!r} in {what}", line, column
                )

    # ------------------------------------------------------------------
    # Value lowering
    # ------------------------------------------------------------------

    def word_value_bits(
        self, value: WordExpr, var: VarDecl, assign: NextAssign
    ) -> List[Expr]:
        """Lower one word-valued RHS to ``var.width`` bit expressions."""
        width = var.width or 1
        where = f"next({var.name})"
        if isinstance(value, WordConst):
            if value.value >= (1 << width):
                raise self.err(
                    f"constant {value.value} out of range for "
                    f"{width}-bit word {var.name!r}",
                    assign.line,
                    assign.column,
                )
            return const_bits(value.value, width)
        if isinstance(value, WordRef):
            bits = self.word_bits.get(value.name)
            if bits is None:
                raise self.err(
                    f"{value.name!r} is not a word in {where}",
                    assign.line,
                    assign.column,
                )
            if len(bits) > width:
                raise self.err(
                    f"word {value.name!r} ({len(bits)} bits) is wider than "
                    f"{var.name!r} ({width} bits)",
                    assign.line,
                    assign.column,
                )
            out: List[Expr] = [Var(bit) for bit in bits]
            out.extend([FALSE_EXPR] * (width - len(bits)))
            return out
        if isinstance(value, WordOffset):
            bits = self.word_bits.get(value.name)
            if bits is None:
                raise self.err(
                    f"{value.name!r} is not a word in {where}",
                    assign.line,
                    assign.column,
                )
            if len(bits) != width:
                raise self.err(
                    f"offset arithmetic needs matching widths: "
                    f"{value.name!r} is {len(bits)} bits, {var.name!r} is "
                    f"{width}",
                    assign.line,
                    assign.column,
                )
            return add_const_bits(bits, value.offset)
        raise self.err(  # WordSum
            f"word sums are only allowed in DEFINE, not in {where}",
            assign.line,
            assign.column,
        )

    def require_exhaustive(self, case: Case, assign: NextAssign) -> None:
        last = case.arms[-1].condition
        if not (isinstance(last, Const) and last.value):
            raise self.err(
                f"case for next({assign.target}) is not exhaustive: the "
                f"last arm's condition must be TRUE",
                assign.line,
                assign.column,
            )

    def lower_word_next(self, var: VarDecl, assign: NextAssign) -> List[Expr]:
        value = assign.value
        if isinstance(value, Case):
            self.require_exhaustive(value, assign)
            for arm in value.arms:
                self.check_expr(
                    arm.condition,
                    f"next({var.name})",
                    assign.line,
                    assign.column,
                )
            lowered = [
                self.word_value_bits(arm.value, var, assign)
                for arm in value.arms
            ]
            width = var.width or 1
            result = lowered[-1]
            for arm, bits in zip(
                reversed(value.arms[:-1]), reversed(lowered[:-1])
            ):
                result = [
                    mux(arm.condition, bits[i], result[i])
                    for i in range(width)
                ]
            return result
        if isinstance(value, WordExpr):
            return self.word_value_bits(value, var, assign)
        raise self.err(
            f"next({var.name}) needs a word value, not a boolean expression",
            assign.line,
            assign.column,
        )

    def lower_bool_next(self, var: VarDecl, assign: NextAssign) -> Expr:
        value = assign.value
        if isinstance(value, Case):
            self.require_exhaustive(value, assign)
            result: Optional[Expr] = None
            for arm in reversed(value.arms):
                self.check_expr(
                    arm.condition,
                    f"next({var.name})",
                    assign.line,
                    assign.column,
                )
                if not isinstance(arm.value, Expr):
                    raise self.err(
                        f"next({var.name}) arms must be boolean expressions",
                        assign.line,
                        assign.column,
                    )
                self.check_expr(
                    arm.value, f"next({var.name})", assign.line, assign.column
                )
                if result is None:
                    result = arm.value
                else:
                    result = mux(arm.condition, arm.value, result)
            assert result is not None
            return result
        if isinstance(value, Expr):
            self.check_expr(
                value, f"next({var.name})", assign.line, assign.column
            )
            return value
        raise self.err(
            f"next({var.name}) needs a boolean expression, not a word value",
            assign.line,
            assign.column,
        )

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def run(self) -> ElaboratedModel:
        # The engine (and through it the BDD layer) is imported only when a
        # module is actually lowered: importing this package must stay cheap
        # and BDD-free so ``repro.lint`` can use the parser alone.
        from ..fsm.builder import CircuitBuilder

        module = self.module
        self.build_symbol_tables()

        nexts: Dict[str, NextAssign] = {a.target: a for a in module.nexts}
        inits: Dict[str, int] = {}
        for init in module.inits:
            if init.target not in nexts:
                raise self.err(
                    f"init({init.target}) assigned but {init.target!r} has "
                    f"no next() — free inputs take no reset value",
                    init.line,
                    init.column,
                )
            inits[init.target] = init.value

        builder = CircuitBuilder(module.name)
        for var in module.vars:
            assign = nexts.get(var.name)
            if assign is None:
                if var.is_word:
                    builder.word_input(var.name, var.width)
                else:
                    builder.input(var.name)
            elif var.is_word:
                builder.word_latch(
                    var.name,
                    var.width,
                    inits.get(var.name, 0),
                    self.lower_word_next(var, assign),
                )
            else:
                builder.latch(
                    var.name,
                    bool(inits.get(var.name, 0)),
                    self.lower_bool_next(var, assign),
                )

        for define in module.defines:
            self.elaborate_define(builder, define)

        for fairness in module.fairness:
            self.check_expr(
                fairness.expr, "FAIRNESS", fairness.line, fairness.column
            )
            builder.fairness(fairness.expr)

        declared = builder.declared_signals()
        for name in module.observed:
            if name not in declared:
                raise self.err(f"unknown OBSERVED signal {name!r}")
        if module.dont_care is not None:
            self.check_expr(module.dont_care, "DONTCARE", 0, 0)

        specs: List[CtlFormula] = []
        for spec in module.specs:
            for atom in sorted(formula_atoms(spec.formula)):
                if atom not in self.known:
                    raise self.err(
                        f"unknown signal {atom!r} in SPEC",
                        spec.line,
                        spec.column,
                    )
            specs.append(spec.formula)

        return ElaboratedModel(
            module=module,
            fsm=builder.build(config=self.config),
            specs=specs,
            observed=list(module.observed),
            dont_care=module.dont_care,
        )

    def elaborate_define(
        self, builder: CircuitBuilder, define: DefineDecl
    ) -> None:
        value: Union[Expr, WordSum] = define.value
        if isinstance(value, WordSum):
            bits = add_words_bits(
                self.word_bits[value.lhs], self.word_bits[value.rhs]
            )
            names = self.word_bits[define.name]
            for bit_name, bit_expr in zip(names, bits):
                builder.define(bit_name, bit_expr)
            builder.word(define.name, names)
        else:
            self.check_expr(
                value, f"define {define.name!r}", define.line, define.column
            )
            builder.define(define.name, value)


def elaborate(
    module: Module,
    *,
    config: Optional[EngineConfig] = None,
) -> ElaboratedModel:
    """Lower ``module`` to an :class:`ElaboratedModel` (FSM + properties).

    ``config`` (an :class:`~repro.engine.EngineConfig`) carries the engine
    knobs: the FSM's transition-relation mode — ``"partitioned"`` (default,
    per-latch conjuncts with early quantification) or ``"mono"`` (one
    relation BDD) — and the resource thresholds compiled into the BDD
    manager's policy (see :meth:`~repro.fsm.builder.CircuitBuilder.build`).

    Raises :class:`~repro.errors.ParseError` with source location on any
    validation failure (unknown signals, width mismatches, non-exhaustive
    cases, init on a free input, ...).
    """
    return _Elaborator(module, config=config).run()
