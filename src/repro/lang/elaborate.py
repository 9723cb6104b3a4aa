"""Elaboration: lower a parsed :class:`~repro.lang.ast.Module` to an FSM.

:func:`elaborate` first runs the validator (:func:`~repro.lang.check.check_module`)
and raises its first finding as a :class:`~repro.errors.ParseError` carrying
the source line/column, so errors from ``.rml`` files point at the offending
text rather than at library internals, and read exactly as ``repro lint``
reports them.  A module the validator accepts is then only lowered, onto a
:class:`~repro.fsm.builder.CircuitBuilder` — the only one the library
constructs: every model it analyses, the paper's circuits in
:mod:`repro.circuits` included, is ``.rml`` text that comes through here:

* a variable with a ``next()`` assignment becomes a latch (words become
  per-bit latch banks via :meth:`CircuitBuilder.word_latch`); one without
  becomes a free input;
* word-valued right-hand sides are lowered to per-bit expressions with the
  RTL builders of :mod:`repro.expr.arith` (``count + 1`` becomes a
  ripple-carry increment, ``case`` blocks become per-bit mux trees), over
  the bit names of the validator's symbol table;
* ``DEFINE`` bodies become combinational signals; word sums
  (``total := hi + lo``) expand to a carry chain plus a word alias;
* ``FAIRNESS``/``SPEC``/``OBSERVED``/``DONTCARE`` pass through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..ctl.ast import CtlFormula
from ..expr.arith import add_const_bits, add_words_bits, const_bits, mux
from ..expr.ast import FALSE_EXPR, Expr, Var
from .ast import Case, Module, WordConst, WordOffset, WordSum
from .check import check_module

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


def _word_bits(value, width: int, words: Dict[str, List[str]]) -> List[Expr]:
    """One word-valued right-hand side as ``width`` bit expressions."""
    if isinstance(value, WordConst):
        return const_bits(value.value, width)
    bits = words[value.name]
    if isinstance(value, WordOffset):
        return add_const_bits(bits, value.offset)
    return [Var(bit) for bit in bits] + [FALSE_EXPR] * (width - len(bits))


def _word_next(value, width: int, words: Dict[str, List[str]]) -> List[Expr]:
    if not isinstance(value, Case):
        return _word_bits(value, width, words)
    lowered = [_word_bits(arm.value, width, words) for arm in value.arms]
    result = lowered[-1]
    for arm, bits in zip(reversed(value.arms[:-1]), reversed(lowered[:-1])):
        result = [mux(arm.condition, bits[i], result[i]) for i in range(width)]
    return result


def _bool_next(value) -> Expr:
    if not isinstance(value, Case):
        return value
    result = value.arms[-1].value
    for arm in reversed(value.arms[:-1]):
        result = mux(arm.condition, arm.value, result)
    return result


def elaborate(
    module: Module,
    *,
    config: Optional[EngineConfig] = None,
    text: Optional[str] = None,
) -> ElaboratedModel:
    """Lower ``module`` to an :class:`ElaboratedModel` (FSM + properties).

    ``config`` (an :class:`~repro.engine.EngineConfig`) carries the engine
    knobs: the FSM's transition-relation mode — ``"partitioned"`` (default,
    per-latch conjuncts with early quantification) or ``"mono"`` (one
    relation BDD) — and the resource thresholds compiled into the BDD
    manager's policy (see :meth:`~repro.fsm.builder.CircuitBuilder.build`).
    ``text``, the module's source, anchors errors on constructs the AST
    carries no position for (``OBSERVED`` names, ``DONTCARE``), as
    ``repro lint`` does.

    Raises :class:`~repro.errors.ParseError` with source location for the
    first finding of :func:`~repro.lang.check.check_module` (unknown
    signals, width mismatches, non-exhaustive cases, init on a free
    input, ...).
    """
    check = check_module(module, text)
    if check.findings:
        raise check.error()
    # The engine (and through it the BDD layer) is imported only when a
    # module is actually lowered: importing this package must stay cheap
    # and BDD-free so ``repro.lint`` can use the parser alone.
    from ..fsm.builder import CircuitBuilder

    words = check.table.word_bits
    nexts = {assign.target: assign.value for assign in module.nexts}
    inits = {init.target: init.value for init in module.inits}
    builder = CircuitBuilder(module.name)
    for var in module.vars:
        value = nexts.get(var.name)
        if value is None:
            if var.is_word:
                builder.word_input(var.name, var.width)
            else:
                builder.input(var.name)
        elif var.is_word:
            builder.word_latch(
                var.name,
                var.width,
                inits.get(var.name, 0),
                _word_next(value, var.width, words),
            )
        else:
            builder.latch(
                var.name, bool(inits.get(var.name, 0)), _bool_next(value)
            )
    for define in module.defines:
        if isinstance(define.value, WordSum):
            names = words[define.name]
            bits = add_words_bits(
                words[define.value.lhs], words[define.value.rhs]
            )
            for bit_name, bit_expr in zip(names, bits):
                builder.define(bit_name, bit_expr)
            builder.word(define.name, names)
        else:
            builder.define(define.name, define.value)
    for fairness in module.fairness:
        builder.fairness(fairness.expr)
    return ElaboratedModel(
        module=module,
        fsm=builder.build(config=config),
        specs=[spec.formula for spec in module.specs],
        observed=list(module.observed),
        dont_care=module.dont_care,
    )
