"""Precedence-aware pretty-printing for CTL formulas.

Like the expression printer, it round-trips the parser: every formula
:func:`~repro.ctl.parser.parse_ctl` returns prints to text that parses back
to the same formula, no deeper than the formula itself.
"""

from __future__ import annotations

from ..expr.printer import expr_precedence, expr_to_str
from .ast import (
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
)

__all__ = ["ctl_to_str"]

_PREC_IFF = 1
_PREC_IMPLIES = 2
_PREC_OR = 3
_PREC_XOR = 4
_PREC_AND = 5
_PREC_UNARY = 6
_PREC_ATOM = 7

_UNARY_NAMES = {AX: "AX", AG: "AG", AF: "AF", EX: "EX", EG: "EG", EF: "EF"}


def ctl_to_str(formula: CtlFormula) -> str:
    """Render ``formula`` with minimal parentheses (round-trips the parser)."""
    return _render(formula, 0)


def _render(formula: CtlFormula, parent_prec: int) -> str:
    text, prec = _render_prec(formula)
    if prec < parent_prec:
        return f"({text})"
    return text


def _render_prec(formula: CtlFormula):
    if isinstance(formula, Atom):
        # The expression grammar's precedence scale is aligned with the CTL
        # one, so the atom binds exactly as tightly as its own top operator.
        return expr_to_str(formula.expr), expr_precedence(formula.expr)
    if isinstance(formula, CtlNot):
        return f"!{_render(formula.operand, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(formula, CtlAnd):
        return " & ".join(_render(a, _PREC_AND + 1) for a in formula.args), _PREC_AND
    if isinstance(formula, CtlOr):
        return " | ".join(_render(a, _PREC_OR + 1) for a in formula.args), _PREC_OR
    if isinstance(formula, CtlXor):
        return (
            f"{_render(formula.lhs, _PREC_XOR)} ^ {_render(formula.rhs, _PREC_XOR + 1)}",
            _PREC_XOR,
        )
    if isinstance(formula, CtlImplies):
        return (
            f"{_render(formula.lhs, _PREC_IMPLIES + 1)} -> {_render(formula.rhs, _PREC_IMPLIES)}",
            _PREC_IMPLIES,
        )
    if isinstance(formula, CtlIff):
        return (
            f"{_render(formula.lhs, _PREC_IFF)} <-> {_render(formula.rhs, _PREC_IFF + 1)}",
            _PREC_IFF,
        )
    name = _UNARY_NAMES.get(type(formula))
    if name is not None:
        return f"{name} {_render(formula.operand, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(formula, AU):
        return f"A [{_render(formula.lhs, 0)} U {_render(formula.rhs, 0)}]", _PREC_ATOM
    if isinstance(formula, EU):
        return f"E [{_render(formula.lhs, 0)} U {_render(formula.rhs, 0)}]", _PREC_ATOM
    raise TypeError(f"unknown CTL node {type(formula).__name__}")
