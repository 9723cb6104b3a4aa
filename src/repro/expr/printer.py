"""Precedence-aware pretty-printing of expressions (round-trips the parser).

Every tree :func:`~repro.expr.parser.parse_expr` returns prints to text that
parses back to the same tree: an ``And``/``Or`` nested under its own kind
keeps its parentheses (the parser only grows a node from the left), while
nested prefixes and left-nested ``^``/``<->`` print without them, so the
reprint is never deeper than the tree.
"""

from __future__ import annotations

from .ast import (
    And,
    Const,
    Expr,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    WordCmp,
    Xor,
)

__all__ = ["expr_to_str", "expr_precedence"]

# Binding strength; higher binds tighter.  Mirrors the parser grammar.
_PREC_IFF = 1
_PREC_IMPLIES = 2
_PREC_OR = 3
_PREC_XOR = 4
_PREC_AND = 5
_PREC_UNARY = 6
_PREC_ATOM = 7


def expr_to_str(expr: Expr) -> str:
    """Render ``expr`` with minimal parentheses."""
    return _render(expr, 0)


def expr_precedence(expr: Expr) -> int:
    """Binding strength of the expression's top-level operator.

    The scale matches the CTL printer's, so embedding a rendered expression
    inside a CTL formula can parenthesise it correctly.
    """
    _, prec = _render_prec(expr)
    return prec


def _render(expr: Expr, parent_prec: int) -> str:
    text, prec = _render_prec(expr)
    if prec < parent_prec:
        return f"({text})"
    return text


def _render_prec(expr: Expr):
    if isinstance(expr, Const):
        return ("true" if expr.value else "false"), _PREC_ATOM
    if isinstance(expr, Var):
        return expr.name, _PREC_ATOM
    if isinstance(expr, WordCmp):
        return f"{expr.lhs} {expr.op} {expr.rhs}", _PREC_ATOM
    if isinstance(expr, Not):
        return f"!{_render(expr.operand, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(expr, And):
        parts = [_render(a, _PREC_AND + 1) for a in expr.args]
        return " & ".join(parts), _PREC_AND
    if isinstance(expr, Or):
        parts = [_render(a, _PREC_OR + 1) for a in expr.args]
        return " | ".join(parts), _PREC_OR
    if isinstance(expr, Xor):
        return (
            f"{_render(expr.lhs, _PREC_XOR)} ^ {_render(expr.rhs, _PREC_XOR + 1)}",
            _PREC_XOR,
        )
    if isinstance(expr, Implies):
        # Right-associative: the rhs may be another implication unwrapped.
        lhs = _render(expr.lhs, _PREC_IMPLIES + 1)
        rhs = _render(expr.rhs, _PREC_IMPLIES)
        return f"{lhs} -> {rhs}", _PREC_IMPLIES
    if isinstance(expr, Iff):
        return (
            f"{_render(expr.lhs, _PREC_IFF)} <-> {_render(expr.rhs, _PREC_IFF + 1)}",
            _PREC_IFF,
        )
    raise TypeError(f"unknown expression node {type(expr).__name__}")
