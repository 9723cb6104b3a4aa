"""Bit-level arithmetic builders for next-state logic.

The ``.rml`` elaborator (:mod:`repro.lang.elaborate`) lowers word-valued
right-hand sides with these helpers: constants, ``word + k`` offsets,
``hi + lo`` word sums and the multiplexers of ``case`` blocks.

All helpers return :class:`~repro.expr.ast.Expr` trees over the given bit
signal names (LSB first) and are purely combinational.
"""

from __future__ import annotations

from typing import List, Sequence

from .ast import FALSE_EXPR, And, Const, Expr, Not, Or, Var, Xor
from .bitvector import int_to_bits

__all__ = [
    "mux",
    "const_bits",
    "add_const_bits",
    "add_words_bits",
]


def mux(select: Expr, when_true: Expr, when_false: Expr) -> Expr:
    """2-way multiplexer: ``select ? when_true : when_false``."""
    return Or((And((select, when_true)), And((Not(select), when_false))))


def const_bits(value: int, width: int) -> List[Expr]:
    """Constant word as a list of constant expressions (LSB first)."""
    return [Const(b) for b in int_to_bits(value, width)]


def add_const_bits(bits: Sequence[str], constant: int) -> List[Expr]:
    """Per-bit expressions for ``word + constant`` (wrapping at 2^width)."""
    width = len(bits)
    addend = int_to_bits(constant % (1 << width), width)
    out: List[Expr] = []
    carry: Expr = FALSE_EXPR
    for name, add_bit in zip(bits, addend):
        b: Expr = Var(name)
        a: Expr = Const(add_bit)
        out.append(Xor(Xor(b, a), carry))
        # carry-out = majority(b, a, carry)
        carry = Or((And((b, a)), And((b, carry)), And((a, carry))))
    return out


def add_words_bits(a_bits: Sequence[str], b_bits: Sequence[str]) -> List[Expr]:
    """Ripple-carry sum of two words, ``max(widths) + 1`` bits (no overflow).

    Shorter words are zero-extended.  Useful for derived signals such as a
    buffer's total occupancy (``total = hi + lo``).
    """
    width = max(len(a_bits), len(b_bits))

    def bit(word: Sequence[str], i: int) -> Expr:
        return Var(word[i]) if i < len(word) else FALSE_EXPR

    out: List[Expr] = []
    carry: Expr = FALSE_EXPR
    for i in range(width):
        a, b = bit(a_bits, i), bit(b_bits, i)
        out.append(Xor(Xor(a, b), carry))
        carry = Or((And((a, b)), And((a, carry)), And((b, carry))))
    out.append(carry)
    return out
