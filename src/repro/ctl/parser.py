"""Parser for CTL formulas, on the expression parser's precedence-climbing
core (:class:`repro.expr.parser._Climber`).

The binary operators, their precedence and associativity are the
expression layer's (``<->``, right-associative ``->``, ``|``/``or``,
``^``/``xor``, ``&``/``and``), building ``Ctl*`` nodes.  The unary level
adds the temporal operators::

    unary := ('!' | 'not') unary
           | ('AX' | 'AG' | 'AF' | 'EX' | 'EG' | 'EF') unary
           | ('A' | 'E') '[' ctl 'U' ctl ']'
           | atom

Temporal keywords are case-sensitive (uppercase), so signals named ``ax``
or ``ag`` remain usable, and ``A``/``E`` not followed by ``[`` are plain
signals.  Atoms are the expression atoms, each wrapped in an
:class:`~repro.ctl.ast.Atom`; after parsing, :func:`~repro.ctl.ast.collapse`
folds maximal propositional subtrees into single atoms.
"""

from __future__ import annotations

from ..expr.parser import _IFF, _NOT, _Climber, _parse_text, _TokenError
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
    collapse,
)

__all__ = ["parse_ctl"]

_UNARY_TEMPORAL = {
    "AX": AX,
    "AG": AG,
    "AF": AF,
    "EX": EX,
    "EG": EG,
    "EF": EF,
}
_UNTIL = {"A": AU, "E": EU}


class _CtlParser(_Climber):
    NODES = (None, CtlIff, CtlImplies, CtlOr, CtlXor, CtlAnd)
    WHAT = "a formula"

    def parse(self) -> CtlFormula:
        return collapse(super().parse())

    def unary(self) -> CtlFormula:
        tokens = self.tokens
        text = tokens[self.index][1]
        if text in _NOT:
            return CtlNot(self.prefixed())
        temporal = _UNARY_TEMPORAL.get(text)
        if temporal is not None:
            return temporal(self.prefixed())
        if text in _UNTIL and tokens[self.index + 1][1] == "[":
            return self.until(_UNTIL[text])
        return self.atom()

    def until(self, node: type) -> CtlFormula:
        depth = self.nest(self.index)
        self.index += 2  # 'A'/'E' and '['
        lhs = self.climb(_IFF)
        height = self.height
        if self.tokens[self.index][1] != "U":
            raise _TokenError("expected 'U' in until operator", self.index)
        self.index += 1
        rhs = self.climb(_IFF)
        self.expect("]")
        self.depth = depth
        self.height = max(height, self.height) + 1
        return node(lhs, rhs)

    def leaf(self, expr) -> CtlFormula:
        return Atom(expr)


def parse_ctl(text: str) -> CtlFormula:
    """Parse ``text`` into a collapsed :class:`~repro.ctl.ast.CtlFormula`.

    >>> str(parse_ctl("AG (!stall -> AX ready)"))
    'AG (!stall -> AX ready)'
    """
    return _parse_text(_CtlParser, text)
