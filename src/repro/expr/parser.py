"""Propositional expressions, and the precedence-climbing core that the CTL
and ``.rml`` module parsers share.

Binary operators, loosest first::

    prec  operator     assoc  node
    1     <->          left   Iff
    2     ->           right  Implies
    3     |   or       left   Or     (n-ary)
    4     ^   xor      left   Xor
    5     &   and      left   And    (n-ary)

``!``/``not`` binds tighter than all of them, and then come the atoms::

    atom  := 'true' | 'false' | '(' expr ')' | name ( cmp rhs )?
    cmp   := '=' | '==' | '!=' | '<' | '<=' | '>' | '>='
    rhs   := number | name

An n-ary node grows only from the left: ``a | b | c`` and ``(a | b) | c``
are one three-way :class:`~repro.expr.ast.Or`, while ``a | (b | c)`` nests.
The word operators and ``true``/``false`` are case-insensitive.
Comparisons produce :class:`~repro.expr.ast.WordCmp` leaves; a bare name is
a :class:`~repro.expr.ast.Var`.  Numbers may be decimal, ``0x...`` or
``0b...``.

One compiled scanner, ``_TOKEN_RE``, reads both expression text and
``.rml`` modules (:mod:`repro.lang.parser`); :func:`tokenize` rejects what
only modules may hold (comments, ``:=``, ``;``, ``:``, ``+``, ``-``).  The
core, :class:`_Climber`, parses a token list in place from a start index up
to the first token whose text is its *stop* (``""``, the end-of-input
token, for a standalone string; ``;`` or ``:`` inside a module), which it
reads as the end of input.  It raises :class:`_TokenError` at a token
index, and each entry point places that in its own coordinates: a
character position here, a line and column in a module.
"""

from __future__ import annotations

import re
from itertools import product
from typing import Dict, FrozenSet, List, NamedTuple, Optional

from ..errors import ParseError
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

__all__ = ["parse_expr", "Token", "tokenize"]

#: Each match is one token, with the blanks before it.  Group numbers are
#: the ``_COMMENT``..``_ILLEGAL`` constants below.
_TOKEN_RE = re.compile(
    r"""\s*(?:
        (--[^\n]*)
      | (0[xX][0-9a-fA-F]+|0[bB][01]+|\d+)
      | ([A-Za-z_][A-Za-z0-9_']*)
      | (<->|->|==|!=|<=|>=|[()\[\]!&|^<>=,])
      | (:=|[;:+\-])
      | (\S)
    )""",
    re.VERBOSE,
)
_COMMENT, _NUMBER, _IDENT, _OP, _PUNCT, _ILLEGAL = range(1, 7)
#: Token kind per group; comments and illegal characters never become tokens.
_KINDS = (None, None, "number", "ident", "op", "op", None)


def _spellings(word: str) -> FrozenSet[str]:
    """Every upper/lower-case spelling of ``word``, so that one dict or set
    lookup matches a keyword case-insensitively."""
    return frozenset(map("".join, product(*({c.lower(), c.upper()} for c in word))))


def _keywords(table: Dict[str, object]) -> Dict[str, object]:
    return {spelling: value for word, value in table.items() for spelling in _spellings(word)}


_IFF, _IMPLIES, _OR, _XOR, _AND = range(1, 6)
#: Binary operator (symbol or any spelling of its word) -> precedence.
_BINARY = {"<->": _IFF, "->": _IMPLIES, "|": _OR, "^": _XOR, "&": _AND,
           **_keywords({"or": _OR, "xor": _XOR, "and": _AND})}
_NOT = frozenset({"!"}) | _spellings("not")
_CONSTS = _keywords({"true": True, "false": False})
_CMP_TOKENS = {"=": "==", "==": "==", "!=": "!=", "<": "<", "<=": "<=",
               ">": ">", ">=": ">="}


class Token(NamedTuple):
    """One lexical token with its source position (for error messages)."""

    kind: str  # 'ident' | 'number' | 'op' | 'eof'
    text: str
    position: int


def tokenize(text: str) -> List[Token]:
    """Tokenise ``text``; raises :class:`ParseError` on illegal characters."""
    tokens: List[Token] = []
    for match in _TOKEN_RE.finditer(text):
        group = match.lastindex
        position = match.start(group)
        if group in (_COMMENT, _PUNCT, _ILLEGAL):
            raise ParseError(
                f"illegal character {text[position]!r} at position {position}",
                text,
                position,
            )
        tokens.append(Token(_KINDS[group], match[group], position))
    tokens.append(Token("eof", "", len(text)))
    return tokens


def _parse_number(text: str) -> int:
    lowered = text.lower()
    if lowered.startswith("0x"):
        return int(text, 16)
    if lowered.startswith("0b"):
        return int(text, 2)
    return int(text, 10)


class _TokenError(Exception):
    """A syntax error at ``tokens[index]``, not yet placed in the source.

    ``found`` is the offending token's text (``"end of input"`` at the
    stop), or ``None`` when the message already names it.
    """

    def __init__(self, message: str, index: int, found: Optional[str] = None):
        super().__init__(message)
        self.message = message
        self.index = index
        self.found = found


class _Climber:
    """Precedence climbing over ``tokens[index:]`` up to the first token
    whose text is ``stop``.

    Tokens are tuples whose first two fields are kind and text.  Neither
    ``""`` nor ``;``/``:`` is part of the grammar, so the loop never moves
    past the stop and needs no bound check.  The CTL parser subclasses it:
    its own ``NODES``, ``WHAT`` and ``leaf``, and temporal operators in
    :meth:`unary`.
    """

    #: Node class per precedence level; ``_OR`` and ``_AND`` are n-ary.
    NODES = (None, Iff, Implies, Or, Xor, And)
    #: What an atom position expects, for its error message.
    WHAT = "an expression"

    def __init__(self, tokens, index: int = 0, stop: str = ""):
        self.tokens = tokens
        self.index = index
        self.stop = stop

    def parse(self):
        node = self.climb(_IFF)
        if self.tokens[self.index][1] != self.stop:
            raise self.error("unexpected trailing input")
        return node

    def climb(self, floor: int):
        """An expression whose binary operators bind at ``floor`` or tighter."""
        lhs = self.unary()
        tokens = self.tokens
        nodes = self.NODES
        while True:
            prec = _BINARY.get(tokens[self.index][1])
            if prec is None or prec < floor:
                return lhs
            self.index += 1
            rhs = self.climb(prec if prec == _IMPLIES else prec + 1)
            node = nodes[prec]
            if prec == _OR or prec == _AND:
                lhs = node(lhs.args + (rhs,)) if isinstance(lhs, node) else node((lhs, rhs))
            else:
                lhs = node(lhs, rhs)

    def unary(self):
        if self.tokens[self.index][1] in _NOT:
            self.index += 1
            return Not(self.unary())
        return self.atom()

    def atom(self):
        tokens = self.tokens
        kind, text = tokens[self.index][:2]
        if text == "(":
            self.index += 1
            inner = self.climb(_IFF)
            self.expect(")")
            return inner
        if kind != "ident":
            raise self.error(f"expected {self.WHAT}")
        self.index += 1
        if text in _CONSTS:
            return self.leaf(Const(_CONSTS[text]))
        op = _CMP_TOKENS.get(tokens[self.index][1])
        if op is None:
            return self.leaf(Var(text))
        self.index += 1
        kind, rhs = tokens[self.index][:2]
        if kind == "number":
            rhs = _parse_number(rhs)
        elif kind != "ident":
            raise self.error("expected a number or name on the right of a comparison")
        self.index += 1
        return self.leaf(WordCmp(op, text, rhs))

    def leaf(self, expr: Expr):
        return expr

    def expect(self, text: str) -> None:
        if self.tokens[self.index][1] != text:
            raise _TokenError(f"expected {text!r} but found {self.found()!r}", self.index)
        self.index += 1

    def found(self) -> str:
        text = self.tokens[self.index][1]
        return "end of input" if text == self.stop else text

    def error(self, message: str) -> _TokenError:
        return _TokenError(message, self.index, self.found())


def _positioned(error: _TokenError, tokens: List[Token], text: str) -> ParseError:
    """``error`` placed at its token's character position in ``text``."""
    position = tokens[error.index].position
    message = f"{error.message} at position {position}"
    if error.found is not None:
        message += f" (found {error.found!r})"
    return ParseError(message, text, position)


def _parse_text(climber: type, text: str):
    tokens = tokenize(text)
    try:
        return climber(tokens).parse()
    except _TokenError as error:
        raise _positioned(error, tokens, text) from None


def parse_expr(text: str) -> Expr:
    """Parse ``text`` into an :class:`~repro.expr.ast.Expr`.

    >>> str(parse_expr("!stall & count < 5"))
    '!stall & count < 5'
    """
    return _parse_text(_Climber, text)

