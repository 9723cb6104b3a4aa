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

The core builds trees at most :data:`MAX_DEPTH` levels deep, counting
each parenthesis pair, prefix operator and binary node (an n-ary node that
grows from the left adds no level); past that it raises a syntax error at
the token that would go deeper, so deep input is a ``ParseError`` and
every recursive pass over a parsed tree stays inside Python's default
recursion limit.

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
from string import ascii_letters
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

#: Each match is the blanks before one token and the token; a comment
#: (``--`` to the end of the line) or an illegal character comes out as a
#: token too.  ``findall`` yields the pairs without building match objects.
_TOKEN_RE = re.compile(
    r"""(\s*)(
        --[^\n]*
      | 0[xX][0-9a-fA-F]+|0[bB][01]+|\d+
      | [A-Za-z_][A-Za-z0-9_']*
      | <->|->|==|!=|<=|>=|:=|[()\[\]!&|^<>=,;:+\-]
      | \S
    )""",
    re.VERBOSE,
)
#: Token kind by first character, for all but ``-`` and digits outside
#: ASCII, which :func:`_kind` sorts out.
_KINDS = {
    **dict.fromkeys("0123456789", "number"),
    **dict.fromkeys(ascii_letters + "_", "ident"),
    **dict.fromkeys("()[]!&|^<>=,;:+", "op"),
}
#: Tokens only a module may hold.
_MODULE_ONLY = frozenset({":=", ";", ":", "+", "-"})


def _kind(token: str) -> Optional[str]:
    """The kind of a matched token: ``None`` for a comment or an illegal
    character."""
    kind = _KINDS.get(token[0])
    if kind is not None:
        return kind
    if token[0] == "-":
        return None if token[:2] == "--" else "op"
    return "number" if token[0].isdecimal() else None


def _spellings(word: str) -> FrozenSet[str]:
    """Every upper/lower-case spelling of ``word``, so that one dict or set
    lookup matches a keyword case-insensitively."""
    return frozenset(map("".join, product(*({c.lower(), c.upper()} for c in word))))


def _keywords(table: Dict[str, object]) -> Dict[str, object]:
    return {spelling: value for word, value in table.items() for spelling in _spellings(word)}


#: Deepest tree the parsers build.  Far past any hand-written model, and
#: shallow enough that the printer, lint, the elaborator and the checker,
#: which recurse over trees, survive it with frames to spare.
MAX_DEPTH = 256

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
    position = 0
    for blank, token in _TOKEN_RE.findall(text):
        position += len(blank)
        kind = _kind(token)
        if kind is None or token in _MODULE_ONLY:
            raise ParseError(
                f"illegal character {token[0]!r} at position {position}",
                text,
                position,
            )
        tokens.append(Token(kind, token, position))
        position += len(token)
    tokens.append(Token("eof", "", len(text)))
    return tokens


def _parse_number(text: str) -> int:
    # Base 0 reads the 0x/0b prefixes but refuses decimal leading zeros.
    return int(text) if text.isdecimal() else int(text, 0)


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

    ``depth`` counts the levels enclosing the current token and ``height``
    is the height of the subtree parsed last, so ``depth + height`` is how
    deep the tree reaches; both stay within :data:`MAX_DEPTH`.
    """

    #: Node class per precedence level; ``_OR`` and ``_AND`` are n-ary.
    NODES = (None, Iff, Implies, Or, Xor, And)
    #: What an atom position expects, for its error message.
    WHAT = "an expression"

    def __init__(self, tokens, index: int = 0, stop: str = ""):
        self.tokens = tokens
        self.index = index
        self.stop = stop
        self.depth = self.height = 0

    def parse(self):
        self.depth = 0
        node = self.climb(_IFF)
        if self.tokens[self.index][1] != self.stop:
            raise self.error("unexpected trailing input")
        return node

    def nest(self, index: int) -> int:
        """Enter one more level at ``tokens[index]``; the depth to restore."""
        depth = self.depth
        if depth == MAX_DEPTH:
            raise self.too_deep(index)
        self.depth = depth + 1
        return depth

    def too_deep(self, index: int) -> _TokenError:
        return _TokenError(
            f"nesting deeper than {MAX_DEPTH} levels", index, self.tokens[index][1]
        )

    def climb(self, floor: int, lhs=None):
        """An expression whose binary operators bind at ``floor`` or tighter;
        ``lhs`` is its first operand when the caller has parsed it."""
        if lhs is None:
            lhs = self.unary()
        tokens = self.tokens
        prec = _BINARY.get(tokens[self.index][1])
        if prec is None or prec < floor:
            return lhs  # ``self.height`` is already the operand's
        height = self.height
        depth = self.nest(self.index)  # each right operand is one level down
        nodes = self.NODES
        while True:
            at = self.index
            self.index = at + 1
            rhs = self.unary()
            after = _BINARY.get(tokens[self.index][1])
            if after is not None and (after > prec or after == prec == _IMPLIES):
                rhs = self.climb(prec if prec == _IMPLIES else prec + 1, rhs)
                after = _BINARY.get(tokens[self.index][1])
            rhs_height = self.height + 1
            node = nodes[prec]
            nary = prec == _OR or prec == _AND
            if nary and isinstance(lhs, node):  # grows in place: no new level
                lhs = node(lhs.args + (rhs,))
                if rhs_height > height:
                    height = rhs_height
            else:
                lhs = node((lhs, rhs)) if nary else node(lhs, rhs)
                if rhs_height > height:
                    height = rhs_height
                else:  # the left operand went one level down
                    height += 1
                    if depth + height > MAX_DEPTH:
                        raise self.too_deep(at)
            prec = after
            if prec is None or prec < floor:
                self.depth = depth
                self.height = height
                return lhs

    def unary(self):
        if self.tokens[self.index][1] in _NOT:
            return Not(self.prefixed())
        return self.atom()

    def prefixed(self):
        """The operand of the prefix operator at the current token."""
        depth = self.nest(self.index)
        self.index += 1
        operand = self.unary()
        self.depth = depth
        self.height += 1
        return operand

    def atom(self):
        tokens = self.tokens
        index = self.index
        token = tokens[index]
        text = token[1]
        if text == "(":
            depth = self.nest(index)
            self.index = index + 1
            inner = self.climb(_IFF)
            self.expect(")")
            self.depth = depth
            self.height += 1
            return inner
        if token[0] != "ident":
            raise self.error(f"expected {self.WHAT}")
        self.height = 0
        if text in _CONSTS:
            self.index = index + 1
            return self.leaf(Const(_CONSTS[text]))
        op = _CMP_TOKENS.get(tokens[index + 1][1])
        if op is None:
            self.index = index + 1
            return self.leaf(Var(text))
        self.index = index + 2
        kind, rhs = tokens[index + 2][:2]
        if kind == "number":
            rhs = _parse_number(rhs)
        elif kind != "ident":
            raise self.error("expected a number or name on the right of a comparison")
        self.index = index + 3
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

