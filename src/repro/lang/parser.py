"""One-pass scanner and parser for ``.rml`` modules.

Grammar (SMV-inspired; ``--`` starts a comment running to end of line)::

    module    := 'MODULE' name section*
    section   := 'VAR' vardecl*
               | 'ASSIGN' assign*
               | 'DEFINE' define*
               | 'FAIRNESS' expr ';'
               | 'SPEC' ctl ';'
               | 'OBSERVED' name (',' name)* ';'
               | 'DONTCARE' expr ';'
    vardecl   := name ':' ('boolean' | 'word' '[' number ']') ';'
    assign    := 'init' '(' name ')' ':=' number ';'
               | 'next' '(' name ')' ':=' nextval ';'
    nextval   := 'case' (expr ':' value ';')+ 'esac' | value
    value     := expr                      -- boolean targets
               | number | name (('+'|'-') number)?   -- word targets
    define    := name ':=' (expr | name '+' name) ';'

The module is scanned once, by the expression layer's compiled scanner,
into ``(kind, text, line, column)`` tuples (the fields of
:class:`LangToken`).  Every embedded expression and CTL formula is parsed
where it sits in that list, by the precedence-climbing core shared with
:func:`~repro.expr.parser.parse_expr` and :func:`~repro.ctl.parser.parse_ctl`
(see :mod:`repro.expr.parser`), which reads the first ``;`` (or, for a
``case`` arm's condition, the first ``:``) as the end of input.

Errors carry the file, line and column.  Inside an embedded expression
they are the errors the standalone parsers would report on the same
tokens, minus the character position: a body with no ``;`` before the end
of the file is unterminated, an empty one is missing, module punctuation
inside one (``:=``, ``:``, ``;``, ``+``, ``-``) is an illegal character,
and a syntax error at the stop reads "found 'end of input'", placed just
after the body's last token.

Variables must be declared before their ``init``/``next`` assignments (the
parser needs the target's type to pick the boolean or word value grammar);
``DEFINE`` bodies may forward-reference later defines.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, NamedTuple, Optional, Set, Union

from ..ctl.parser import _CtlParser
from ..errors import ParseError
from ..expr.ast import Expr
from ..expr.parser import (
    _KINDS,
    _TOKEN_RE,
    _Climber,
    _kind,
    _parse_number,
    _TokenError,
)
from ..obs.counters import counter_inc
from .ast import (
    Case,
    CaseArm,
    DefineDecl,
    FairnessDecl,
    InitAssign,
    Module,
    NextAssign,
    SpecDecl,
    VarDecl,
    WordConst,
    WordOffset,
    WordRef,
    WordSum,
)

__all__ = ["parse_module", "load_module", "discover_rml", "tokenize_module", "LangToken"]

#: Keywords opening a module section (case-sensitive, SMV style).
SECTION_KEYWORDS = frozenset(
    ("MODULE", "VAR", "ASSIGN", "DEFINE", "FAIRNESS", "SPEC", "OBSERVED",
     "DONTCARE")
)
#: Module punctuation the expression grammar lacks.
_PUNCTUATION = frozenset((":=", ";", ":", "+", "-"))


class LangToken(NamedTuple):
    """One module-language token with its 1-based source location."""

    kind: str  # 'ident' | 'number' | 'op' | 'eof'
    text: str
    line: int
    column: int


def _scan(text: str, filename: Optional[str]) -> List[tuple]:
    """The module's tokens as plain ``(kind, text, line, column)`` tuples,
    comments dropped, ending with an ``eof`` token."""
    tokens: List[tuple] = []
    append = tokens.append
    lines = text.split("\n")
    kinds = _KINDS  # a local, and _kind only for what it lacks: runs per token
    for line, source in enumerate(lines, 1):
        column = 1
        for blank, token in _TOKEN_RE.findall(source):
            column += len(blank)
            kind = kinds.get(token[0]) or _kind(token)
            if kind is None:
                if token[:2] == "--":
                    break  # a comment runs to the end of the line
                raise ParseError(
                    f"{filename or '<module>'}:{line}:{column}: "
                    f"illegal character {token!r}",
                    text,
                    sum(len(before) + 1 for before in lines[:line - 1]) + column - 1,
                    line=line,
                    column=column,
                    filename=filename,
                )
            append((kind, token, line, column))
            column += len(token)
    append(("eof", "", len(lines), len(lines[-1]) + 1))
    return tokens


def tokenize_module(text: str, filename: Optional[str] = None) -> List[LangToken]:
    """Tokenise a module source; comments and whitespace are dropped."""
    return [LangToken._make(token) for token in _scan(text, filename)]


class _ModuleParser:
    def __init__(self, text: str, filename: Optional[str] = None):
        self.text = text
        self.filename = filename
        self.tokens = _scan(text, filename)
        self.index = 0
        #: declared variable name -> width (None = boolean)
        self.types: dict = {}
        self.defines_seen: Set[str] = set()
        #: targets assigned so far, per 'init' / 'next'
        self.assigned = {"init": set(), "next": set()}
        self.exprs = _Climber(self.tokens)
        self.ctls = _CtlParser(self.tokens)

    # -- token-stream helpers -------------------------------------------
    #
    # Tokens are (kind, text, line, column).  Operator and keyword texts
    # cannot be spelled by a token of another kind, so matching the text
    # alone is enough, and the index only moves past a token whose kind
    # or text was checked, so never past the end-of-input token.

    def peek(self) -> tuple:
        return self.tokens[self.index]

    def accept(self, text: str) -> Optional[tuple]:
        token = self.tokens[self.index]
        if token[1] != text:
            return None
        self.index += 1
        return token

    def expect(self, text: str) -> tuple:
        token = self.tokens[self.index]
        if token[1] != text:
            raise self.error(f"expected {text!r}")
        self.index += 1
        return token

    def expect_ident(self, what: str = "a name") -> tuple:
        token = self.tokens[self.index]
        if token[0] != "ident":
            raise self.error(f"expected {what}")
        self.index += 1
        return token

    def error(self, message: str) -> ParseError:
        token = self.peek()
        return self.located(f"{message} (found {token[1] or 'end of input'!r})", token)

    def located(self, message: str, token: tuple) -> ParseError:
        return self.located_at(message, token[2], token[3])

    def located_at(self, message: str, line: int, column: int) -> ParseError:
        return ParseError(
            f"{self.filename or '<module>'}:{line}:{column}: {message}",
            self.text,
            0,
            line=line,
            column=column,
            filename=self.filename,
        )

    # -- embedded expression / CTL parsing ------------------------------

    def embedded(self, parser: _Climber, stop: str, what: str):
        """Parse the tokens from here up to the first ``stop`` with
        ``parser``, leaving the stop for the caller to consume."""
        start = parser.index = self.index
        parser.stop = stop
        try:
            node = parser.parse()
        except _TokenError as error:
            raise self.misparsed(error, start, stop, what) from None
        self.index = parser.index
        return node

    def misparsed(self, error: _TokenError, start: int, stop: str,
                  what: str) -> ParseError:
        """The error for a body that failed to parse, checked in the order
        a reader meets them: no stop before the end of the file, an empty
        body, module punctuation in it, then the syntax error itself."""
        tokens = self.tokens
        end = start
        while tokens[end][1] != stop:
            if tokens[end][0] == "eof":
                return self.located(
                    f"unterminated {what} (expected {stop!r})", tokens[start]
                )
            end += 1
        if end == start:
            return self.error(f"expected {what}")
        for token in tokens[start:end]:
            if token[1] in _PUNCTUATION:
                return self.located(f"illegal character {token[1][0]!r}", token)
        message = error.message
        if error.found is not None:
            message += f" (found {error.found!r})"
        if error.index < end:
            return self.located(message, tokens[error.index])
        # At the stop: just after the body's last token.
        _, text, line, column = tokens[end - 1]
        return self.located_at(message, line, column + len(text))

    def parse_expr_until(self, stop: str, what: str = "an expression") -> Expr:
        return self.embedded(self.exprs, stop, what)

    # -- module grammar -------------------------------------------------

    def parse(self) -> Module:
        if self.accept("MODULE") is None:
            raise self.error("expected 'MODULE'")
        name = self.expect_ident("a module name")[1]
        vars_: List[VarDecl] = []
        inits: List[InitAssign] = []
        nexts: List[NextAssign] = []
        defines: List[DefineDecl] = []
        fairness: List[FairnessDecl] = []
        specs: List[SpecDecl] = []
        observed: List[str] = []
        dont_care: Optional[Expr] = None
        while True:
            token = self.peek()
            kind, keyword, line, column = token
            if kind == "eof":
                break
            if kind != "ident" or keyword not in SECTION_KEYWORDS:
                raise self.error(
                    "expected a section keyword (VAR, ASSIGN, DEFINE, "
                    "FAIRNESS, SPEC, OBSERVED, DONTCARE)"
                )
            if keyword == "MODULE":
                raise self.error("only one MODULE per file")
            self.index += 1
            if keyword == "VAR":
                vars_.extend(self.parse_var_section())
            elif keyword == "ASSIGN":
                self.parse_assign_section(inits, nexts)
            elif keyword == "DEFINE":
                defines.extend(self.parse_define_section())
            elif keyword == "FAIRNESS":
                expr = self.parse_expr_until(";", "a fairness constraint")
                self.expect(";")
                fairness.append(FairnessDecl(expr, line=line, column=column))
            elif keyword == "SPEC":
                formula = self.embedded(self.ctls, ";", "a property")
                self.expect(";")
                specs.append(SpecDecl(formula, line=line, column=column))
            elif keyword == "OBSERVED":
                while True:
                    observed.append(self.expect_ident("an observed signal name")[1])
                    if not self.accept(","):
                        break
                self.expect(";")
            elif keyword == "DONTCARE":
                if dont_care is not None:
                    raise self.located(
                        "duplicate DONTCARE (combine with '|')", token
                    )
                dont_care = self.parse_expr_until(";", "a don't-care predicate")
                self.expect(";")
        return Module(
            name=name,
            vars=tuple(vars_),
            inits=tuple(inits),
            nexts=tuple(nexts),
            defines=tuple(defines),
            fairness=tuple(fairness),
            specs=tuple(specs),
            observed=tuple(observed),
            dont_care=dont_care,
            filename=self.filename,
        )

    def at_section_end(self) -> bool:
        kind, text = self.peek()[:2]
        return kind == "eof" or (kind == "ident" and text in SECTION_KEYWORDS)

    def parse_var_section(self) -> List[VarDecl]:
        out: List[VarDecl] = []
        while not self.at_section_end():
            name_token = self.expect_ident("a variable name")
            _, name, line, column = name_token
            if name in self.types:
                raise self.located(f"duplicate variable {name!r}", name_token)
            self.expect(":")
            width: Optional[int] = None
            if self.accept("boolean"):
                pass
            elif self.accept("word"):
                self.expect("[")
                width_token = self.peek()
                if width_token[0] != "number":
                    raise self.error("expected a word width")
                self.index += 1
                width = _parse_number(width_token[1])
                if width < 1:
                    raise self.located(
                        f"word width must be >= 1, got {width}", width_token
                    )
                self.expect("]")
            else:
                raise self.error("expected 'boolean' or 'word[N]'")
            self.expect(";")
            self.types[name] = width
            out.append(VarDecl(name, width, line=line, column=column))
        return out

    def parse_assign_section(
        self, inits: List[InitAssign], nexts: List[NextAssign]
    ) -> None:
        while not self.at_section_end():
            kind, keyword, line, column = self.peek()
            if kind != "ident" or keyword not in ("init", "next"):
                raise self.error("expected 'init(...)' or 'next(...)'")
            self.index += 1
            self.expect("(")
            target_token = self.expect_ident("a variable name")
            target = target_token[1]
            if target not in self.types:
                raise self.located(
                    f"undeclared variable {target!r} "
                    f"(declare it in a VAR section first)",
                    target_token,
                )
            self.expect(")")
            self.expect(":=")
            width = self.types[target]
            if target in self.assigned[keyword]:
                raise self.located(
                    f"duplicate {keyword}() for {target!r}", target_token
                )
            self.assigned[keyword].add(target)
            if keyword == "init":
                value = self.parse_init_value(target, width)
                self.expect(";")
                inits.append(InitAssign(target, value, line=line, column=column))
            else:
                value = self.parse_next_value(width)
                self.expect(";")
                nexts.append(NextAssign(target, value, line=line, column=column))

    def parse_init_value(self, target: str, width: Optional[int]) -> int:
        token = self.peek()
        kind, text = token[:2]
        if kind == "number":
            self.index += 1
            value = _parse_number(text)
        elif kind == "ident" and text.lower() in ("true", "false"):
            self.index += 1
            value = 1 if text.lower() == "true" else 0
        else:
            raise self.error("expected a constant init value")
        limit = 1 << (width or 1)
        if value >= limit:
            raise self.located(
                f"init value {value} out of range for {target!r} "
                f"(max {limit - 1})",
                token,
            )
        return value

    def parse_next_value(self, width: Optional[int]):
        if self.accept("case"):
            arms: List[CaseArm] = []
            while not self.accept("esac"):
                if self.peek()[0] == "eof":
                    raise self.error("unterminated case (expected 'esac')")
                condition = self.parse_expr_until(":", "an arm condition")
                self.expect(":")
                value = self.parse_value(width)
                self.expect(";")
                arms.append(CaseArm(condition, value))
            if not arms:
                raise self.error("case needs at least one arm")
            return Case(tuple(arms))
        return self.parse_value(width)

    def parse_value(self, width: Optional[int]) -> Union[Expr, WordConst,
                                                         WordRef, WordOffset]:
        """A case-arm / next() right-hand side for a target of known type."""
        if width is None:
            return self.parse_expr_until(";")
        kind, text = self.peek()[:2]
        if kind == "number":
            self.index += 1
            return WordConst(_parse_number(text))
        if kind == "ident":
            self.index += 1
            sign = self.peek()[1]
            if sign in ("+", "-"):
                self.index += 1
                amount_kind, amount = self.peek()[:2]
                if amount_kind != "number":
                    raise self.error("expected a constant offset")
                self.index += 1
                offset = _parse_number(amount)
                return WordOffset(text, -offset if sign == "-" else offset)
            return WordRef(text)
        raise self.error(
            "expected a word value (constant, word, or word +/- constant)"
        )

    def parse_define_section(self) -> List[DefineDecl]:
        out: List[DefineDecl] = []
        while not self.at_section_end():
            name_token = self.expect_ident("a define name")
            _, name, line, column = name_token
            if name in self.types or name in self.defines_seen:
                raise self.located(f"duplicate signal {name!r}", name_token)
            self.expect(":=")
            value: Union[Expr, WordSum]
            ahead = self.tokens[self.index:self.index + 4]
            if (len(ahead) == 4 and ahead[0][0] == "ident" and ahead[1][1] == "+"
                    and ahead[2][0] == "ident" and ahead[3][1] == ";"):
                value = WordSum(ahead[0][1], ahead[2][1])
                self.index += 3
            else:
                value = self.parse_expr_until(";", "a define body")
            self.expect(";")
            self.defines_seen.add(name)
            out.append(DefineDecl(name, value, line=line, column=column))
        return out


def parse_module(text: str, filename: Optional[str] = None) -> Module:
    """Parse ``.rml`` source text into a :class:`~repro.lang.ast.Module`.

    Raises :class:`~repro.errors.ParseError` with 1-based ``line`` and
    ``column`` attributes (and ``filename`` when given) on any syntax or
    declaration error.

    Every call bumps the process-global ``lang.parse_module`` counter
    (:mod:`repro.obs.counters`) — the serving layer's dedup tests use its
    delta to prove that identical concurrent requests are parsed once.
    """
    counter_inc("lang.parse_module")
    return _ModuleParser(text, filename).parse()


def load_module(path: "str | Path") -> Module:
    """Read and parse one ``.rml`` file."""
    path = Path(path)
    return parse_module(path.read_text(), filename=str(path))


def discover_rml(directory: "str | Path") -> List[Path]:
    """All ``.rml`` files directly under ``directory``, sorted by name."""
    return sorted(Path(directory).glob("*.rml"))
