"""Deep nesting is a parse error, at every entry point.

The shared climbing core builds trees at most ``MAX_DEPTH`` levels deep:
parentheses, prefix operators, the right-associative ``->`` and chains that
grow from the left each add a level.  Past the bound it raises a
``ParseError`` at the token that would go deeper, so a 10,000-deep body is
an ordinary syntax error for ``parse_expr``, ``parse_ctl`` and
``parse_module``, an ``RML000`` for lint and exit 2 for ``repro run``; a
tree at the bound survives the printer, lint, elaboration and analysis.
"""

import pytest

from repro.analysis import Analysis
from repro.cli import main
from repro.ctl import parse_ctl
from repro.errors import ParseError
from repro.expr import parse_expr
from repro.expr.parser import MAX_DEPTH
from repro.lang import elaborate, module_to_str, parse_module
from repro.lint import lint_source

DEEP = 10_000


def paren(n):
    return "(" * n + "a" + ")" * n


def prefix(op):
    return lambda n: f"{op} " * n + "a"


def chain(op):
    return lambda n: f" {op} ".join(["a"] * (n + 1))


#: Shape -> (builder of an n-level body, the token that opens each level).
EXPR_SHAPES = {
    "parens": (paren, "("),
    "not": (prefix("!"), "!"),
    "implies": (chain("->"), "->"),
    "iff": (chain("<->"), "<->"),
    "xor": (chain("^"), "^"),
    "and-right": (lambda n: "a & (" * n + "a" + ")" * n, "&"),
}
CTL_SHAPES = dict(
    EXPR_SHAPES,
    ax=(prefix("AX"), "AX"),
    until=(lambda n: "A [a U " * n + "a" + "]" * n, "A"),
)


def too_deep(exc, found):
    message = str(exc)
    assert f"nesting deeper than {MAX_DEPTH} levels" in message
    assert f"(found {found!r})" in message


@pytest.mark.parametrize("shape", sorted(EXPR_SHAPES))
def test_parse_expr_rejects_deep_input(shape):
    build, opener = EXPR_SHAPES[shape]
    with pytest.raises(ParseError) as info:
        parse_expr(build(DEEP))
    too_deep(info.value, opener)
    parse_expr(build(MAX_DEPTH if shape != "and-right" else MAX_DEPTH // 2))


@pytest.mark.parametrize("shape", sorted(CTL_SHAPES))
def test_parse_ctl_rejects_deep_input(shape):
    build, opener = CTL_SHAPES[shape]
    with pytest.raises(ParseError) as info:
        parse_ctl(build(DEEP))
    too_deep(info.value, opener)


def test_the_bound_is_exact():
    # A left chain of n binary nodes is n levels deep; each parenthesis
    # pair and prefix adds one more.
    parse_expr(chain("^")(MAX_DEPTH))
    with pytest.raises(ParseError):
        parse_expr(chain("^")(MAX_DEPTH + 1))
    parse_expr("(" * 6 + chain("^")(MAX_DEPTH - 6) + ")" * 6)
    with pytest.raises(ParseError):
        parse_expr("(" * 6 + chain("^")(MAX_DEPTH - 5) + ")" * 6)
    # The deepest part of the tree decides, wherever it sits.
    deep_rhs = "a ^ " + paren(MAX_DEPTH - 1)
    parse_expr(deep_rhs)
    with pytest.raises(ParseError):
        parse_expr(deep_rhs + " ^ a")
    # n-ary nodes that grow from the left add no level.
    parse_expr(" | ".join(["!" * (MAX_DEPTH - 1) + "a"] * 50))


def module_text(body: str, where: str) -> str:
    head = "MODULE deep\nVAR\n  a : boolean;\nASSIGN\n"
    if where == "next":
        return head + f"  next(a) := {body};\nSPEC AG a;\nOBSERVED a;\n"
    if where == "define":
        return head + f"  next(a) := d;\nDEFINE\n  d := {body};\nSPEC AG a;\nOBSERVED a;\n"
    return head + f"  next(a) := !a;\nSPEC AG ({body});\nOBSERVED a;\n"


@pytest.mark.parametrize("where", ["next", "define", "spec"])
@pytest.mark.parametrize("shape", sorted(EXPR_SHAPES))
def test_parse_module_rejects_deep_bodies(shape, where):
    build, opener = EXPR_SHAPES[shape]
    with pytest.raises(ParseError) as info:
        parse_module(module_text(build(DEEP), where), filename="deep.rml")
    too_deep(info.value, opener)
    assert info.value.line is not None and info.value.column is not None


@pytest.mark.parametrize(
    "shape,where",
    [(shape, where) for shape in ("parens", "not", "implies", "xor")
     for where in ("define", "spec")] + [("ax", "spec"), ("until", "spec")],
)
def test_a_tree_at_the_bound_survives_every_pass(shape, where):
    build, _ = CTL_SHAPES[shape]
    text = module_text(build(MAX_DEPTH - 2), where)  # under AG and a paren
    module = parse_module(text)
    # The printer may parenthesise every level (``!(!a)``), so its text
    # can nest deeper than the bound; it must still print.
    module_to_str(module)
    lint_source(text)
    elaborate(module, text=text)
    assert Analysis.from_rml(text).result().status in ("ok", "fail")


def test_a_right_chain_at_the_bound_round_trips():
    module = parse_module(module_text(chain("->")(MAX_DEPTH - 1), "define"))
    assert parse_module(module_to_str(module)) == module


def test_lint_and_run_report_deep_input_as_parse_errors(tmp_path, capsys):
    path = tmp_path / "deep.rml"
    path.write_text(module_text(chain("->")(DEEP), "spec"))
    report = lint_source(path.read_text(), filename=str(path))
    assert [d.code for d in report.diagnostics] == ["RML000"]
    assert main(["run", str(path)]) == 2
    assert "nesting deeper than" in capsys.readouterr().err
