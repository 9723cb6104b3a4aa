"""Every tree the parsers return reprints to text that parses back to it.

The printers put parentheses where the parser needs them and nowhere
else: an ``And`` nested under an ``And`` keeps them (the parser only grows
an n-ary node from the left), while nested prefixes and left-nested
``^``/``<->`` print bare, so a reprint is never deeper than its tree and
stays inside the parsers' 256-level bound.
"""

from hypothesis import given, settings, strategies as st

from repro.ctl import ctl_to_str, parse_ctl
from repro.expr import expr_to_str, parse_expr
from repro.expr.ast import And, Var

_BINARY = st.sampled_from(["&", "|", "^", "->", "<->", "and", "or"])
_LEAVES = st.sampled_from(["a", "b", "c", "x = 3", "x != y", "y < 2", "true", "FALSE"])


def _expr_layer(children):
    binary = st.builds("{} {} {}".format, children, _BINARY, children)
    return st.one_of(
        binary, st.builds("({})".format, binary), st.builds("!{}".format, children)
    )


def _ctl_layer(children):
    return st.one_of(
        _expr_layer(children),
        st.builds(
            "{} {}".format,
            st.sampled_from(["AX", "AG", "AF", "EX", "EG", "EF"]),
            children,
        ),
        st.builds("{} [{} U {}]".format, st.sampled_from(["A", "E"]), children, children),
    )


EXPR_TEXT = st.recursive(_LEAVES, _expr_layer, max_leaves=12)
CTL_TEXT = st.recursive(_LEAVES, _ctl_layer, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(EXPR_TEXT)
def test_parsed_expressions_reprint_to_the_same_tree(text):
    tree = parse_expr(text)
    assert parse_expr(expr_to_str(tree)) == tree


@settings(max_examples=300, deadline=None)
@given(CTL_TEXT)
def test_parsed_formulas_reprint_to_the_same_tree(text):
    tree = parse_ctl(text)
    assert parse_ctl(ctl_to_str(tree)) == tree


def test_and_nested_under_and_keeps_its_parentheses():
    tree = parse_expr("a & (b & a)")
    assert tree == And((Var("a"), And((Var("b"), Var("a")))))
    assert str(tree) == "a & (b & a)"
    assert parse_expr(str(tree)) == tree


def test_and_nested_in_a_ctl_atom_keeps_its_parentheses():
    tree = parse_ctl("AG (x -> a & (b | c & (d & e)))")
    assert parse_ctl(str(tree)) == tree


def test_deep_prefix_chain_reprints_inside_the_depth_bound():
    tree = parse_expr("!" * 200 + "a")
    assert str(tree) == "!" * 200 + "a"
    assert parse_expr(str(tree)) == tree
    formula = parse_ctl("!AX " * 100 + "a")
    assert parse_ctl(str(formula)) == formula


def test_left_nested_xor_and_iff_print_bare():
    assert str(parse_expr("a ^ b ^ c")) == "a ^ b ^ c"
    assert str(parse_expr("a <-> b <-> c")) == "a <-> b <-> c"
    assert str(parse_expr("a ^ (b ^ c)")) == "a ^ (b ^ c)"
    chain = parse_expr(" ^ ".join(f"v{i}" for i in range(200)))
    assert parse_expr(str(chain)) == chain
    assert str(parse_ctl("AX a ^ AX b ^ AX c")) == "AX a ^ AX b ^ AX c"
