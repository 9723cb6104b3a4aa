"""Property-based tests: the BDD engine against brute-force truth tables.

Strategy: generate random Boolean expression trees over a small variable set,
build them both as BDD nodes and as Python closures, and compare on every
assignment.  This pins down the entire operator surface (including the fused
``and_exists``) against an independent evaluator.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.bdd import FALSE, TRUE, BDDManager

VARS = ["a", "b", "c", "d", "e"]


# An expression is a nested tuple tree:
#   ("var", name) | ("const", bool) | ("not", e) | (op, e1, e2)
def _exprs(depth):
    leaf = st.one_of(
        st.sampled_from([("var", v) for v in VARS]),
        st.sampled_from([("const", True), ("const", False)]),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.just("not"), sub),
        st.tuples(st.sampled_from(["and", "or", "xor", "implies", "iff"]), sub, sub),
    )


EXPR = _exprs(4)


def build_bdd(mgr, expr):
    tag = expr[0]
    if tag == "var":
        return mgr.var(expr[1])
    if tag == "const":
        return TRUE if expr[1] else FALSE
    if tag == "not":
        return mgr.apply_not(build_bdd(mgr, expr[1]))
    lhs = build_bdd(mgr, expr[1])
    rhs = build_bdd(mgr, expr[2])
    op = {
        "and": mgr.apply_and,
        "or": mgr.apply_or,
        "xor": mgr.apply_xor,
        "implies": mgr.apply_implies,
        "iff": mgr.apply_iff,
    }[tag]
    return op(lhs, rhs)


def eval_expr(expr, env):
    tag = expr[0]
    if tag == "var":
        return env[expr[1]]
    if tag == "const":
        return expr[1]
    if tag == "not":
        return not eval_expr(expr[1], env)
    lhs = eval_expr(expr[1], env)
    rhs = eval_expr(expr[2], env)
    return {
        "and": lhs and rhs,
        "or": lhs or rhs,
        "xor": lhs != rhs,
        "implies": (not lhs) or rhs,
        "iff": lhs == rhs,
    }[tag]


def all_envs():
    for bits in itertools.product([False, True], repeat=len(VARS)):
        yield dict(zip(VARS, bits))


@settings(max_examples=150, deadline=None)
@given(EXPR)
def test_bdd_matches_truth_table(expr):
    mgr = BDDManager(VARS)
    node = build_bdd(mgr, expr)
    ids = {v: mgr.var_id(v) for v in VARS}
    for env in all_envs():
        expected = eval_expr(expr, env)
        got = mgr.eval_node(node, {ids[v]: env[v] for v in VARS})
        assert got == expected, f"mismatch at {env}"


@settings(max_examples=100, deadline=None)
@given(EXPR)
def test_satcount_matches_enumeration(expr):
    mgr = BDDManager(VARS)
    node = build_bdd(mgr, expr)
    ids = {v: mgr.var_id(v) for v in VARS}
    expected = sum(
        1
        for env in all_envs()
        if mgr.eval_node(node, {ids[v]: env[v] for v in VARS})
    )
    assert mgr.satcount(node) == expected


@settings(max_examples=100, deadline=None)
@given(EXPR, st.sampled_from(VARS))
def test_exists_is_or_of_cofactors(expr, var):
    mgr = BDDManager(VARS)
    node = build_bdd(mgr, expr)
    vid = mgr.var_id(var)
    quantified = mgr.exists(node, [vid])
    cof = mgr.apply_or(
        mgr.cofactor(node, {vid: False}), mgr.cofactor(node, {vid: True})
    )
    assert quantified == cof


@settings(max_examples=75, deadline=None)
@given(EXPR, EXPR, st.lists(st.sampled_from(VARS), min_size=1, max_size=3, unique=True))
def test_and_exists_equals_two_step(e1, e2, qvars):
    mgr = BDDManager(VARS)
    f = build_bdd(mgr, e1)
    g = build_bdd(mgr, e2)
    ids = [mgr.var_id(v) for v in qvars]
    assert mgr.and_exists(f, g, ids) == mgr.exists(mgr.apply_and(f, g), ids)


@settings(max_examples=75, deadline=None)
@given(EXPR)
def test_iter_cubes_covers_exactly_the_on_set(expr):
    mgr = BDDManager(VARS)
    node = build_bdd(mgr, expr)
    ids = {v: mgr.var_id(v) for v in VARS}
    covered = set()
    for cube in mgr.iter_cubes(node):
        free = [v for v in VARS if ids[v] not in cube]
        for bits in itertools.product([False, True], repeat=len(free)):
            env = {ids[v]: val for v, val in zip(free, bits)}
            env.update(cube)
            covered.add(tuple(env[ids[v]] for v in VARS))
    expected = {
        tuple(env[v] for v in VARS)
        for env in all_envs()
        if mgr.eval_node(node, {ids[v]: env[v] for v in VARS})
    }
    assert covered == expected


@settings(max_examples=50, deadline=None)
@given(EXPR)
def test_double_negation_is_identity(expr):
    mgr = BDDManager(VARS)
    node = build_bdd(mgr, expr)
    assert mgr.apply_not(mgr.apply_not(node)) == node


@settings(max_examples=50, deadline=None)
@given(EXPR, EXPR)
def test_canonical_equality_iff_semantic_equality(e1, e2):
    mgr = BDDManager(VARS)
    f = build_bdd(mgr, e1)
    g = build_bdd(mgr, e2)
    ids = {v: mgr.var_id(v) for v in VARS}
    semantically_equal = all(
        mgr.eval_node(f, {ids[v]: env[v] for v in VARS})
        == mgr.eval_node(g, {ids[v]: env[v] for v in VARS})
        for env in all_envs()
    )
    assert (f == g) == semantically_equal
