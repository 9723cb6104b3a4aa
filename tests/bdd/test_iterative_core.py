"""Depth-robustness of the iterative BDD core.

Every traversal in :mod:`repro.bdd.manager` runs on an explicit work stack,
so BDD depth is bounded by memory, not ``sys.getrecursionlimit()``.  These
tests drive each operation through chains well past Python's default
recursion limit (1000) — the exact shape that crashed the old recursive
engine at ~1200 levels — *without* touching the recursion limit, and
cross-check the small-case semantics against brute-force evaluation.
"""

import sys

import pytest

from repro.bdd import BDDManager, Function
from repro.bdd.manager import FALSE, TRUE

#: Comfortably past the default recursion limit (and past the ~1200-level
#: point where the recursive engine fell over).
DEEP = 1600


@pytest.fixture(scope="module")
def deep_mgr():
    assert sys.getrecursionlimit() <= 1100, (
        "these tests prove depth-independence; raising the recursion limit "
        "would mask a regression"
    )
    return BDDManager([f"x{i}" for i in range(DEEP)])


def _vars(m, count=DEEP):
    return [m.var(f"x{i}") for i in range(count)]


@pytest.fixture(scope="module")
def deep_conj(deep_mgr):
    """The depth-DEEP conjunction chain, built once (chains are O(n^2))."""
    conj = TRUE
    for node in _vars(deep_mgr):
        conj = deep_mgr.apply_and(conj, node)
    return conj


def test_deep_and_or_chain(deep_mgr, deep_conj):
    m = deep_mgr
    disj = FALSE
    for node in _vars(m):
        disj = m.apply_or(disj, node)
    assert m.satcount(deep_conj) == 1
    assert m.satcount(disj) == 2 ** DEEP - 1
    # Negation at depth: De Morgan duals of the two chains.
    assert m.satcount(m.apply_not(deep_conj)) == 2 ** DEEP - 1
    assert m.apply_not(m.apply_not(disj)) == disj


def test_deep_xor_parity(deep_mgr):
    m = deep_mgr
    parity = FALSE
    for node in _vars(m):
        parity = m.apply_xor(parity, node)
    # The parity function has exactly half of all assignments satisfying.
    assert m.satcount(parity) == 2 ** (DEEP - 1)
    # apply_not at depth, and the involution cache.
    assert m.apply_not(m.apply_not(parity)) == parity


def test_deep_exists_forall(deep_mgr, deep_conj):
    m = deep_mgr
    evens = [m.var_id(f"x{i}") for i in range(0, DEEP, 2)]
    gone = m.exists(deep_conj, evens)
    assert m.satcount(gone) == 2 ** (DEEP // 2)


def test_deep_and_exists(deep_mgr):
    m = deep_mgr
    f = TRUE
    g = TRUE
    for i in range(0, DEEP, 2):
        f = m.apply_and(f, m.var(f"x{i}"))
        g = m.apply_and(g, m.var(f"x{i + 1}"))
    everything = [m.var_id(f"x{i}") for i in range(DEEP)]
    assert m.and_exists(f, g, everything) == TRUE
    assert m.and_exists(f, m.apply_not(f), everything) == FALSE


def test_deep_restrict_compose_rename():
    m = BDDManager([f"x{i}" for i in range(DEEP)] + [f"y{i}" for i in range(DEEP)])
    conj = TRUE
    for i in range(DEEP):
        conj = m.apply_and(conj, m.var(f"x{i}"))
    fixed = m.cofactor(conj, {m.var_id(f"x{DEEP - 1}"): True})
    assert m.satcount(fixed, list(range(DEEP))) == 2
    assert m.cofactor(conj, {m.var_id("x0"): False}) == FALSE
    # Every other variable fixed at once, as a trace step fixes the
    # next-state copies: one pass down the whole chain.
    odds = {m.var_id(f"x{i}"): True for i in range(1, DEEP, 2)}
    assert m.satcount(m.cofactor(conj, odds), list(range(DEEP))) == 2 ** (DEEP // 2)
    # Rename the whole chain onto the y block (monotone fast path).
    renamed = m.rename(
        conj, {m.var_id(f"x{i}"): m.var_id(f"y{i}") for i in range(DEEP)}
    )
    y_ids = [m.var_id(f"y{i}") for i in range(DEEP)]
    assert m.satcount(renamed, y_ids) == 1


def test_deep_iter_cubes_and_pick_sat(deep_mgr, deep_conj):
    m = deep_mgr
    conj = deep_conj
    cubes = list(m.iter_cubes(conj))
    assert len(cubes) == 1
    assert len(cubes[0]) == DEEP
    assert all(cubes[0].values())
    picked = m.pick_sat(conj, [m.var_id(f"x{i}") for i in range(DEEP)])
    assert picked == cubes[0]


def test_deep_function_wrapper_roundtrip():
    m = BDDManager([f"v{i}" for i in range(DEEP)])
    out = Function.true(m)
    for i in range(DEEP):
        out = out & Function.var(m, f"v{i}")
    assert out.satcount() == 1
    assert (~out | out).is_true()


class TestSmallCaseSemantics:
    """The iterative rewrites agree with brute-force truth tables."""

    NAMES = ["a", "b", "c", "d"]

    def _envs(self, m):
        import itertools

        ids = [m.var_id(n) for n in self.NAMES]
        for bits in itertools.product([False, True], repeat=len(ids)):
            yield dict(zip(ids, bits))

    def test_binary_ops_truth_tables(self):
        m = BDDManager(self.NAMES)
        a, b = m.var("a"), m.var("b")
        cd = m.apply_and(m.var("c"), m.var("d"))
        for env in self._envs(m):
            ev = lambda n: m.eval_node(n, env)  # noqa: E731
            assert ev(m.apply_and(a, cd)) == (ev(a) and ev(cd))
            assert ev(m.apply_or(b, cd)) == (ev(b) or ev(cd))
            assert ev(m.apply_xor(a, cd)) == (ev(a) != ev(cd))
            assert ev(m.apply_not(cd)) == (not ev(cd))

    def test_quantification_truth_tables(self):
        m = BDDManager(self.NAMES)
        f = m.apply_or(
            m.apply_and(m.var("a"), m.var("c")),
            m.apply_and(m.var("b"), m.var("d")),
        )
        b_id = m.var_id("b")
        ex = m.exists(f, [b_id])
        for env in self._envs(m):
            lo = dict(env)
            lo[b_id] = False
            hi = dict(env)
            hi[b_id] = True
            assert m.eval_node(ex, env) == (
                m.eval_node(f, lo) or m.eval_node(f, hi)
            )
        assert m.and_exists(f, m.var("a"), [b_id]) == m.exists(
            m.apply_and(f, m.var("a")), [b_id]
        )


class TestPickSatContract:
    """pick_sat assigns exactly the requested variables (the old
    implementation leaked support variables outside ``variables``)."""

    def test_support_outside_variables_is_projected(self):
        m = BDDManager(["a", "b", "c"])
        f = m.apply_and(m.var("a"), m.var("c"))
        ids = [m.var_id("a"), m.var_id("b")]
        assignment = m.pick_sat(f, ids)
        assert set(assignment) == set(ids)
        assert assignment[m.var_id("a")] is True

    def test_dont_cares_default_false(self):
        m = BDDManager(["a", "b"])
        f = m.var("a")
        assignment = m.pick_sat(f, [m.var_id("a"), m.var_id("b")])
        assert assignment == {m.var_id("a"): True, m.var_id("b"): False}

    def test_wrapper_contract(self):
        m = BDDManager(["p", "q", "r"])
        f = Function.var(m, "p") & Function.var(m, "r")
        ids = [m.var_id("p"), m.var_id("q")]
        assignment = f.pick_sat(ids)
        assert set(assignment) == set(ids)
