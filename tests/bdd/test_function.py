"""Tests for the Function wrapper (operators, set helpers, guards)."""

import pytest

from repro.bdd import BDDManager, Function
from repro.errors import BDDError


@pytest.fixture
def mgr():
    return BDDManager(["p", "q", "r"])


@pytest.fixture
def p(mgr):
    return Function.var(mgr, "p")


@pytest.fixture
def q(mgr):
    return Function.var(mgr, "q")


class TestOperators:
    def test_and_or_not(self, mgr, p, q):
        conj = p & q
        disj = p | q
        assert conj.subseteq(disj)
        assert (~conj | conj).is_true()
        assert (conj & ~conj).is_false()

    def test_xor(self, p, q):
        assert (p ^ p).is_false()
        assert (p ^ ~p).is_true()

    def test_implies_iff(self, p, q):
        assert p.implies(p).is_true()
        assert p.iff(p).is_true()
        assert (p & q).implies(p).is_true()

    def test_diff(self, p, q):
        assert (p.diff(q)) == (p & ~q)

    def test_constants(self, mgr):
        assert Function.true(mgr).is_true()
        assert Function.false(mgr).is_false()


class TestSetPredicates:
    def test_subseteq(self, p, q):
        assert (p & q).subseteq(p)
        assert not p.subseteq(p & q)

    def test_intersects(self, p, q):
        assert p.intersects(q)
        assert not p.intersects(~p)


class TestGuards:
    def test_bool_raises(self, p):
        with pytest.raises(TypeError):
            bool(p)

    def test_cross_manager_rejected(self, p):
        other = BDDManager(["p"])
        with pytest.raises(BDDError):
            _ = p & Function.var(other, "p")

    def test_non_function_rejected(self, p):
        with pytest.raises(TypeError):
            _ = p & 1


class TestIntrospection:
    def test_satcount_default_all_vars(self, mgr, p):
        assert p.satcount() == 4  # q, r free

    def test_equality_and_hash(self, mgr, p, q):
        again = Function.var(mgr, "p")
        assert p == again
        assert hash(p) == hash(again)
        assert p != q

    def test_pick_sat_evaluates_true(self, mgr, p, q):
        f = p & ~q
        ids = [mgr.var_id(n) for n in ["p", "q", "r"]]
        assignment = f.pick_sat(ids)
        assert f.evaluate(assignment)

    def test_exist_via_wrapper(self, mgr, p, q):
        f = (p & q).exist([mgr.var_id("p")])
        assert f == q

    def test_rename_via_wrapper(self, mgr, p):
        renamed = p.rename({mgr.var_id("p"): mgr.var_id("q")})
        assert renamed == Function.var(mgr, "q")
