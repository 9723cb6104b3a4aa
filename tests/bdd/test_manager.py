"""Unit tests for the core BDD manager operations."""

import itertools

import pytest

from repro.bdd import FALSE, TRUE, BDDManager
from repro.errors import BDDError


@pytest.fixture
def mgr():
    return BDDManager(["a", "b", "c", "d"])


class TestVariables:
    def test_declaration_order_is_level_order(self, mgr):
        assert mgr.var_names == ["a", "b", "c", "d"]
        # A variable's level is its id, and ids follow declaration order.
        levels = [mgr.level_of(mgr.var(name)) for name in mgr.var_names]
        assert levels == [mgr.var_id(name) for name in mgr.var_names]
        assert levels == [0, 1, 2, 3]

    def test_duplicate_declaration_rejected(self, mgr):
        with pytest.raises(BDDError):
            mgr.add_var("a")

    def test_unknown_variable_rejected(self, mgr):
        with pytest.raises(BDDError):
            mgr.var_id("nope")

    def test_var_creates_on_demand(self):
        m = BDDManager()
        node = m.var("x")
        assert node > TRUE
        assert m.var_name(m.var_id("x")) == "x"


class TestHashConsing:
    def test_identical_expressions_share_nodes(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.apply_and(a, b)
        g = mgr.apply_and(b, a)
        assert f == g

    def test_reduction_removes_redundant_tests(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        # a & b | a & ~b == a
        f = mgr.apply_or(mgr.apply_and(a, b), mgr.apply_and(a, mgr.apply_not(b)))
        assert f == a

    def test_de_morgan(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        lhs = mgr.apply_not(mgr.apply_and(a, b))
        rhs = mgr.apply_or(mgr.apply_not(a), mgr.apply_not(b))
        assert lhs == rhs


class TestConjoin:
    def test_conjoin_is_the_conjunction_of_its_operands(self, mgr):
        a, b, c, d = (mgr.var(n) for n in "abcd")
        parts = [mgr.apply_or(a, b), mgr.apply_not(c), mgr.apply_xor(b, d), a, d]
        for k in range(len(parts) + 1):
            fold = TRUE
            for part in parts[:k]:
                fold = mgr.apply_and(fold, part)
            assert mgr.conjoin(parts[:k]) == fold
        assert mgr.conjoin([a, mgr.apply_not(a)]) == FALSE

    def test_conjoin_creates_no_safe_point(self, mgr):
        """Operands and products are raw ids: a GC mid-tree could recycle
        the pairwise products, so the method must never reach one."""
        calls = []
        mgr.checkpoint = lambda: calls.append(1)
        parts = [mgr.var(n) for n in "abcd"]
        mgr.conjoin(parts)
        assert calls == []


class TestConnectives:
    def test_iff_implies(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        iff = mgr.apply_iff(a, b)
        both = mgr.apply_and(mgr.apply_implies(a, b), mgr.apply_implies(b, a))
        assert iff == both


class TestQuantification:
    def test_exists_removes_variable(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.apply_and(a, b)
        g = mgr.exists(f, [mgr.var_id("a")])
        assert g == b

    def test_exists_of_tautology_pair(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.apply_or(mgr.apply_and(a, b), mgr.apply_and(mgr.apply_not(a), b))
        assert mgr.exists(f, [mgr.var_id("a")]) == b

    def test_and_exists_matches_two_step(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        f = mgr.apply_or(a, b)
        g = mgr.apply_or(mgr.apply_not(a), c)
        vars_ = [mgr.var_id("a")]
        fused = mgr.and_exists(f, g, vars_)
        two_step = mgr.exists(mgr.apply_and(f, g), vars_)
        assert fused == two_step

    def test_empty_quantification_is_identity(self, mgr):
        a = mgr.var("a")
        assert mgr.exists(a, []) == a


class TestRestrictComposeRename:
    def test_restrict_cofactors(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.apply_and(a, b)
        assert mgr.cofactor(f, {mgr.var_id("a"): True}) == b
        assert mgr.cofactor(f, {mgr.var_id("a"): False}) == FALSE
        both = {mgr.var_id("a"): True, mgr.var_id("b"): True}
        assert mgr.cofactor(f, both) == TRUE
        assert mgr.cofactor(f, {}) == f

    def test_rename_monotone_fast_path(self):
        m = BDDManager(["x0", "x0n", "x1", "x1n"])
        x0, x1 = m.var("x0"), m.var("x1")
        f = m.apply_and(x0, m.apply_not(x1))
        renamed = m.rename(
            f, {m.var_id("x0"): m.var_id("x0n"), m.var_id("x1"): m.var_id("x1n")}
        )
        expected = m.apply_and(m.var("x0n"), m.apply_not(m.var("x1n")))
        assert renamed == expected

    def test_rename_that_breaks_the_order_raises(self, mgr):
        """Swapping two support variables would put a child above its
        parent, which a node-for-node rebuild cannot express."""
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.apply_and(a, mgr.apply_not(b))
        swap = {mgr.var_id("a"): mgr.var_id("b"), mgr.var_id("b"): mgr.var_id("a")}
        with pytest.raises(BDDError, match="variable order"):
            mgr.rename(f, swap)
        # Only the support counts: the same swap on a one-variable
        # function keeps the order.
        assert mgr.rename(a, swap) == b


class TestSatcount:
    def test_satcount_terminals(self, mgr):
        assert mgr.satcount(FALSE) == 0
        assert mgr.satcount(TRUE) == 2 ** 4

    def test_satcount_single_literal(self, mgr):
        assert mgr.satcount(mgr.var("a")) == 2 ** 3

    def test_satcount_conjunction(self, mgr):
        f = mgr.apply_and(mgr.var("a"), mgr.var("b"))
        assert mgr.satcount(f) == 2 ** 2

    def test_satcount_over_subset(self, mgr):
        f = mgr.apply_and(mgr.var("a"), mgr.var("b"))
        ids = [mgr.var_id("a"), mgr.var_id("b")]
        assert mgr.satcount(f, ids) == 1

    def test_satcount_interleaved_variable_set(self):
        m = BDDManager(["s0", "n0", "s1", "n1"])
        f = m.apply_or(m.var("s0"), m.var("s1"))
        state_ids = [m.var_id("s0"), m.var_id("s1")]
        assert m.satcount(f, state_ids) == 3

    def test_satcount_support_escape_rejected(self, mgr):
        f = mgr.var("c")
        with pytest.raises(BDDError):
            mgr.satcount(f, [mgr.var_id("a")])

    def test_satcount_xor_is_half(self, mgr):
        f = mgr.apply_xor(mgr.var("a"), mgr.var("b"))
        assert mgr.satcount(f) == 2 ** 3


class TestEnumeration:
    def test_iter_cubes_of_literal(self, mgr):
        cubes = list(mgr.iter_cubes(mgr.var("a")))
        assert cubes == [{mgr.var_id("a"): True}]

    def test_iter_sat_expands_dont_cares(self, mgr):
        f = mgr.var("a")
        ids = [mgr.var_id("a"), mgr.var_id("b")]
        sats = sorted(
            tuple(sorted(s.items())) for s in mgr.iter_sat(f, ids)
        )
        assert len(sats) == 2
        assert all(dict(s)[mgr.var_id("a")] is True for s in sats)

    def test_iter_sat_rejects_support_escape(self, mgr):
        f = mgr.apply_and(mgr.var("a"), mgr.var("c"))
        with pytest.raises(BDDError):
            list(mgr.iter_sat(f, [mgr.var_id("a")]))

    def test_pick_sat_none_for_false(self, mgr):
        assert mgr.pick_sat(FALSE, [mgr.var_id("a")]) is None

    def test_pick_sat_satisfies(self, mgr):
        f = mgr.apply_and(mgr.var("a"), mgr.apply_not(mgr.var("b")))
        assignment = mgr.pick_sat(f, [mgr.var_id(n) for n in "abcd"])
        assert mgr.eval_node(f, assignment) is True

    def test_eval_node(self, mgr):
        f = mgr.apply_or(mgr.var("a"), mgr.var("b"))
        ids = {n: mgr.var_id(n) for n in "abcd"}
        assert mgr.eval_node(
            f, {ids["a"]: False, ids["b"]: True, ids["c"]: False, ids["d"]: False}
        )
        assert not mgr.eval_node(
            f, {ids["a"]: False, ids["b"]: False, ids["c"]: True, ids["d"]: True}
        )

    def test_cube_roundtrip(self, mgr):
        ids = {n: mgr.var_id(n) for n in "ab"}
        assignment = {ids["a"]: True, ids["b"]: False}
        node = mgr.cube(assignment)
        cubes = list(mgr.iter_cubes(node))
        assert cubes == [assignment]


class TestSupportAndSize:
    def test_support_names(self, mgr):
        f = mgr.apply_and(mgr.var("a"), mgr.var("c"))
        assert [mgr.var_name(v) for v in mgr.support(f)] == ["a", "c"]

    def test_support_of_terminal_empty(self, mgr):
        assert mgr.support(TRUE) == []
        assert mgr.support(FALSE) == []

    def test_size_counts_dag_nodes(self, mgr):
        a = mgr.var("a")
        assert mgr.size(a) == 3  # a node + two terminals
        assert mgr.size(TRUE) == 1


class TestGarbageCollection:
    def test_gc_reclaims_dead_nodes(self):
        m = BDDManager([f"v{i}" for i in range(8)])
        f = m.var("v0")
        for i in range(1, 8):
            f = m.apply_and(f, m.var(f"v{i}"))
        before = m.node_count()
        del f
        freed = m.collect_garbage()
        assert freed > 0
        assert m.node_count() < before

    def test_gc_preserves_live_functions(self):
        from repro.bdd import Function

        m = BDDManager(["a", "b", "c"])
        f = Function(m, m.apply_and(m.var("a"), m.var("b")))
        m.collect_garbage()
        # The function must still evaluate correctly after GC.
        ids = {n: m.var_id(n) for n in "abc"}
        assert f.evaluate({ids["a"]: True, ids["b"]: True, ids["c"]: False})

    def test_gc_reuses_slots(self):
        m = BDDManager(["a", "b"])
        g = m.apply_and(m.var("a"), m.var("b"))
        m.collect_garbage(extra_roots=[])
        # Recreate the same function: must be found or rebuilt consistently.
        g2 = m.apply_and(m.var("a"), m.var("b"))
        assert m.eval_node(
            g2, {m.var_id("a"): True, m.var_id("b"): True}
        )

    def test_gc_keeps_canonicity(self):
        from repro.bdd import Function

        mgr = BDDManager(["a", "b"])
        f = Function(mgr, mgr.apply_implies(mgr.var("a"), mgr.var("b")))
        mgr.collect_garbage()
        g = Function(mgr, mgr.apply_implies(mgr.var("a"), mgr.var("b")))
        assert f == g

    def test_created_nodes_is_monotone(self):
        mgr = BDDManager(["a", "b", "c"])
        checkpoints = [mgr.created_nodes]
        mgr.apply_and(mgr.var("a"), mgr.var("b"))
        checkpoints.append(mgr.created_nodes)
        mgr.collect_garbage()
        checkpoints.append(mgr.created_nodes)
        mgr.apply_or(mgr.var("a"), mgr.var("c"))
        checkpoints.append(mgr.created_nodes)
        assert checkpoints == sorted(checkpoints)

    def test_repeated_gc_keeps_live_function(self):
        from repro.bdd import Function

        names = ["a", "b", "c", "d"]
        mgr = BDDManager(names)
        keep = Function(
            mgr,
            mgr.apply_or(
                mgr.apply_and(mgr.var("a"), mgr.var("d")),
                mgr.apply_and(mgr.var("b"), mgr.apply_not(mgr.var("c"))),
            ),
        )
        for i in range(4):
            mgr.apply_xor(mgr.var(names[i]), mgr.var(names[(i + 1) % 4]))
        ids = [mgr.var_id(v) for v in names]

        def table():
            return [
                keep.evaluate(dict(zip(ids, bits)))
                for bits in itertools.product([False, True], repeat=4)
            ]

        before = table()
        assert mgr.collect_garbage() > 0
        # Nothing died since the first sweep, so the second frees nothing.
        assert mgr.collect_garbage() == 0
        assert table() == before

    def test_satcount_stable_across_gc(self):
        from repro.bdd import Function

        mgr = BDDManager(["x", "y", "z", "w"])
        f = Function(
            mgr,
            mgr.apply_or(
                mgr.apply_and(mgr.var("x"), mgr.var("w")),
                mgr.apply_xor(mgr.var("y"), mgr.var("z")),
            ),
        )
        before = f.satcount()
        mgr.apply_and(mgr.var("y"), mgr.apply_not(mgr.var("w")))
        assert mgr.collect_garbage() > 0
        # New nodes reuse the freed slots; no cached count may leak.
        g = Function(mgr, mgr.apply_or(mgr.var("x"), mgr.var("z")))
        assert f.satcount() == before
        assert g.satcount() == 12

    def test_cubes_valid_after_gc(self):
        from repro.bdd import Function

        names = ["x", "y", "z"]
        mgr = BDDManager(names)
        f = Function(
            mgr, mgr.apply_or(mgr.var("x"), mgr.apply_and(mgr.var("y"), mgr.var("z")))
        )
        mgr.apply_xor(mgr.var("x"), mgr.var("z"))
        assert mgr.collect_garbage() > 0
        mgr.apply_and(mgr.var("y"), mgr.apply_not(mgr.var("x")))
        cubes = list(f.iter_cubes())
        assert cubes
        for cube in cubes:
            # Each cube, with its free variables set to False, satisfies f.
            env = {mgr.var_id(v): False for v in names}
            env.update(cube)
            assert f.evaluate(env)
