"""Kernel conformance: the node store obeys the ROBDD contract.

:class:`~repro.bdd.manager.BDDManager` is the engine's node store and
kernel set.  Its contract — the ROBDD algebra plus the engine's
memoisation rules — has exactly one specification, and this suite is that
specification as code, checked against brute-force truth tables:

* **Node invariants** — ordered, reduced, hash-consed: children live on
  strictly deeper levels, no redundant tests (``low != high``), one node
  id per (level, low, high) triple, canonical terminals.
* **Unique-table canonicity** — semantically equal functions built along
  different syntactic routes land on the *same* node id, so equality is
  id comparison; negation is an involution on ids.
* **Op-cache hit semantics** — repeating an operation hits the cache; a
  collection that frees nothing must *keep* the caches; one that frees
  must drop them.
* **Counting and enumeration** — ``satcount`` / ``pick_sat`` /
  ``iter_cubes`` / ``iter_sat`` against brute-force truth tables, with
  the enumeration *order* pinned to the canonical low-first order (trace
  text depends on it).
* **Quantification and cofactors** — ``exist`` / ``and_exists`` /
  ``and_exists_chain`` / ``cofactor`` against a brute-force oracle,
  including the fused relational-product identity
  ``and_exists(f, g, V) == exists(f & g, V)`` and cofactors that fix one
  variable or several at once (a trace step fixes every next-state
  variable in one call).

The manager holds only the kernels the model checker and the coverage
recursion run.

Deterministic seeded generation (no hypothesis): the scenario set must
not vary per run.
"""

import itertools
import random

from repro.bdd import BDDManager, Function, ResourcePolicy
from repro.bdd.manager import FALSE, TERMINAL_LEVEL, TRUE

VARS = ["a", "b", "c", "d", "e"]

_OPS = ("and", "or", "xor", "implies", "iff")


def _random_expr(rng, depth):
    """A nested-tuple expression tree, the idiom of ``test_properties``."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.15:
            return ("const", rng.random() < 0.5)
        return ("var", rng.choice(VARS))
    if rng.random() < 0.25:
        return ("not", _random_expr(rng, depth - 1))
    op = rng.choice(_OPS)
    return (op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def _expr_pool(seed, count, depth=4):
    rng = random.Random(seed)
    return [_random_expr(rng, depth) for _ in range(count)]


def _build(mgr, expr):
    tag = expr[0]
    if tag == "var":
        return Function.var(mgr, expr[1])
    if tag == "const":
        return Function.true(mgr) if expr[1] else Function.false(mgr)
    if tag == "not":
        return ~_build(mgr, expr[1])
    lhs = _build(mgr, expr[1])
    rhs = _build(mgr, expr[2])
    if tag == "and":
        return lhs & rhs
    if tag == "or":
        return lhs | rhs
    if tag == "xor":
        return lhs ^ rhs
    if tag == "implies":
        return lhs.implies(rhs)
    return lhs.iff(rhs)


def _eval(expr, env):
    tag = expr[0]
    if tag == "var":
        return env[expr[1]]
    if tag == "const":
        return expr[1]
    if tag == "not":
        return not _eval(expr[1], env)
    lhs = _eval(expr[1], env)
    rhs = _eval(expr[2], env)
    return {
        "and": lhs and rhs,
        "or": lhs or rhs,
        "xor": lhs != rhs,
        "implies": (not lhs) or rhs,
        "iff": lhs == rhs,
    }[tag]


def _all_envs():
    for bits in itertools.product([False, True], repeat=len(VARS)):
        yield dict(zip(VARS, bits))


def _manager():
    return BDDManager(VARS, policy=ResourcePolicy.disabled())


def _id_envs(mgr):
    ids = [mgr.var_id(v) for v in VARS]
    return [
        dict(zip(ids, bits))
        for bits in itertools.product([False, True], repeat=len(ids))
    ]


# ----------------------------------------------------------------------
# Node / complement invariants
# ----------------------------------------------------------------------


class TestNodeInvariants:
    def test_terminals_are_canonical(self):
        b = BDDManager()
        assert (FALSE, TRUE) == (0, 1)
        assert b.level_of(FALSE) == TERMINAL_LEVEL
        assert b.level_of(TRUE) == TERMINAL_LEVEL
        assert b.node_count() == 2

    def test_reachable_nodes_are_ordered_and_reduced(self):
        mgr = _manager()
        roots = [_build(mgr, e).node for e in _expr_pool(101, 30)]
        seen = set()
        stack = [r for r in roots if r not in (FALSE, TRUE)]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            level, low, high = mgr.level_of(node), mgr.low_of(node), mgr.high_of(node)
            assert level < TERMINAL_LEVEL
            assert low != high, "redundant test survived mk()"
            for child in (low, high):
                assert mgr.level_of(child) > level, "child above parent"
                if child not in (FALSE, TRUE):
                    stack.append(child)
        # Hash-consing: every reachable triple maps back to its node id.
        for node in seen:
            assert mgr._mk(
                mgr.level_of(node), mgr.low_of(node), mgr.high_of(node)
            ) == node

    def test_mk_collapses_redundant_and_dedupes(self):
        b = _manager()
        assert b._mk(3, TRUE, TRUE) == TRUE
        assert b._mk(3, FALSE, FALSE) == FALSE
        n1 = b._mk(3, FALSE, TRUE)
        n2 = b._mk(3, FALSE, TRUE)
        assert n1 == n2
        assert b._mk(3, TRUE, FALSE) != n1

    def test_complement_laws_hold_on_ids(self):
        mgr = _manager()
        for expr in _expr_pool(202, 20):
            f = _build(mgr, expr)
            g = ~f
            assert (~g).node == f.node, "negation must be an involution"
            assert (f & g).is_false()
            assert (f | g).is_true()
            if not f.is_true() and not f.is_false():
                assert g.node != f.node


# ----------------------------------------------------------------------
# Unique-table canonicity
# ----------------------------------------------------------------------


class TestCanonicity:
    def test_equal_functions_share_node_ids(self):
        """Different syntactic routes to one function: one node id."""
        mgr = _manager()
        a, b_, c = (Function.var(mgr, v) for v in "abc")
        assert (a & b_).node == (~(~a | ~b_)).node  # De Morgan
        assert (a ^ b_).node == ((a | b_) & ~(a & b_)).node
        assert (a.implies(b_)).node == (~a | b_).node
        assert (a.iff(b_)).node == (~(a ^ b_)).node
        assert ((a & b_) | (~a & c)).node == ((~a | b_) & (a | c)).node

    def test_pool_truth_table_equality_is_id_equality(self):
        mgr = _manager()
        envs = list(_all_envs())
        pool = [(e, _build(mgr, e)) for e in _expr_pool(303, 25)]
        tables = {}
        for expr, fn in pool:
            table = tuple(_eval(expr, env) for env in envs)
            tables.setdefault(table, set()).add(fn.node)
        for table, nodes in tables.items():
            assert len(nodes) == 1, "one truth table, multiple node ids"

    def test_node_count_tracks_unique_table(self):
        b = _manager()
        # One unique table per level; the terminals live in none of them.
        assert b.node_count() == sum(map(len, b._unique)) + 2
        b._mk(0, FALSE, TRUE)
        b._mk(1, FALSE, TRUE)
        assert b.node_count() == sum(map(len, b._unique)) + 2


# ----------------------------------------------------------------------
# Op-cache hit semantics
# ----------------------------------------------------------------------


class TestOpCacheSemantics:
    def test_repeat_operation_hits_cache(self):
        b = _manager()
        x = b._mk(0, FALSE, TRUE)
        y = b._mk(1, FALSE, TRUE)
        b.apply_and(x, y)
        hits_before = b.resource_stats()["and_hits"]
        assert b.apply_and(x, y) == b.apply_and(x, y)
        assert b.resource_stats()["and_hits"] > hits_before

    def test_clear_caches_forgets(self):
        b = _manager()
        x = b._mk(0, FALSE, TRUE)
        y = b._mk(1, FALSE, TRUE)
        b.apply_and(x, y)
        b.clear_caches()
        assert b.cache_entry_count() == 0
        misses_before = b.resource_stats()["and_misses"]
        b.apply_and(x, y)
        assert b.resource_stats()["and_misses"] > misses_before

    def test_collect_that_frees_nothing_keeps_caches(self):
        mgr = _manager()
        a, b_ = Function.var(mgr, "a"), Function.var(mgr, "b")
        f = a & b_
        entries = mgr.cache_entry_count()
        assert entries > 0
        assert mgr.collect_garbage() == 0
        assert mgr.cache_entry_count() == entries
        hits_before = mgr.resource_stats()["and_hits"]
        assert (a & b_).node == f.node
        assert mgr.resource_stats()["and_hits"] > hits_before

    def test_collect_that_frees_drops_caches(self):
        mgr = _manager()
        a, b_ = Function.var(mgr, "a"), Function.var(mgr, "b")
        f = a & b_
        del f
        assert mgr.collect_garbage() > 0
        assert mgr.cache_entry_count() == 0


# ----------------------------------------------------------------------
# Counting and enumeration
# ----------------------------------------------------------------------


class TestCountingAndEnumeration:
    def test_satcount_matches_brute_force(self):
        mgr = _manager()
        ids = [mgr.var_id(v) for v in VARS]
        envs = list(_all_envs())
        for expr in _expr_pool(505, 25):
            fn = _build(mgr, expr)
            expected = sum(1 for env in envs if _eval(expr, env))
            assert fn.satcount(ids) == expected

    def test_pick_sat_satisfies(self):
        mgr = _manager()
        ids = [mgr.var_id(v) for v in VARS]
        for expr in _expr_pool(606, 25):
            fn = _build(mgr, expr)
            picked = fn.pick_sat(ids)
            if fn.is_false():
                assert picked is None
            else:
                assert picked is not None
                assert fn.evaluate(picked)

    def test_iter_cubes_partitions_the_sat_set(self):
        mgr = _manager()
        envs = _id_envs(mgr)
        for expr in _expr_pool(707, 15):
            fn = _build(mgr, expr)
            cubes = list(fn.iter_cubes())
            for env in envs:
                matching = [
                    c for c in cubes
                    if all(env[v] == val for v, val in c.items())
                ]
                if fn.evaluate(env):
                    assert len(matching) == 1, "cubes must partition"
                else:
                    assert not matching

    def test_iter_sat_matches_satcount_and_order_is_canonical(self):
        """Enumeration yields exactly satcount assignments, and the order
        is the canonical low-first one — a function of the BDD alone, not
        of node ids (the reporting layer's trace text is
        enumeration-order-sensitive)."""
        pool = _expr_pool(808, 10)
        mgr = _manager()
        # The reference manager builds the pool in reverse first, so the
        # same functions end up on different node ids.
        ref = _manager()
        for expr in reversed(pool):
            _build(ref, expr)
        ids = [mgr.var_id(v) for v in VARS]
        for expr in pool:
            fn = _build(mgr, expr)
            sats = list(fn.iter_sat(ids))
            assert len(sats) == fn.satcount(ids)
            assert len(sats) == len(
                set(tuple(sorted(s.items())) for s in sats)
            )
            cubes = list(fn.iter_cubes())
            # Low-first DFS: consecutive cubes first differ at a variable
            # the earlier cube sets False and the later one sets True.
            keys = [tuple(c.get(v, -1) for v in ids) for c in cubes]
            assert keys == sorted(keys)
            ref_fn = _build(ref, expr)
            assert sats == list(ref_fn.iter_sat(ids))
            assert cubes == list(ref_fn.iter_cubes())


# ----------------------------------------------------------------------
# Quantification vs brute force
# ----------------------------------------------------------------------


class TestQuantification:
    def test_exists_matches_brute_force(self):
        mgr = _manager()
        rng = random.Random(909)
        envs = list(_all_envs())
        for expr in _expr_pool(909, 20):
            names = rng.sample(VARS, rng.randint(1, 3))
            ids = [mgr.var_id(v) for v in names]
            quantified = _build(mgr, expr).exist(ids)
            for env in envs:
                expected = any(
                    _eval(expr, {**env, **dict(zip(names, bits))})
                    for bits in itertools.product([False, True], repeat=len(names))
                )
                assert quantified.evaluate(
                    {mgr.var_id(v): env[v] for v in VARS}
                ) == expected

    def test_and_exists_is_fused_relational_product(self):
        mgr = _manager()
        rng = random.Random(111)
        pool = _expr_pool(111, 30)
        for i in range(0, len(pool) - 1, 2):
            f = _build(mgr, pool[i])
            g = _build(mgr, pool[i + 1])
            names = rng.sample(VARS, rng.randint(1, 3))
            ids = [mgr.var_id(v) for v in names]
            assert f.and_exists(g, ids).node == (f & g).exist(ids).node

    def test_and_exists_chain_matches_unfused(self):
        mgr = _manager()
        rng = random.Random(222)
        pool = _expr_pool(222, 24)
        for i in range(0, len(pool) - 2, 3):
            fns = [_build(mgr, pool[i + j]) for j in range(3)]
            names = rng.sample(VARS, rng.randint(1, 4))
            ids = [mgr.var_id(v) for v in names]
            # All quantification scheduled at the last conjunct — always a
            # legal schedule (no variable dies before its last mention).
            chained = fns[0].and_exists_chain([(fns[1], []), (fns[2], ids)])
            conj = fns[0] & fns[1] & fns[2]
            assert chained.node == conj.exist(ids).node

    def test_cofactor_matches_brute_force(self):
        """One variable or several fixed in one call, every value
        combination: the cofactor agrees with the truth table with those
        variables overridden, and no longer depends on them."""
        mgr = _manager()
        rng = random.Random(333)
        envs = list(_all_envs())
        for expr in _expr_pool(333, 20):
            fn = _build(mgr, expr)
            for count in (1, rng.randint(2, len(VARS))):
                names = rng.sample(VARS, count)
                for values in itertools.product([False, True], repeat=count):
                    fixed = dict(zip(names, values))
                    cof = fn.cofactor(
                        {mgr.var_id(v): value for v, value in fixed.items()}
                    )
                    assert not set(cof.support()) & {mgr.var_id(v) for v in names}
                    for env in envs:
                        assert cof.evaluate(
                            {mgr.var_id(v): env[v] for v in VARS}
                        ) == _eval(expr, {**env, **fixed})
