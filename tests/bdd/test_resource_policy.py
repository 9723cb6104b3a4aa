"""The automatic resource manager: policies, safe points, eviction.

Covers the :class:`~repro.bdd.policy.ResourcePolicy` knobs end to end:
auto-GC triggering and trigger growth, the cache-entry cap, pin protection
for in-flight cube iterators, and the resource counters a telemetry span
reports as :class:`~repro.obs.telemetry.WorkStats`.
"""

import itertools

import pytest

from repro.bdd import BDDManager, Function, ResourcePolicy
from repro.obs import Telemetry, WorkStats


def _burn(mgr, rounds=6, width=8):
    """Create garbage: transient functions that go dead immediately."""
    for r in range(rounds):
        acc = Function.false(mgr)
        for i in range(width):
            acc = acc | (
                Function.var(mgr, f"v{i}") & ~Function.var(mgr, f"v{(i + r) % width}")
            )
    return acc


@pytest.fixture
def names():
    return [f"v{i}" for i in range(8)]


class TestPolicyValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ResourcePolicy(gc_node_threshold=-1)
        with pytest.raises(ValueError):
            ResourcePolicy(gc_growth=0.5)

    def test_presets(self):
        assert ResourcePolicy.aggressive().gc_growth == 1.0
        assert not ResourcePolicy.disabled().gc_enabled
        assert ResourcePolicy().gc_enabled
        assert ResourcePolicy().with_(
            cache_entry_threshold=7
        ).cache_entry_threshold == 7


class TestAutoGC:
    def test_triggers_at_threshold(self, names):
        mgr = BDDManager(names, policy=ResourcePolicy(gc_node_threshold=40))
        _burn(mgr)
        assert mgr.gc_runs >= 1
        # Collected garbage: far fewer live nodes than were ever created.
        assert mgr.node_count() < mgr.created_nodes

    def test_disabled_policy_never_collects(self, names):
        mgr = BDDManager(names, policy=ResourcePolicy.disabled())
        _burn(mgr)
        assert mgr.gc_runs == 0

    def test_trigger_grows_after_collection(self, names):
        mgr = BDDManager(names, policy=ResourcePolicy(gc_node_threshold=40, gc_growth=2.0))
        _burn(mgr)
        runs_first_wave = mgr.gc_runs
        assert runs_first_wave >= 1
        # The grown trigger spaces collections out: burning the same amount
        # again must not double the GC count run for run.
        _burn(mgr)
        assert mgr.gc_runs - runs_first_wave <= runs_first_wave + 1

    def test_aggressive_policy_collects_every_safe_point(self, names):
        mgr = BDDManager(names, policy=ResourcePolicy.aggressive())
        before = mgr.gc_runs
        f = Function.var(mgr, "v0") & Function.var(mgr, "v1")
        g = f | Function.var(mgr, "v2")
        assert mgr.gc_runs >= before + 2  # one per wrapper creation
        # ... and the survivors still denote the right functions.
        ids = {n: mgr.var_id(n) for n in ("v0", "v1", "v2")}
        assert g.evaluate({ids["v0"]: True, ids["v1"]: True, ids["v2"]: False})

    def test_functions_survive_forced_gc(self, names):
        mgr = BDDManager(names, policy=ResourcePolicy.aggressive())
        funcs = []
        for i in range(4):
            funcs.append(
                Function.var(mgr, f"v{i}") ^ Function.var(mgr, f"v{(i + 1) % 8}")
            )
        tables = []
        ids = [mgr.var_id(n) for n in names]
        envs = [
            dict(zip(ids, bits))
            for bits in itertools.product([False, True], repeat=len(ids))
        ]
        tables = [[f.evaluate(e) for e in envs] for f in funcs]
        _burn(mgr)  # plenty of safe points, GC at every one
        assert [[f.evaluate(e) for e in envs] for f in funcs] == tables


class TestCacheEviction:
    def test_cache_entry_cap_clears_caches(self, names):
        mgr = BDDManager(
            names,
            policy=ResourcePolicy(
                gc_node_threshold=0, cache_entry_threshold=25
            ),
        )
        _burn(mgr)
        # The cap kept the combined caches bounded (clears happen at safe
        # points, so a single large operation may briefly exceed it).
        assert mgr.cache_entry_count() <= 200


class TestExternalRootIdentity:
    def test_equal_wrappers_are_independent_roots(self):
        """Function equality is structural, so the external-root registry
        must key wrappers by identity: if it deduplicated equal wrappers
        (as a WeakSet would), dropping one would unroot the node a second,
        still-live wrapper denotes — and GC would recycle it under its
        feet.  Regression test for exactly that unsoundness."""
        mgr = BDDManager(["a", "b"], policy=ResourcePolicy.disabled())
        first = Function.var(mgr, "a") & Function.var(mgr, "b")
        second = Function.var(mgr, "a") & Function.var(mgr, "b")
        assert first == second and first is not second
        del first  # the equal twin must keep the node rooted
        mgr.collect_garbage()
        ids = {n: mgr.var_id(n) for n in "ab"}
        assert second.evaluate({ids["a"]: True, ids["b"]: True})
        assert not second.evaluate({ids["a"]: True, ids["b"]: False})
        # The node was not recycled: rebuilding the function finds it again.
        rebuilt = Function.var(mgr, "a") & Function.var(mgr, "b")
        assert rebuilt.node == second.node

    def test_dead_wrappers_leave_registry(self):
        mgr = BDDManager(["a"], policy=ResourcePolicy.disabled())
        before = len(mgr._external)
        f = Function.var(mgr, "a")
        assert len(mgr._external) == before + 1
        del f
        import gc as _pygc

        _pygc.collect()
        assert len(mgr._external) == before


class TestPins:
    def test_iter_cubes_survives_gc_between_yields(self):
        mgr = BDDManager(
            ["a", "b", "c", "d"], policy=ResourcePolicy.aggressive()
        )
        f = (Function.var(mgr, "a") & Function.var(mgr, "b")) | (
            Function.var(mgr, "c") & Function.var(mgr, "d")
        )
        node = f.node
        del f  # drop the only wrapper: the iterator's pin must keep the cone
        cubes = []
        for cube in mgr.iter_cubes(node):
            # Trigger safe points (and therefore forced GCs) mid-iteration.
            Function.var(mgr, "a")
            Function.var(mgr, "b") & Function.var(mgr, "c")
            cubes.append(cube)
        ids = {n: mgr.var_id(n) for n in "abcd"}
        # Every cube (free variables set to False where possible) satisfies
        # the original function, and the a&b path is among them.
        assert len(cubes) == 3
        assert {ids["a"]: True, ids["b"]: True} in cubes
        for cube in cubes:
            env = {ids[n]: False for n in "abcd"}
            env.update(cube)
            assert (env[ids["a"]] and env[ids["b"]]) or (
                env[ids["c"]] and env[ids["d"]]
            )
        assert not mgr._pinned  # unpinned on exhaustion


class TestCounters:
    def test_span_reports_gc_and_peak(self, names):
        mgr = BDDManager(names, policy=ResourcePolicy(gc_node_threshold=40))
        with Telemetry("off", mgr).span("burn") as span:
            _burn(mgr)
        stats = span.stats
        assert stats.gc_runs == mgr.gc_runs >= 1
        assert 0.0 <= stats.gc_seconds <= stats.seconds + 1.0
        assert stats.peak_live_nodes >= stats.nodes_live
        assert stats.peak_live_nodes >= 40

    def test_stats_addition_aggregates(self):
        a = WorkStats(seconds=1.0, gc_runs=2, gc_seconds=0.1, peak_live_nodes=50)
        b = WorkStats(seconds=2.0, gc_runs=1, gc_seconds=0.2, peak_live_nodes=80)
        total = a + b
        assert total.gc_runs == 3
        assert total.gc_seconds == pytest.approx(0.3)
        assert total.peak_live_nodes == 80

    def test_resource_stats_dict(self, names):
        mgr = BDDManager(names, policy=ResourcePolicy(gc_node_threshold=40))
        _burn(mgr)
        stats = mgr.resource_stats()
        assert stats["gc_runs"] == mgr.gc_runs
        assert stats["peak_live_nodes"] >= stats["nodes_live"]
        assert stats["gc_freed"] > 0
