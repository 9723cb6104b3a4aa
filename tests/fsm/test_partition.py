"""Unit and property tests for :mod:`repro.fsm.partition`.

Four layers:

* schedule construction — every quantified variable placed exactly once, at
  the earliest legal step (the last scheduled conjunct mentioning it), with
  unmentioned variables pre-quantified, and the conjunct order equal to the
  plain greedy scan kept here as the reference;
* degenerate shapes — single conjunct, a variable shared by every
  conjunct, empty quantification sets;
* the clustered chain — legal, made only of neighbours that satisfy the
  clustering rule, on every shipped partition in both directions;
* ``TransitionPartition.relprod`` against the ground truth
  ``exists V . (S & T1 & ... & Tk)`` computed monolithically, both on
  random function sets (hypothesis) and on real circuits.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDDManager, Function
from repro.circuits import build_circular_queue, build_counter, build_pipeline
from repro.errors import ModelError
from repro.fsm import TransitionPartition, early_quantification_schedule
from repro.fsm.partition import _order_conjuncts, may_cluster, validate_trans_mode
from repro.lang import elaborate, load_module
from repro.suite import BUILTIN_TARGETS

from ..builtins import builtin_model

ROOT = Path(__file__).resolve().parents[2]

RML_MODELS = sorted(ROOT.glob("examples/*.rml")) + sorted(
    ROOT.glob("tests/corpus/*.rml")
)

BUILTIN_CASES = [
    (target.name, stage)
    for target in BUILTIN_TARGETS.values()
    for stage in target.stages or (None,)
]


def _shipped_fsms():
    """Every builtin target@stage and every example and corpus model, as
    ``pytest.param`` lazily building its FSM."""
    for name, stage in BUILTIN_CASES:
        yield pytest.param(
            lambda name=name, stage=stage: builtin_model(name, stage=stage)[0],
            id=f"{name}@{stage}",
        )
    for path in RML_MODELS:
        yield pytest.param(
            lambda path=path: elaborate(load_module(path)).fsm,
            id=f"{path.parent.name}/{path.stem}",
        )


SHIPPED = list(_shipped_fsms())


# ----------------------------------------------------------------------
# Schedule construction
# ----------------------------------------------------------------------


def _check_schedule(supports, quantify, schedule):
    """The invariants every legal early-quantification schedule satisfies."""
    supports = [frozenset(s) for s in supports]
    quantify = frozenset(quantify)
    # Permutation: every conjunct appears exactly once.
    assert sorted(step.conjunct for step in schedule.steps) == list(
        range(len(supports))
    )
    # Exactness: every quantified variable is quantified exactly once.
    placed = list(schedule.prequantify)
    for step in schedule.steps:
        placed.extend(step.quantify)
    assert sorted(placed) == sorted(quantify)
    # Pre-quantified variables are mentioned by no conjunct.
    mentioned = frozenset().union(*supports) if supports else frozenset()
    assert frozenset(schedule.prequantify) == quantify - mentioned
    # Earliest-legal placement: a variable is quantified at the LAST step
    # whose conjunct mentions it — earlier would be illegal (the variable
    # still occurs downstream), later would keep it alive needlessly.
    for i, step in enumerate(schedule.steps):
        for var in step.quantify:
            # Legal: no later conjunct mentions it ...
            for later in schedule.steps[i + 1:]:
                assert var not in supports[later.conjunct], (
                    f"variable {var} quantified at step {i} but mentioned "
                    f"by later conjunct {later.conjunct}"
                )
            # ... and earliest: it is mentioned AT its own step.
            assert var in supports[step.conjunct]


def test_schedule_places_each_variable_at_last_mention():
    supports = [frozenset({0, 1, 10}), frozenset({1, 2, 11}), frozenset({2, 12})]
    quantify = [0, 1, 2, 3]
    schedule = early_quantification_schedule(supports, quantify)
    _check_schedule(supports, quantify, schedule)
    # Variable 3 is mentioned nowhere: quantified straight out of the set.
    assert schedule.prequantify == (3,)
    # Whatever the order, variable 0 (only in conjunct 0) leaves at
    # conjunct 0's step, and 2 at the later of conjuncts 1/2.
    step_of = {step.conjunct: step for step in schedule.steps}
    assert 0 in step_of[0].quantify
    position = {step.conjunct: i for i, step in enumerate(schedule.steps)}
    assert 2 in schedule.steps[max(position[1], position[2])].quantify


def test_schedule_single_conjunct():
    """Degenerate: one latch — the whole quantification happens in one step."""
    supports = [frozenset({0, 1, 2})]
    schedule = early_quantification_schedule(supports, [0, 1])
    _check_schedule(supports, [0, 1], schedule)
    assert len(schedule.steps) == 1
    assert schedule.steps[0].quantify == (0, 1)
    assert schedule.prequantify == ()


def test_schedule_variable_shared_by_all_conjuncts():
    """Degenerate: a variable in every support can only leave at the end."""
    supports = [frozenset({0, 5}), frozenset({0, 6}), frozenset({0, 7})]
    schedule = early_quantification_schedule(supports, [0])
    _check_schedule(supports, [0], schedule)
    assert schedule.steps[-1].quantify == (0,)
    for step in schedule.steps[:-1]:
        assert step.quantify == ()


def test_schedule_empty_quantification():
    supports = [frozenset({0}), frozenset({1})]
    schedule = early_quantification_schedule(supports, [])
    assert schedule.prequantify == ()
    assert all(step.quantify == () for step in schedule.steps)
    assert schedule.quantified_vars() == frozenset()


def test_schedule_disjoint_supports_quantify_immediately():
    """With disjoint conjuncts every variable retires at its own step —
    the live quantified set never exceeds one conjunct's variables."""
    supports = [frozenset({i, 10 + i}) for i in range(6)]
    quantify = list(range(6))
    schedule = early_quantification_schedule(supports, quantify)
    _check_schedule(supports, quantify, schedule)
    for step in schedule.steps:
        assert step.quantify == (step.conjunct,)


@settings(max_examples=200, deadline=None)
@given(
    supports=st.lists(
        st.frozensets(st.integers(min_value=0, max_value=9), max_size=5),
        min_size=1,
        max_size=6,
    ),
    quantify=st.frozensets(st.integers(min_value=0, max_value=9), max_size=8),
)
def test_schedule_invariants_random(supports, quantify):
    schedule = early_quantification_schedule(supports, sorted(quantify))
    _check_schedule(supports, quantify, schedule)


def _reference_order(supports, quantify):
    """The greedy conjunct order as a plain scan: every remaining
    conjunct's scores recomputed at every step.  ``_order_conjuncts`` keeps
    the scores incrementally and must pick the same order."""
    remaining = list(range(len(supports)))
    mentions = {}
    for support in supports:
        for var in support & quantify:
            mentions[var] = mentions.get(var, 0) + 1
    active = set()
    order = []
    while remaining:
        best = None
        best_key = None
        for index in remaining:
            qvars = supports[index] & quantify
            freed = sum(1 for v in qvars if mentions[v] == 1)
            introduced = sum(
                1 for v in qvars if v not in active and mentions[v] > 1
            )
            key = (-freed, introduced, len(supports[index]), index)
            if best_key is None or key < best_key:
                best, best_key = index, key
        order.append(best)
        remaining.remove(best)
        for var in supports[best] & quantify:
            mentions[var] -= 1
            if mentions[var] == 0:
                active.discard(var)
            else:
                active.add(var)
    return order


@settings(max_examples=300, deadline=None)
@given(
    supports=st.lists(
        st.frozensets(st.integers(min_value=0, max_value=15), max_size=7),
        min_size=1,
        max_size=12,
    ),
    quantify=st.frozensets(st.integers(min_value=0, max_value=15)),
)
def test_order_matches_reference_scan_random(supports, quantify):
    assert _order_conjuncts(supports, quantify) == _reference_order(
        supports, quantify
    )


@pytest.mark.parametrize("build", SHIPPED)
def test_order_matches_reference_scan_on_shipped_partitions(build):
    fsm = build()
    supports = fsm.partition.supports()
    for quantify in (fsm.current_var_ids, fsm.next_var_ids):
        quantify = frozenset(quantify)
        assert _order_conjuncts(supports, quantify) == _reference_order(
            supports, quantify
        )


# ----------------------------------------------------------------------
# The clustered chain
# ----------------------------------------------------------------------


def _rule_holds(left, right):
    """The clustering rule's support half, spelled out: the two share a
    variable, and every shared variable sits above (has a smaller id
    than) every variable only one of them mentions."""
    shared = left & right
    owned = (left | right) - shared
    return bool(shared) and all(s < o for s in shared for o in owned)


@pytest.mark.parametrize(
    "left,right,expected",
    [
        ({0, 1, 5, 6}, {0, 1, 7, 8}, True),  # only the controls on top
        ({2, 3}, {2, 3}, True),  # identical supports own nothing
        ({0, 1}, {2, 3}, False),  # disjoint supports
        ({0, 3, 4}, {0, 4, 5}, False),  # shared 4 sits below private 3
    ],
)
def test_may_cluster_rule(left, right, expected):
    left, right = frozenset(left), frozenset(right)
    assert may_cluster(left, right) is expected
    assert _rule_holds(left, right) is expected


def _conjoin(partition, members):
    out = Function.true(partition.manager)
    for index in members:
        out = out & partition.conjuncts[index]
    return out


def _check_chain(partition, quantify):
    supports = partition.supports()
    schedule = partition.schedule(quantify)
    clusters = partition.chain(quantify)
    assert partition.chain(list(reversed(quantify))) is clusters  # cached
    # The clusters cut the schedule into consecutive runs, and each one
    # quantifies exactly its steps' variables.
    steps = iter(schedule.steps)
    for cluster in clusters:
        merged = [next(steps) for _ in cluster.conjuncts]
        assert cluster.conjuncts == tuple(step.conjunct for step in merged)
        assert cluster.quantify == tuple(
            sorted(v for step in merged for v in step.quantify)
        )
        assert cluster.relation == _conjoin(partition, cluster.conjuncts)
    assert next(steps, None) is None
    for i, cluster in enumerate(clusters):
        # Legal: nothing the cluster quantifies occurs in a later cluster.
        for later in clusters[i + 1:]:
            for index in later.conjuncts:
                assert not set(cluster.quantify) & supports[index]
        # Each member joined the cluster under the rule: it shares only
        # variables above everything either side owns (so never a
        # disjoint pair, never a shared variable below a private one),
        # and the conjunction did not outgrow the two parts.
        support = supports[cluster.conjuncts[0]]
        for k in range(1, len(cluster.conjuncts)):
            index = cluster.conjuncts[k]
            assert _rule_holds(support, supports[index])
            before = _conjoin(partition, cluster.conjuncts[:k])
            after = _conjoin(partition, cluster.conjuncts[:k + 1])
            assert after.size() <= before.size() + partition.conjuncts[index].size()
            support = support | supports[index]
    # Greedy: a cluster ends only where the next conjunct fails the rule.
    for left, right in zip(clusters, clusters[1:]):
        support = frozenset().union(*(supports[i] for i in left.conjuncts))
        first = right.conjuncts[0]
        if _rule_holds(support, supports[first]):
            merged = left.relation & partition.conjuncts[first]
            assert merged.size() > (
                left.relation.size() + partition.conjuncts[first].size()
            )
    return clusters


@pytest.mark.parametrize("build", SHIPPED)
def test_clustered_chain_is_legal_on_shipped_partitions(build):
    fsm = build()
    for quantify in (fsm.current_var_ids, fsm.next_var_ids):
        _check_chain(fsm.partition, quantify)


def test_pipeline_chain_clusters_each_stage():
    """The derived order puts the shared controls above the stages, so
    the two latches of a stage share only them and cluster: the image
    chain is about half as long as the partition."""
    fsm = build_pipeline(stages=30)
    clusters = _check_chain(fsm.partition, fsm.current_var_ids)
    fsm.reachable()
    chain_max_len = fsm.manager.resource_stats()["chain_max_len"]
    assert chain_max_len == len(clusters)
    assert chain_max_len <= len(fsm.partition) // 2 + 2


# ----------------------------------------------------------------------
# TransitionPartition.relprod vs monolithic ground truth
# ----------------------------------------------------------------------


def _random_function(manager, rng, names):
    """A random function as OR of random cubes."""
    out = Function.false(manager)
    for _ in range(rng.randint(1, 4)):
        cube = Function.true(manager)
        for name in names:
            choice = rng.randint(0, 2)
            if choice == 0:
                cube = cube & Function.var(manager, name)
            elif choice == 1:
                cube = cube & ~Function.var(manager, name)
        out = out | cube
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_relprod_matches_monolithic_random(seed):
    import random

    rng = random.Random(seed)
    names = ["a", "b", "c", "d", "e", "f"]
    manager = BDDManager(names)
    conjuncts = [
        _random_function(manager, rng, rng.sample(names, rng.randint(1, 4)))
        for _ in range(rng.randint(1, 4))
    ]
    states = _random_function(manager, rng, rng.sample(names, 3))
    quantify = [
        manager.var_id(n) for n in rng.sample(names, rng.randint(0, 6))
    ]

    partition = TransitionPartition(conjuncts)
    via_chain = partition.relprod(states, quantify)

    mono = states
    for conjunct in conjuncts:
        mono = mono & conjunct
    ground_truth = mono.exist(quantify)
    assert via_chain == ground_truth


@pytest.mark.parametrize(
    "build",
    [build_counter, build_circular_queue, lambda: build_pipeline(stages=6)],
    ids=["counter", "queue", "pipeline6"],
)
def test_relprod_matches_monolithic_on_circuits(build):
    fsm = build()
    assert fsm.partition is not None
    mono = fsm.transition  # lazily conjoined from the partition
    for states in (fsm.init, fsm.true_set(), fsm.image(fsm.init)):
        direct = mono.and_exists(states, fsm.current_var_ids)
        chained = fsm.partition.relprod(states, fsm.current_var_ids)
        assert direct == chained
        over_next = states.rename(fsm._cur_to_next)
        direct = mono.and_exists(over_next, fsm.next_var_ids)
        chained = fsm.partition.relprod(over_next, fsm.next_var_ids)
        assert direct == chained


def test_partition_schedule_cached_per_variable_set():
    fsm = build_counter()
    s1 = fsm.partition.schedule(fsm.current_var_ids)
    s2 = fsm.partition.schedule(list(reversed(fsm.current_var_ids)))
    assert s1 is s2  # keyed by frozenset, not order
    s3 = fsm.partition.schedule(fsm.next_var_ids)
    assert s3 is not s1


def test_preimage_schedule_retires_one_next_var_per_step():
    """Functional circuits: conjunct i mentions exactly one next variable,
    so the preimage schedule quantifies exactly it at that step and the
    free inputs' next copies up front."""
    fsm = build_circular_queue()
    schedule = fsm.partition.schedule(fsm.next_var_ids)
    input_nexts = sorted(fsm.next_ids[v] for v in fsm.inputs)
    assert sorted(schedule.prequantify) == input_nexts
    for step in schedule.steps:
        assert len(step.quantify) == 1


# ----------------------------------------------------------------------
# Validation / errors
# ----------------------------------------------------------------------


def test_partition_rejects_empty():
    with pytest.raises(ModelError):
        TransitionPartition([])


def test_partition_rejects_mixed_managers():
    m1, m2 = BDDManager(["x"]), BDDManager(["x"])
    with pytest.raises(ModelError):
        TransitionPartition([Function.var(m1, "x"), Function.var(m2, "x")])


def test_partition_rejects_label_mismatch():
    manager = BDDManager(["x"])
    with pytest.raises(ModelError):
        TransitionPartition([Function.var(manager, "x")], labels=["a", "b"])


def test_validate_trans_mode():
    assert validate_trans_mode("mono") == "mono"
    assert validate_trans_mode("partitioned") == "partitioned"
    with pytest.raises(ModelError):
        validate_trans_mode("magic")


def test_builder_rejects_unknown_trans_mode():
    from repro.engine import EngineConfig
    from repro.errors import ConfigError

    # The mode is validated where it now lives: on the config itself.
    with pytest.raises(ConfigError):
        EngineConfig(trans="nope")


def test_partition_labels_are_latch_names():
    fsm = build_counter()
    assert fsm.partition.labels == fsm.latches
