"""GC safety: forced collection at every safe point changes no result.

Two granularities of safe point are stressed:

* **Top-level operations** — the granularity the resource manager is
  specified against ("between top-level operations, never mid-recursion").
  ``_forced_gc_report`` reruns the full verify + estimate flow for a model
  with an explicit ``collect_garbage()`` after *every* top-level step
  (each property check, the coverage-space computation, each covered-set,
  trace generation) and must reproduce the default-policy report
  byte-for-byte on every builtin target at every stage and every shipped
  ``.rml`` model.

* **Wrapper creation** — the engine's finest-grained safe point.
  :meth:`ResourcePolicy.aggressive` collects at every single ``Function``
  creation — thousands of collections per model — on every builtin
  target and every ``.rml`` example.  (Affordable because a sweep that
  frees nothing keeps the operation caches.)

A marking bug, a missing root (live wrapper, pinned iterator), or a
prematurely recycled slot shows up here as a diff.  The original
WeakSet-based root registry failed exactly these tests: structural
``Function`` equality collapsed equal wrappers into one registry entry,
so dropping one unrooted the node its live twin still denoted.

Each transition-relation mode keeps different long-lived roots (one
monolithic relation BDD, or the per-latch conjuncts with their
quantification schedule), so GC safety is proven per mode: the ``.rml``
and wrapper-granularity tests run once per mode, and the builtin
top-level test runs on the default mode while
``test_mono_vs_partitioned_identical_under_forced_gc`` pins ``mono`` to it.
"""

import itertools
from pathlib import Path

import pytest

from repro.bdd import BDDManager, Function, ResourcePolicy
from repro.coverage import CoverageEstimator, format_uncovered_traces
from repro.coverage.report import CoverageReport, PropertyCoverage
from repro.engine import TRANS_MODES, EngineConfig
from repro.lang import elaborate, load_module
from repro.mc import ModelChecker
from repro.obs import WorkStats
from repro.suite import BUILTIN_TARGETS

from ..builtins import builtin_model

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


PER_TRANS_MODE = pytest.mark.parametrize("trans", TRANS_MODES)


def _aggressive(trans):
    """Forced GC at every wrapper-creation safe point (small models only)
    — the config form of :meth:`ResourcePolicy.aggressive`."""
    return EngineConfig(trans=trans, gc_threshold=1, gc_growth=1.0)


def _all_builtin_cases():
    for target in BUILTIN_TARGETS.values():
        for stage in target.stages or (None,):
            yield pytest.param(
                target.name, stage, id=f"{target.name}@{stage or 'default'}"
            )


def _render(fsm, report, failing):
    """Everything user-visible about a run, costs excluded (GC schedules
    are supposed to change costs, never results)."""
    if failing:
        return ("fail", tuple(failing))
    return (
        "ok",
        report.percentage,
        report.covered_count,
        report.space_count,
        tuple(fsm.count_states(pc.covered) for pc in report.per_property),
        report.format_uncovered(limit=8),
        format_uncovered_traces(report, count=3),
    )


def _default_report(fsm, props, observed, dont_care):
    checker = ModelChecker(fsm)
    failing = [str(p) for p in props if not checker.holds(p)]
    if failing:
        return _render(fsm, None, failing)
    estimator = CoverageEstimator(fsm, checker=checker)
    report = estimator.estimate(props, observed=observed, dont_care=dont_care)
    return _render(fsm, report, [])


def _forced_gc_report(fsm, props, observed, dont_care):
    """The same flow with ``collect_garbage()`` after every top-level step."""
    manager = fsm.manager
    checker = ModelChecker(fsm)
    failing = []
    for prop in props:
        if not checker.holds(prop):
            failing.append(str(prop))
        manager.collect_garbage()
    if failing:
        return _render(fsm, None, failing)
    estimator = CoverageEstimator(fsm, checker=checker)
    observed_list = estimator._observed_list(observed)
    space = estimator.coverage_space(dont_care)
    manager.collect_garbage()
    per_property = []
    total = fsm.empty_set()
    for prop in props:
        covered = estimator.covered_set(prop, observed_list, verify=False)
        manager.collect_garbage()
        covered = covered & space
        manager.collect_garbage()
        per_property.append(
            PropertyCoverage(formula=prop, covered=covered, stats=WorkStats())
        )
        total = total | covered
        manager.collect_garbage()
    report = CoverageReport(
        fsm=fsm,
        observed=observed_list,
        space=space,
        covered=total,
        per_property=per_property,
    )
    rendered = _render(fsm, report, [])
    manager.collect_garbage()
    # Re-render after one more sweep: enumeration-backed strings (uncovered
    # cubes, traces) must not depend on dead nodes either.
    assert _render(fsm, report, []) == rendered
    return rendered


@pytest.mark.parametrize("name,stage", _all_builtin_cases())
def test_builtin_reports_identical_under_forced_gc(name, stage):
    default = _default_report(*builtin_model(name, stage=stage))
    forced = _forced_gc_report(*builtin_model(name, stage=stage))
    assert forced == default


@PER_TRANS_MODE
@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.rml")), ids=lambda p: p.stem
)
def test_rml_reports_identical_under_forced_gc(path, trans):
    module = load_module(path)
    config = EngineConfig(trans=trans)
    default = elaborate(module, config=config)
    forced = elaborate(module, config=config)
    assert _forced_gc_report(
        forced.fsm, forced.specs, forced.observed, forced.dont_care
    ) == _default_report(
        default.fsm, default.specs, default.observed, default.dont_care
    )


@pytest.mark.parametrize("name,stage", _all_builtin_cases())
def test_mono_vs_partitioned_identical_under_forced_gc(name, stage):
    """The mono/partitioned equivalence guarantee survives the densest GC
    schedule (the tentpole's acceptance criterion)."""
    mono = _forced_gc_report(
        *builtin_model(
            name, stage=stage,
            config=EngineConfig(trans="mono"),
        )
    )
    part = _forced_gc_report(
        *builtin_model(
            name, stage=stage,
            config=EngineConfig(trans="partitioned"),
        )
    )
    assert mono == part


class TestWrapperGranularity:
    """GC at every single wrapper-creation safe point, everywhere."""

    @PER_TRANS_MODE
    @pytest.mark.parametrize("name,stage", _all_builtin_cases())
    def test_builtin_identical_under_aggressive_policy(
        self, name, stage, trans
    ):
        default = _default_report(
            *builtin_model(name, stage=stage, config=EngineConfig(trans=trans))
        )
        fsm, props, obs, dc = builtin_model(
            name, stage=stage, config=_aggressive(trans)
        )
        assert _default_report(fsm, props, obs, dc) == default
        assert fsm.manager.gc_runs > 100  # it really collected

    @PER_TRANS_MODE
    @pytest.mark.parametrize(
        "path", sorted(EXAMPLES.glob("*.rml")), ids=lambda p: p.stem
    )
    def test_rml_identical_under_aggressive_policy(self, path, trans):
        module = load_module(path)
        default = elaborate(module, config=EngineConfig(trans=trans))
        forced = elaborate(module, config=_aggressive(trans))
        assert _default_report(
            forced.fsm, forced.specs, forced.observed, forced.dont_care
        ) == _default_report(
            default.fsm, default.specs, default.observed, default.dont_care
        )
        assert forced.fsm.manager.gc_runs > 100


def test_live_wrappers_denote_same_functions_across_gc():
    """Function wrappers survive any number of collections unchanged."""
    names = [f"b{i}" for i in range(6)]
    mgr = BDDManager(names, policy=ResourcePolicy.disabled())
    funcs = []
    # A spread of shapes: literals, conjunctions, parities, implications.
    for i in range(6):
        v = Function.var(mgr, names[i])
        w = Function.var(mgr, names[(i + 2) % 6])
        funcs.extend([v & w, v ^ w, v.implies(w), ~v | (w & v)])
    ids = [mgr.var_id(n) for n in names]
    envs = [
        dict(zip(ids, bits))
        for bits in itertools.product([False, True], repeat=len(ids))
    ]
    before = [[f.evaluate(e) for e in envs] for f in funcs]
    for _ in range(5):
        mgr.collect_garbage()
        # New work between collections, recycling freed slots.
        Function.var(mgr, names[0]) & Function.var(mgr, names[5])
    assert [[f.evaluate(e) for e in envs] for f in funcs] == before
