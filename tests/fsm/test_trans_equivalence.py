"""Mono vs partitioned equivalence — the tentpole's safety net.

The two transition-relation modes must be *indistinguishable* in results:
identical reachable sets, byte-identical coverage summaries (percentages,
covered counts, per-property covered sets), and identical witness traces,
on every builtin target at every stage and on every shipped ``.rml``
model.  BDD canonicity makes this exact — both modes compute the same
state sets, hence the same nodes, hence the same enumeration order in
trace generation — so the assertions below compare rendered text, not
just counts.
"""

from pathlib import Path

import pytest

from repro.analysis import Analysis
from repro.coverage import CoverageEstimator, format_uncovered_traces
from repro.engine import EngineConfig
from repro.lang import elaborate, load_module
from repro.mc import ModelChecker
from repro.suite import BUILTIN_TARGETS

from ..builtins import builtin_model

MONO = EngineConfig(trans="mono")
PARTITIONED = EngineConfig(trans="partitioned")

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _all_builtin_cases():
    for target in BUILTIN_TARGETS.values():
        for stage in target.stages or (None,):
            yield pytest.param(
                target.name, stage, id=f"{target.name}@{stage or 'default'}"
            )


def _estimate(fsm, props, observed, dont_care):
    checker = ModelChecker(fsm)
    failing = [str(p) for p in props if not checker.holds(p)]
    if failing:
        return ("fail", tuple(failing))
    estimator = CoverageEstimator(fsm, checker=checker)
    report = estimator.estimate(props, observed=observed, dont_care=dont_care)
    per_property = tuple(
        fsm.count_states(pc.covered) for pc in report.per_property
    )
    traces = format_uncovered_traces(report, count=3)
    # Note: report.summary() is deliberately absent — it embeds the
    # estimation *cost* (nodes/seconds), which is exactly what the two
    # modes are allowed (expected!) to differ on.
    return (
        "ok",
        report.percentage,
        report.covered_count,
        report.space_count,
        per_property,
        report.format_uncovered(limit=8),
        traces,
    )


@pytest.mark.parametrize("name,stage", _all_builtin_cases())
def test_builtin_targets_mode_equivalent(name, stage):
    mono = builtin_model(name, stage=stage, config=MONO)
    part = builtin_model(name, stage=stage, config=PARTITIONED)
    fsm_m, props_m, obs_m, dc_m = mono
    fsm_p, props_p, obs_p, dc_p = part
    assert fsm_m.trans_mode == "mono"
    assert fsm_p.trans_mode == "partitioned"
    # Same model, same reachable set.
    assert fsm_m.count_states(fsm_m.reachable()) == fsm_p.count_states(
        fsm_p.reachable()
    )
    assert [fsm_m.count_states(r) for r in fsm_m.rings()] == [
        fsm_p.count_states(r) for r in fsm_p.rings()
    ]
    # Byte-identical coverage output.
    assert _estimate(fsm_m, props_m, obs_m, dc_m) == _estimate(
        fsm_p, props_p, obs_p, dc_p
    )


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.rml")), ids=lambda p: p.stem
)
def test_rml_examples_mode_equivalent(path):
    module = load_module(path)
    mono = elaborate(module, config=MONO)
    part = elaborate(module, config=PARTITIONED)
    assert mono.fsm.trans_mode == "mono"
    assert part.fsm.trans_mode == "partitioned"
    assert mono.fsm.count_states(mono.fsm.reachable()) == part.fsm.count_states(
        part.fsm.reachable()
    )
    assert _estimate(
        mono.fsm, mono.specs, mono.observed, mono.dont_care
    ) == _estimate(part.fsm, part.specs, part.observed, part.dont_care)


def test_counterexample_traces_mode_equivalent():
    """Failing properties produce the same counterexample trace in both
    modes (the buggy priority buffer from the paper's narrative; the
    augmented suite is the one that catches the planted bug)."""
    results = {}
    for trans in ("mono", "partitioned"):
        fsm, props, _obs, _dc = builtin_model(
            "buffer-lo", stage="augmented", buggy=True,
            config=EngineConfig(trans=trans),
        )
        checker = ModelChecker(fsm)
        traces = []
        for prop in props:
            result = checker.check(prop)
            if not result.holds:
                traces.append(
                    [fsm.format_state(s) for s in result.counterexample or []]
                )
        results[trans] = (len(props), traces)
    assert results["mono"] == results["partitioned"]
    # The narrative needs at least one failing property to compare.
    assert any(results["mono"][1])


def test_lazy_mono_transition_matches_eager():
    """Accessing ``transition`` on a partitioned FSM conjoins the same
    relation the mono build produced eagerly."""
    fsm_m, _, _, _ = builtin_model("queue-wrap", config=MONO)
    fsm_p, _, _, _ = builtin_model("queue-wrap", config=PARTITIONED)
    # Different managers — compare via satcount over all variables.
    all_vars = list(range(fsm_m.manager.num_vars))
    assert fsm_m.transition.satcount(all_vars) == fsm_p.transition.satcount(
        list(range(fsm_p.manager.num_vars))
    )


# ----------------------------------------------------------------------
# Facade equivalence — the API redesign's own safety net: driving the
# pipeline through Analysis must reproduce the hand-wired
# ModelChecker + CoverageEstimator flow byte for byte, in both modes.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("trans", ["mono", "partitioned"])
@pytest.mark.parametrize("name,stage", _all_builtin_cases())
def test_facade_matches_hand_wired_pipeline(name, stage, trans):
    config = EngineConfig(trans=trans)
    manual = _estimate(*builtin_model(name, stage=stage, config=config))
    analysis = Analysis.builtin(name, stage=stage, config=config)
    if not analysis.holds():
        facade = ("fail", tuple(str(r.formula) for r in analysis.failing()))
    else:
        report = analysis.coverage()
        fsm = analysis.fsm
        facade = (
            "ok",
            report.percentage,
            report.covered_count,
            report.space_count,
            tuple(fsm.count_states(pc.covered) for pc in report.per_property),
            report.format_uncovered(limit=8),
            analysis.uncovered_traces(3),
        )
    assert facade == manual


@pytest.mark.parametrize("trans", ["mono", "partitioned"])
@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.rml")), ids=lambda p: p.stem
)
def test_facade_matches_hand_wired_rml(path, trans):
    config = EngineConfig(trans=trans)
    model = elaborate(load_module(path), config=config)
    manual = _estimate(model.fsm, model.specs, model.observed, model.dont_care)
    analysis = Analysis.from_rml(path, config=config)
    assert analysis.holds()
    report = analysis.coverage()
    facade = (
        "ok",
        report.percentage,
        report.covered_count,
        report.space_count,
        tuple(
            analysis.fsm.count_states(pc.covered)
            for pc in report.per_property
        ),
        report.format_uncovered(limit=8),
        analysis.uncovered_traces(3),
    )
    assert facade == manual
