"""Golden cross-checks: each builtin circuit's commented twin in
``examples/`` matches the module text ``builtin_source`` renders — same
coverage percentage, same coverage space, same covered-state count.

The twins are written for people to read (comments, one SPEC per value
case); the generated text is what every tool runs.  Neither may drift.
"""

from pathlib import Path

import pytest

from repro.coverage import CoverageEstimator
from repro.lang import elaborate, load_module
from repro.mc import ModelChecker

from ..builtins import builtin_model

EXAMPLES_DIR = Path(__file__).resolve().parent.parent.parent / "examples"

#: .rml file -> the (target, stage) it re-expresses.
GOLDEN = [
    ("counter.rml", "counter", "full"),
    ("priority_buffer.rml", "buffer-lo", "augmented"),
    ("circular_queue.rml", "queue-wrap", "final"),
    ("pipeline.rml", "pipeline", "augmented"),
]


@pytest.mark.parametrize(
    "rml_name, target, stage", GOLDEN, ids=[g[0] for g in GOLDEN]
)
def test_twin_matches_generated_text(rml_name, target, stage):
    model = elaborate(load_module(EXAMPLES_DIR / rml_name))
    checker = ModelChecker(model.fsm)
    failing = [p for p in model.specs if not checker.holds(p)]
    assert not failing, f"{rml_name}: {failing}"
    rml_report = CoverageEstimator(model.fsm, checker=checker).estimate(
        model.specs, observed=model.observed, dont_care=model.dont_care
    )

    fsm, props, observed, dont_care = builtin_model(target, stage=stage)
    ref_report = CoverageEstimator(fsm).estimate(
        props, observed=observed, dont_care=dont_care
    )

    assert rml_report.space_count == ref_report.space_count
    assert rml_report.covered_count == ref_report.covered_count
    assert rml_report.percentage == ref_report.percentage


@pytest.mark.parametrize(
    "rml_name, target, stage", GOLDEN, ids=[g[0] for g in GOLDEN]
)
def test_rml_transition_structure_matches(rml_name, target, stage):
    """Beyond the percentage: same reachable-state count and fairness."""
    model = elaborate(load_module(EXAMPLES_DIR / rml_name))
    fsm, *_ = builtin_model(target, stage=stage)
    assert model.fsm.count_states(model.fsm.reachable()) == fsm.count_states(
        fsm.reachable()
    )
    assert len(model.fsm.fairness) == len(fsm.fairness)


@pytest.mark.parametrize(
    "rml_name", ["traffic_light.rml", "arbiter.rml"]
)
def test_new_models_verify_and_reach_full_coverage(rml_name):
    model = elaborate(load_module(EXAMPLES_DIR / rml_name))
    checker = ModelChecker(model.fsm)
    assert all(checker.holds(p) for p in model.specs)
    report = CoverageEstimator(model.fsm, checker=checker).estimate(
        model.specs, observed=model.observed, dont_care=model.dont_care
    )
    assert report.percentage == 100.0
