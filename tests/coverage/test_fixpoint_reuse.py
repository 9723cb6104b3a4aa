"""Coverage reuses the fixpoints it already has instead of recomputing them.

Two reuses, each checked against the computation it replaced:

* ``C(SI, AG f)`` under fairness takes ``reachable & fair`` from the FSM's
  cached reachability instead of a fair-clipped search from the initial
  states.  ``_fair_bfs`` below is that search, kept as the reference.
* A trace step takes the predecessors of one state from a cofactor of the
  relation instead of a preimage (checked against
  ``preimage(state_cube(s)) & ring`` in ``tests/fsm/test_trace_steps.py``).

The counter pins on builtin ``pipeline@initial`` (fair, 81.25% covered, so
it has traces to render) fail on the code before either reuse: there the
``AG`` covered set ran 48 relational products (6 in mono mode) and three
traces ran 323.
"""

from pathlib import Path

import pytest

from repro.analysis import Analysis
from repro.coverage import CoverageEstimator, format_uncovered_traces
from repro.ctl import parse_ctl
from repro.engine import TRANS_MODES, EngineConfig
from repro.gen import GenParams, generate
from repro.lang import elaborate, load_module
from repro.suite import BUILTIN_TARGETS

ROOT = Path(__file__).resolve().parents[2]

#: Every shipped model (examples, corpus, builtins) with fairness.
FAIR_SHIPPED = (
    "examples/arbiter.rml",
    "examples/pipeline.rml",
    "pipeline@initial",
    "pipeline@augmented",
    "tests/corpus/gen_0.rml",
    "tests/corpus/gen_4.rml",
)


def _shipped_fsm(name):
    if name.endswith(".rml"):
        return elaborate(load_module(ROOT / name)).fsm
    target, _, stage = name.partition("@")
    return Analysis.builtin(target, stage=stage or None).fsm


def _all_shipped():
    paths = sorted(ROOT.glob("examples/*.rml")) + sorted(
        ROOT.glob("tests/corpus/*.rml")
    )
    names = [str(p.relative_to(ROOT)) for p in paths]
    for target in BUILTIN_TARGETS.values():
        names += [f"{target.name}@{stage}" for stage in target.stages] or [
            target.name
        ]
    return names


def _fair_bfs(fsm, start, fair):
    """Reference: the fair-clipped breadth-first search from ``start``."""
    reached = start & fair
    frontier = reached
    while not frontier.is_false():
        new = (fsm.image(frontier) & fair).diff(reached)
        reached = reached | new
        frontier = new
    return reached


def _assert_reuse_matches_bfs(fsm):
    estimator = CoverageEstimator(fsm)
    fair = estimator.checker.fair_states()
    reused = estimator._restricted_reachable_from(fsm.init)
    assert reused == _fair_bfs(fsm, fsm.init, fair)
    return reused


def test_fair_shipped_models_are_listed():
    shipped = _all_shipped()
    assert len(shipped) == 28
    fair = [name for name in shipped if _shipped_fsm(name).fairness]
    assert sorted(fair) == sorted(FAIR_SHIPPED)


@pytest.mark.parametrize("name", FAIR_SHIPPED)
def test_fair_ag_reach_matches_fair_bfs_on_shipped_models(name):
    _assert_reuse_matches_bfs(_shipped_fsm(name))


def test_gen_0_fair_clipping_is_not_vacuous():
    fsm = _shipped_fsm("tests/corpus/gen_0.rml")
    assert _assert_reuse_matches_bfs(fsm) != fsm.reachable()


@pytest.mark.parametrize("index", range(50))
def test_fair_ag_reach_matches_fair_bfs_on_generated_models(index):
    model = generate(f"fair-reuse:{index}", GenParams(p_fairness=1.0))
    fsm = model.analysis().fsm
    assert fsm.fairness
    _assert_reuse_matches_bfs(fsm)


def _relprods(fsm):
    stats = fsm.manager.resource_stats()
    return stats["relprod_hits"] + stats["relprod_misses"]


@pytest.mark.parametrize("trans", TRANS_MODES)
def test_fair_ag_covered_set_runs_no_relational_product(trans):
    analysis = Analysis.builtin(
        "pipeline", stage="initial", config=EngineConfig(trans=trans)
    )
    assert analysis.fsm.fairness
    analysis.coverage()
    before = _relprods(analysis.fsm)
    analysis.estimator.covered_set(parse_ctl("AG (output | !output)"), "output")
    assert _relprods(analysis.fsm) == before


@pytest.mark.parametrize("trans", TRANS_MODES)
def test_trace_rendering_runs_no_relational_product(trans):
    analysis = Analysis.builtin(
        "pipeline", stage="initial", config=EngineConfig(trans=trans)
    )
    report = analysis.coverage()
    assert report.percentage == 81.25
    before = _relprods(analysis.fsm)
    text = format_uncovered_traces(report, 3)
    assert text.count("trace to uncovered state") == 3
    assert _relprods(analysis.fsm) == before
