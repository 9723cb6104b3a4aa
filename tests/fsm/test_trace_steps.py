"""A trace step's predecessor set equals the preimage it replaced.

``FSM.shortest_trace`` walks the breadth-first rings backwards, taking the
predecessors of one state from the relation cofactored at that state
instead of a relational product.  The result must be the same BDD as
``preimage(state_cube(s)) & ring`` — the reference kept here — or traces
would pick different states.  Checked for up to four states of every ring
of every shipped model (examples, corpus, builtins), in both transition
modes.  In partitioned mode the per-conjunct cofactors are memoised, so a
repeated trace does no cofactor work at all.
"""

from itertools import islice
from pathlib import Path

import pytest

from repro.analysis import Analysis
from repro.engine import TRANS_MODES, TRANS_PARTITIONED, EngineConfig
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


def _assert_predecessors_match_preimage(fsm):
    rings = fsm.rings()
    for k in range(1, len(rings)):
        for state in islice(fsm.iter_states(rings[k]), 4):
            reference = fsm.preimage(fsm.state_cube(state)) & rings[k - 1]
            assert fsm._predecessors(state, rings[k - 1]) == reference
            assert not reference.is_false()


@pytest.mark.parametrize("trans", TRANS_MODES)
@pytest.mark.parametrize(
    "path", RML_MODELS, ids=lambda p: f"{p.parent.name}/{p.stem}"
)
def test_rml_predecessors_match_preimage(path, trans):
    fsm = elaborate(load_module(path), config=EngineConfig(trans=trans)).fsm
    assert fsm.trans_mode == trans
    _assert_predecessors_match_preimage(fsm)


@pytest.mark.parametrize("trans", TRANS_MODES)
@pytest.mark.parametrize(
    "name,stage", BUILTIN_CASES, ids=[f"{n}@{s}" for n, s in BUILTIN_CASES]
)
def test_builtin_predecessors_match_preimage(name, stage, trans):
    fsm = builtin_model(name, stage=stage, config=EngineConfig(trans=trans))[0]
    assert fsm.trans_mode == trans
    _assert_predecessors_match_preimage(fsm)


def test_repeat_trace_reuses_partition_cofactors():
    config = EngineConfig(trans=TRANS_PARTITIONED)
    fsm = builtin_model("pipeline", stage="initial", config=config)[0]
    target = fsm.state_cube(next(fsm.iter_states(fsm.rings()[-1])))
    first = fsm.shortest_trace(target)
    assert len(first) > 2
    misses = fsm.manager.resource_stats()["restrict_misses"]
    assert misses > 0
    assert fsm.shortest_trace(target) == first
    assert fsm.manager.resource_stats()["restrict_misses"] == misses


def test_pipeline_trace_nodes_pinned():
    """A trace step conjoins the cofactors and then the ring, as one
    balanced tree.  The ring constrains every stage, so joining it first
    (as the tree once did) paid for it in every per-stage product: the
    same trace built 178 nodes."""
    analysis = Analysis.builtin("pipeline", stage="initial")
    analysis.coverage()
    manager = analysis.fsm.manager
    before = manager.resource_stats()["nodes_created"]
    analysis.uncovered_traces(1)
    assert manager.resource_stats()["nodes_created"] - before <= 152
