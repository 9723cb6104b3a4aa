import itertools
from pathlib import Path

from perfbench import inputs

ROOT = Path(__file__).resolve().parents[2]


def _reachable_count(text: str) -> int:
    from repro.lang import elaborate, parse_module

    fsm = elaborate(parse_module(text)).fsm
    return fsm.count_states(fsm.reachable())


def test_pipeline_generator_matches_example_at_three_stages():
    from repro.circuits import build_pipeline

    ours = _reachable_count(
        inputs.pipeline_rml(3, inputs.retention_specs(3))
    )
    example = _reachable_count((ROOT / "examples" / "pipeline.rml").read_text())
    built = build_pipeline(stages=3)
    assert ours == example == built.count_states(built.reachable()) == 1024


def test_seed_fixes_pipeline_spec_order_only():
    assert inputs.deep_pipeline(4) == inputs.deep_pipeline(4)
    orders = {inputs.fair_pipeline(seed) for seed in range(8)}
    assert len(orders) > 1
    assert {sorted(text.splitlines()) == sorted(inputs.fair_pipeline(0).splitlines())
            for text in orders} == {True}


def test_seed_fixes_the_corpus():
    keys = inputs.corpus_keys(3, count=4)
    assert keys == inputs.corpus_keys(3, count=4)
    first = [gm.text for gm in inputs.generated(keys)]
    again = [gm.text for gm in inputs.generated(keys)]
    other = [gm.text for gm in inputs.generated(inputs.corpus_keys(4, count=4))]
    assert first == again
    assert first != other


def _schedule(seed, count=400):
    pool = [inputs.pipeline_rml(3, [spec]) for spec in inputs.retention_specs(3)]
    return list(itertools.islice(inputs.request_schedule(seed, pool), count))


def test_seed_fixes_the_request_schedule():
    assert _schedule(1) == _schedule(1)
    assert _schedule(1) != _schedule(2)


def test_schedule_classes_behave_as_named():
    seen = set()
    kinds = []
    for request in _schedule(5):
        kinds.append(request.kind)
        if request.kind == "warm":
            assert request.body in seen
        else:
            assert request.body not in seen
        seen.add(request.body)
    assert kinds[0] == "cold"
    for kind, share in (("cold", 0.25), ("warm", 0.55), ("edit", 0.20)):
        assert abs(kinds.count(kind) / len(kinds) - share) < 0.08


def test_renamed_changes_only_the_module_name():
    text = inputs.pipeline_rml(3, inputs.retention_specs(3))
    out = inputs.renamed(text, "_c7")
    assert out.splitlines()[0] == "MODULE pipeline3_c7"
    assert out.splitlines()[1:] == text.splitlines()[1:]
