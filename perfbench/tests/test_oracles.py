from perfbench import inputs, oracles


def test_builtin_references_match_the_engine():
    from repro.analysis import Analysis

    for name in oracles.BUILTIN_COVERAGE:
        target, _, stage = name.partition("@")
        result = Analysis.builtin(target, stage=stage or None).result().to_json()
        assert oracles.matches(result, oracles.builtin_reference(name)), name


def test_generated_references_match_the_engine():
    from repro.analysis import Analysis

    refs = []
    for gm in inputs.generated(inputs.corpus_keys(0, count=12)):
        ref = oracles.generated_reference(gm.text, gm.module.name)
        result = Analysis.from_rml(gm.text).result().to_json()
        assert oracles.matches(result, ref), gm.seed_key
        refs.append(ref)
    assert any(ref and "covered_states" in ref for ref in refs)
    assert any(ref and ref["status"] == "fail" for ref in refs)


def test_matches_rejects_each_kind_of_wrong_answer():
    ref = {"status": "ok", "covered_states": 3, "space_states": 4}
    good = {"status": "ok", "covered_states": 3, "space_states": 4}
    assert oracles.matches(good, ref)
    assert oracles.matches(good, None)
    assert not oracles.matches(dict(good, status="fail"), ref)
    assert not oracles.matches(dict(good, covered_states=2), ref)
    failing = {"status": "fail", "failing_properties": ["AG p"]}
    assert oracles.matches(failing, {"status": "fail", "failing": 1})
    assert not oracles.matches(failing, {"status": "fail", "failing": 2})


def test_run_output_figures_are_read_from_the_summary():
    ref = {"covered_states": 512, "space_states": 768}
    line = "  covered 512 / 768 reachable states = 66.67%"
    assert oracles.run_output_matches(line, ref)
    assert not oracles.run_output_matches(line.replace("512", "511"), ref)
    assert not oracles.run_output_matches("no summary", ref)
