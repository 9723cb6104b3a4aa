"""Parsed-module reuse and the AnalysisResult JSON round trip.

Satellite guarantees: ``Analysis.from_rml`` accepts an already-parsed
module (no second parse — pinned by the ``lang.parse_module`` counter),
``from_job`` threads a pre-parsed module through to the same result, and
``AnalysisResult.from_json`` inverts ``to_json`` exactly.
"""

import json

import pytest

from repro.analysis import Analysis, AnalysisResult
from repro.engine import EngineConfig
from repro.errors import ReportError
from repro.lang import parse_module
from repro.obs.counters import counter_delta
from repro.suite.jobs import CoverageJob
from repro.suite.runner import execute_job

RML = (
    "MODULE m\n"
    "VAR x : boolean;\n"
    "ASSIGN next(x) := !x;\n"
    "SPEC AG (x | !x);\n"
    "OBSERVED x;\n"
)


def stripped(result: AnalysisResult) -> dict:
    doc = result.to_json()
    doc["seconds"] = doc["gc_seconds"] = 0.0
    return doc


class TestFromRmlModuleReuse:
    def test_parsed_module_is_accepted(self):
        analysis = Analysis.from_rml(parse_module(RML))
        assert analysis.kind == "rml"
        assert analysis.module is not None
        assert analysis.result().status == "ok"

    def test_text_and_module_paths_agree(self):
        from_text = Analysis.from_rml(RML).result()
        from_module = Analysis.from_rml(parse_module(RML)).result()
        assert stripped(from_text) == stripped(from_module)

    def test_text_path_parses_exactly_once(self):
        with counter_delta("lang.parse_module") as parses:
            Analysis.from_rml(RML)
        assert parses() == 1

    def test_module_path_never_parses(self):
        module = parse_module(RML)
        with counter_delta("lang.parse_module") as parses:
            Analysis.from_rml(module).result()
        assert parses() == 0

    def test_from_job_reuses_a_preparsed_module(self):
        job = CoverageJob(
            name="rml:m", source=RML, config=EngineConfig()
        )
        module = parse_module(RML)
        with counter_delta("lang.parse_module") as parses:
            reused = Analysis.from_job(job, module=module).result()
        assert parses() == 0
        assert stripped(reused) == stripped(Analysis.from_job(job).result())


class TestExecuteJobHooks:
    def test_include_lint_false_omits_the_lint_block(self):
        job = CoverageJob(
            name="rml:m", source=RML, config=EngineConfig()
        )
        with_lint = execute_job(job).to_json()
        without = execute_job(job, include_lint=False).to_json()
        assert "lint" in with_lint
        assert "lint" not in without
        without["lint"] = with_lint["lint"]
        for doc in (with_lint, without):
            doc["seconds"] = doc["gc_seconds"] = 0.0
        assert with_lint == without


class TestAnalysisResultFromJson:
    def test_round_trips_a_real_analysis(self):
        # JSON-level identity is the wire contract (to_json rounds the
        # timing floats, so decode(encode(x)) re-encodes byte-identically
        # even though the pre-encoding object kept full float precision).
        result = Analysis.from_rml(RML).result()
        revived = AnalysisResult.from_json(result.to_json())
        assert json.dumps(revived.to_json(), sort_keys=True) == json.dumps(
            result.to_json(), sort_keys=True
        )
        assert revived.status == result.status
        assert revived.percentage == result.percentage

    def test_config_is_revived_as_an_engine_config(self):
        result = Analysis.from_rml(
            RML, config=EngineConfig(trans="mono")
        ).result()
        revived = AnalysisResult.from_json(result.to_json())
        assert isinstance(revived.config, EngineConfig)
        assert revived.config.trans == "mono"

    def test_unknown_fields_are_rejected(self):
        doc = AnalysisResult(name="n", kind="rml", status="ok").to_json()
        doc["surprise"] = 1
        with pytest.raises(ReportError, match="surprise"):
            AnalysisResult.from_json(doc)

    def test_missing_identity_fields_are_rejected(self):
        with pytest.raises(ReportError, match="status"):
            AnalysisResult.from_json({"name": "n", "kind": "rml"})

    def test_non_object_is_rejected(self):
        with pytest.raises(ReportError):
            AnalysisResult.from_json(["not", "a", "result"])
