"""Tests for the suite runner: execution, parallelism, JSON reporting."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import AnalysisResult
from repro.engine import EngineConfig
from repro.errors import ConfigError, ReportError
from repro.suite import (
    JSON_SCHEMA_ID,
    JSON_SCHEMA_ID_V1,
    CoverageJob,
    builtin_job,
    builtin_jobs,
    execute_job,
    format_results,
    read_report,
    rml_job,
    run_jobs,
    suite_report,
    write_report,
)

EXAMPLES_DIR = Path(__file__).resolve().parent.parent.parent / "examples"

#: A small, fast job mix: builtin full/partial coverage, an .rml model,
#: a verification failure, and a parse error.
def _jobs():
    return [
        builtin_job("counter", "full"),
        builtin_job("counter", "partial"),
        rml_job(EXAMPLES_DIR / "traffic_light.rml"),
        replace(builtin_job("buffer-lo", "augmented", True), name="buggy"),
        CoverageJob(name="broken", path="broken.rml",
                    source="MODULE broken\nVAR\n  x : oops;\n"),
    ]


class TestExecuteJob:
    def test_ok_job(self):
        result = execute_job(_jobs()[0])
        assert result.status == "ok"
        assert result.percentage == 100.0
        assert result.covered_states == result.space_states == 20
        assert result.uncovered_states == 0
        assert result.observed == ["count"]
        assert result.properties == 11
        assert result.nodes_created > 0

    def test_partial_coverage_job(self):
        result = execute_job(_jobs()[1])
        assert result.status == "ok"
        assert result.percentage == pytest.approx(80.0)
        assert result.uncovered_states == 4

    def test_rml_job(self):
        result = execute_job(_jobs()[2])
        assert result.status == "ok"
        assert result.kind == "rml"
        assert result.model == "traffic_light"
        assert result.percentage == 100.0

    def test_failing_verification_is_fail_not_error(self):
        result = execute_job(_jobs()[3])
        assert result.status == "fail"
        assert result.percentage is None
        assert len(result.failing_properties) == 2
        assert result.properties == 7

    def test_parse_error_is_captured(self):
        result = execute_job(_jobs()[4])
        assert result.status == "error"
        assert "broken.rml" in result.error

    def test_rml_without_specs_errors(self):
        job = CoverageJob(
            name="no-specs", path="x.rml",
            source=(
                "MODULE x\nVAR\n  a : boolean;\nASSIGN\n  next(a) := !a;\n"
                "OBSERVED a;\n"
            ),
        )
        result = execute_job(job)
        assert result.status == "error"
        assert "SPEC" in result.error

    def test_failing_job_nodes_created_is_a_delta(self):
        # Same meaning as the ok path: work during verify/estimate, not the
        # manager's absolute node total (which includes the FSM build).
        result = execute_job(_jobs()[3])
        ok = execute_job(_jobs()[0])
        assert result.status == "fail" and ok.status == "ok"
        assert 0 < result.nodes_created
        # buffer-lo model checking alone creates far more nodes than a
        # trivial manager's constants-plus-build baseline.
        assert result.nodes_created > 100

    def test_rml_without_observed_errors(self):
        job = CoverageJob(
            name="no-observed", path="x.rml",
            source=(
                "MODULE x\nVAR\n  a : boolean;\nASSIGN\n  next(a) := !a;\n"
                "SPEC AG (a -> AX !a);\n"
            ),
        )
        result = execute_job(job)
        assert result.status == "error"
        assert "OBSERVED" in result.error


class TestRunJobs:
    def test_serial_execution_order_preserved(self):
        jobs = _jobs()
        results = run_jobs(jobs, max_workers=1)
        assert [r.name for r in results] == [j.name for j in jobs]

    def test_parallel_matches_serial(self):
        jobs = _jobs()
        serial = run_jobs(jobs, max_workers=1)
        parallel = run_jobs(jobs, max_workers=4)
        assert [r.name for r in parallel] == [r.name for r in serial]
        for s, p in zip(serial, parallel):
            assert p.status == s.status
            assert p.percentage == s.percentage
            assert p.covered_states == s.covered_states
            assert p.space_states == s.space_states
            assert p.failing_properties == s.failing_properties


class TestReporting:
    def test_suite_report_schema(self):
        results = run_jobs(_jobs(), max_workers=1)
        report = suite_report(results, seconds=1.25)
        assert report["schema"] == JSON_SCHEMA_ID
        assert report["generator"].startswith("repro ")
        assert len(report["jobs"]) == len(results)
        totals = report["totals"]
        assert totals["jobs"] == 5
        assert totals["ok"] == 3
        assert totals["failed"] == 1
        assert totals["errors"] == 1
        assert totals["full_coverage"] == 2
        assert totals["seconds"] == 1.25
        first = report["jobs"][0]
        for key in ("name", "kind", "status", "model", "stage", "path",
                    "config", "observed", "properties", "percentage",
                    "covered_states", "space_states", "uncovered_states",
                    "failing_properties", "error", "seconds",
                    "nodes_created"):
            assert key in first

    def test_every_job_embeds_a_round_trippable_config(self):
        config = EngineConfig(trans="mono", gc_threshold=9999)
        jobs = [
            builtin_job("counter", "full", config=config),
            CoverageJob(name="broken", path="broken.rml",
                        source="MODULE broken\nVAR\n  x : oops;\n",
                        config=config),
        ]
        report = suite_report(run_jobs(jobs, max_workers=1))
        # Every job — including errored ones — records its config, and the
        # embedded object revives to the exact config the job carried.
        for job_json in report["jobs"]:
            assert EngineConfig.from_json(job_json["config"]) == config

    def test_report_is_json_serialisable(self, tmp_path):
        results = run_jobs(_jobs()[:2], max_workers=1)
        out = tmp_path / "report.json"
        write_report(results, out)
        loaded = json.loads(out.read_text())
        assert loaded["schema"] == JSON_SCHEMA_ID
        assert loaded["jobs"][0]["percentage"] == 100.0

    def test_read_report_round_trips(self, tmp_path):
        results = run_jobs(_jobs()[:2], max_workers=1)
        out = tmp_path / "report.json"
        write_report(results, out)
        loaded = read_report(out)
        assert loaded["schema"] == JSON_SCHEMA_ID
        configs = [
            EngineConfig.from_json(j["config"]) for j in loaded["jobs"]
        ]
        assert configs == [EngineConfig(), EngineConfig()]

    def test_stale_backend_key_loads_but_does_not_revive(self, tmp_path):
        # Reports written while the engine had a ``backend`` knob carry it
        # in every job config.  read_report never revives configs, so it
        # still loads them; reviving one is a ConfigError naming the key.
        results = run_jobs(_jobs()[:1], max_workers=1)
        out = tmp_path / "report.json"
        write_report(results, out)
        document = json.loads(out.read_text())
        document["jobs"][0]["config"]["backend"] = "dict"
        out.write_text(json.dumps(document))
        job_json = read_report(out)["jobs"][0]
        with pytest.raises(ConfigError, match="backend"):
            EngineConfig.from_json(job_json["config"])
        with pytest.raises(ConfigError, match="backend"):
            AnalysisResult.from_json(job_json)

    def test_read_report_rejects_v1_with_version_mismatch(self, tmp_path):
        out = tmp_path / "old.json"
        out.write_text(json.dumps({
            "schema": JSON_SCHEMA_ID_V1, "generator": "repro 0.9",
            "jobs": [], "totals": {},
        }))
        with pytest.raises(ReportError, match="version mismatch"):
            read_report(out)

    def test_read_report_rejects_unknown_schema(self, tmp_path):
        out = tmp_path / "odd.json"
        out.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ReportError, match="unrecognised schema"):
            read_report(out)

    def test_read_report_rejects_non_json(self, tmp_path):
        out = tmp_path / "junk.json"
        out.write_text("not json at all")
        with pytest.raises(ReportError, match="not valid JSON"):
            read_report(out)

    def test_read_report_rejects_structurally_empty_document(self, tmp_path):
        out = tmp_path / "hollow.json"
        out.write_text(json.dumps({"schema": JSON_SCHEMA_ID}))
        with pytest.raises(ReportError, match="'jobs' list"):
            read_report(out)
        out.write_text(json.dumps({"schema": JSON_SCHEMA_ID, "jobs": []}))
        with pytest.raises(ReportError, match="'totals' object"):
            read_report(out)

    def test_format_results_lines(self):
        results = run_jobs(_jobs(), max_workers=1)
        text = format_results(results)
        assert "counter@full" in text
        assert "FAIL" in text
        assert "ERROR" in text
        assert "5 job(s): 3 ok, 1 failed, 1 error(s)" in text


@pytest.mark.slow
class TestFullRegistry:
    def test_all_builtin_jobs_verify(self):
        results = run_jobs(builtin_jobs(), max_workers=1)
        assert all(r.status == "ok" for r in results), [
            (r.name, r.status, r.error) for r in results if r.status != "ok"
        ]
