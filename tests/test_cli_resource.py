"""The CLI's resource-management surface: --gc-threshold / --gc-growth.

The flags are cost knobs, never result knobs: every combination must
produce the same coverage numbers as the default policy, while the suite
JSON exposes the GC/peak counters the policy controls.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine import EngineConfig
from repro.suite import builtin_job, default_jobs, execute_job

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _without_costs(text: str) -> str:
    """Coverage output minus the cost line — the one thing GC schedules
    are allowed (expected!) to change."""
    return "\n".join(
        line for line in text.splitlines() if "estimation cost" not in line
    )


class TestTargetMode:
    def test_gc_threshold_accepted_and_result_unchanged(self, capsys):
        assert main(["counter"]) == 0
        default_out = capsys.readouterr().out
        assert main(["counter", "--gc-threshold", "1"]) == 0
        forced_out = capsys.readouterr().out
        assert _without_costs(forced_out) == _without_costs(default_out)
        assert "100.00%" in forced_out

    def test_gc_threshold_zero_disables(self, capsys):
        assert main(["counter", "--gc-threshold", "0"]) == 0
        assert "100.00%" in capsys.readouterr().out

    def test_negative_threshold_rejected(self, capsys):
        # ConfigError maps to exit code 2 in main — no SystemExit from
        # helpers any more.
        assert main(["counter", "--gc-threshold", "-5"]) == 2
        assert "--gc-threshold must be >= 0" in capsys.readouterr().err

    def test_bad_gc_growth_rejected(self, capsys):
        assert main(["counter", "--gc-growth", "0.5"]) == 2
        assert "--gc-growth must be >= 1.0" in capsys.readouterr().err

    def test_auto_reorder_rejected(self, capsys):
        # Dynamic reordering is gone: the variable order is fixed when the
        # model is built, and the old flag is a usage error.
        with pytest.raises(SystemExit) as exc:
            main(["counter", "--auto-reorder"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --auto-reorder" in capsys.readouterr().err


class TestRunMode:
    def test_rml_with_resource_flags(self, capsys):
        path = str(EXAMPLES_DIR / "counter.rml")
        assert main(["run", path]) == 0
        default_out = capsys.readouterr().out
        assert main(["run", path, "--gc-threshold", "1"]) == 0
        assert _without_costs(capsys.readouterr().out) == _without_costs(
            default_out
        )


class TestSuiteMode:
    def test_flags_reach_jobs(self):
        config = EngineConfig(gc_threshold=12345, cache_threshold=77)
        jobs = default_jobs(config=config)
        assert jobs
        assert all(j.config == config for j in jobs)
        assert "--gc-threshold 12345" in jobs[0].describe()
        assert "--cache-threshold 77" in jobs[0].describe()

    def test_json_report_carries_gc_counters(self, capsys, tmp_path):
        out = tmp_path / "suite.json"
        assert (
            main(
                [
                    "suite",
                    "--no-builtins",
                    str(EXAMPLES_DIR),
                    "--json",
                    str(out),
                    "--gc-threshold",
                    "5000",
                ]
            )
            == 0
        )
        capsys.readouterr()
        report = json.loads(out.read_text())
        for job in report["jobs"]:
            assert "gc_runs" in job
            assert "gc_seconds" in job
            assert job["peak_live_nodes"] > 0
        totals = report["totals"]
        assert totals["gc_runs"] == sum(j["gc_runs"] for j in report["jobs"])
        assert totals["peak_live_nodes"] == max(
            j["peak_live_nodes"] for j in report["jobs"]
        )

    def test_forced_gc_percentages_match_default(self, capsys, tmp_path):
        default_json = tmp_path / "default.json"
        forced_json = tmp_path / "forced.json"
        argv = ["suite", "--no-builtins", str(EXAMPLES_DIR)]
        assert main(argv + ["--json", str(default_json)]) == 0
        assert main(argv + ["--json", str(forced_json), "--gc-threshold", "2000"]) == 0
        capsys.readouterr()

        def percentages(path):
            return {
                j["name"]: (j["percentage"], j["covered_states"], j["space_states"])
                for j in json.loads(path.read_text())["jobs"]
            }

        assert percentages(forced_json) == percentages(default_json)


class TestJobExecution:
    def test_builtin_job_with_policy_fields(self):
        job = builtin_job(
            "counter", "full",
            # Tiny threshold: the counter's live set is a few hundred
            # nodes, so this forces collections to actually happen.
            config=EngineConfig(gc_threshold=50),
        )
        result = execute_job(job)
        assert result.status == "ok"
        assert result.gc_runs >= 1
        assert result.peak_live_nodes > 0
        payload = result.to_json()
        assert payload["gc_runs"] == result.gc_runs

    def test_jobs_pickle_roundtrip(self):
        import pickle

        job = builtin_job(
            "counter", config=EngineConfig(gc_threshold=7, cache_threshold=77)
        )
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job
