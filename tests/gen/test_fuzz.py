"""Fuzz campaign driver: budgets, parallelism, reports, CLI contract."""

import json
import os

import pytest

from repro.cli import main
from repro.gen import FUZZ_SCHEMA_ID, GenParams, case_key, run_fuzz
from repro.gen import fuzz as fuzz_mod
from repro.obs.counters import counter_delta

#: The unpatched worker, captured so the crash-injection wrapper can
#: delegate for every non-sabotaged case.
_REAL_RUN_ONE = fuzz_mod._run_one


def _crashy_run_one(args):
    """Kill the worker process outright on case index 3 — the bug class
    (segfaults, OOM kills) a fuzz campaign must survive, not report."""
    _seed, index, _params, _axes = args
    if index == 3:
        os._exit(29)
    return _REAL_RUN_ONE(args)


def _normalised(result):
    data = result.to_json()
    data["totals"].pop("seconds", None)
    return data


class TestRunFuzz:
    def test_small_budget_agrees(self):
        result = run_fuzz(budget=5, seed=11)
        assert result.ok
        assert result.cases == 5
        assert not result.findings and not result.errors

    def test_report_is_schema_tagged_and_json_safe(self):
        result = run_fuzz(budget=3, seed=11)
        data = result.to_json()
        assert data["schema"] == FUZZ_SCHEMA_ID
        assert data["totals"]["cases"] == 3
        json.dumps(data)  # must be serialisable as-is

    def test_campaign_is_deterministic(self):
        assert _normalised(run_fuzz(budget=4, seed=5)) == _normalised(
            run_fuzz(budget=4, seed=5)
        )

    def test_parallel_matches_serial(self):
        serial = run_fuzz(budget=6, seed=3, jobs=1)
        parallel = run_fuzz(budget=6, seed=3, jobs=2)
        assert _normalised(serial) == _normalised(parallel)

    def test_offset_selects_case_window(self):
        result = run_fuzz(budget=2, seed=9, offset=40)
        assert result.offset == 40
        assert result.ok

    def test_case_key_shape(self):
        assert case_key(3, 17) == "3:17"


class TestCrashResilience:
    def test_worker_crash_keeps_completed_verdicts(self, monkeypatch):
        """A worker dying mid-campaign (the old ``pool.map`` raised
        ``BrokenProcessPool`` and lost everything) now costs exactly the
        crashed case: every other verdict survives, and the dead case
        becomes an error entry that keeps its seed-key handle."""
        monkeypatch.setattr(fuzz_mod, "_run_one", _crashy_run_one)
        result = run_fuzz(budget=6, seed=11, jobs=2, shrink=False)
        assert result.cases == 6
        assert not result.findings
        assert len(result.errors) == 1
        error = result.errors[0]
        assert error["seed_key"] == case_key(11, 3)
        assert "crashed" in error["error"]
        assert not result.ok
        assert result.to_json()["totals"]["agreed"] == 5

    def test_parallel_campaign_feeds_fuzz_shard_counters(self):
        with counter_delta("fuzz.shards.runs") as runs:
            result = run_fuzz(budget=4, seed=11, jobs=2)
        assert result.ok
        assert runs() == 4  # one shard per case at this budget


class TestFuzzCli:
    def test_green_run_exits_zero(self, capsys, tmp_path):
        report = tmp_path / "fuzz.json"
        code = main([
            "fuzz", "--budget", "4", "--seed", "2",
            "--json", str(report), "--corpus", str(tmp_path / "corpus"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 disagreement(s)" in out
        data = json.loads(report.read_text())
        assert data["schema"] == FUZZ_SCHEMA_ID
        assert data["totals"]["agreed"] == 4
        # No disagreements -> no reproducers written.
        assert not (tmp_path / "corpus").exists()

    # ``backend`` was an axis until the BDD engine had a single node store.
    @pytest.mark.parametrize("axis", ["nope", "backend"])
    def test_unknown_axis_is_usage_error(self, capsys, axis):
        assert main(["fuzz", "--budget", "1", "--axes", axis]) == 2
        assert "unknown oracle axis" in capsys.readouterr().err

    def test_bad_budget_is_usage_error(self, capsys):
        assert main(["fuzz", "--budget", "0"]) == 2

    def test_bad_generator_params_are_usage_errors(self, capsys):
        assert main(["fuzz", "--budget", "1", "--max-latches", "0"]) == 2
        assert "max_bool_latches" in capsys.readouterr().err

    def test_param_flags_reach_the_generator(self, capsys, tmp_path):
        code = main([
            "fuzz", "--budget", "2", "--seed", "0",
            "--max-latches", "1", "--max-inputs", "0",
            "--corpus", str(tmp_path),
        ])
        assert code == 0

    def test_params_flow_into_report(self, tmp_path):
        report = tmp_path / "fuzz.json"
        main([
            "fuzz", "--budget", "1", "--max-latches", "2",
            "--json", str(report), "--corpus", str(tmp_path / "c"),
        ])
        data = json.loads(report.read_text())
        assert GenParams.from_json(data["params"]).max_bool_latches == 2
