"""`repro bench`: workloads, baseline codec, the regression gate."""

import json

import pytest

from repro.cli import main
from repro.obs import BENCH_WORKLOADS, run_workload, write_baseline
from repro.obs.bench import (
    ABS_SLACK,
    BENCH_SCHEMA,
    GATED_COUNTERS,
    baseline_path,
    compare_result,
    load_baseline,
    run_bench,
)


@pytest.fixture(scope="module")
def counter_result():
    """One real measured run, shared across this module's tests."""
    return run_workload(BENCH_WORKLOADS["counter-full"])


class TestWorkloads:
    def test_registry_names_are_filename_safe(self):
        for name in BENCH_WORKLOADS:
            assert "/" not in name and " " not in name

    def test_run_workload_captures_counters(self, counter_result):
        assert counter_result.status == "ok"
        assert counter_result.percentage == 100.0
        for key in GATED_COUNTERS:
            assert key in counter_result.counters
        assert counter_result.counters["nodes_created"] > 0
        assert counter_result.wall_seconds > 0

    def test_derived_op_aggregates(self, counter_result):
        counters = counter_result.counters
        assert counters["op_misses"] == sum(
            counters[f"{kind}_misses"]
            for kind in ("and", "or", "xor", "not",
                         "quant", "restrict", "relprod")
        )
        assert counters["op_hits"] > 0

    def test_counters_are_deterministic(self):
        a = run_workload(BENCH_WORKLOADS["counter-full"])
        b = run_workload(BENCH_WORKLOADS["counter-full"])
        assert a.counters == b.counters

    def test_gc_stress_workload_actually_collects(self):
        result = run_workload(BENCH_WORKLOADS["counter-gc-stress"])
        assert result.counters["gc_runs"] > 0
        assert result.counters["gc_freed"] > 0

    def test_serve_cache_workload_counts_exactly_one_analysis(self):
        """The cached-serving workload repeats the request 4×, but with a
        working result cache its summed counters equal one direct run —
        the property the committed baseline gates."""
        from repro.analysis import Analysis

        result = run_workload(BENCH_WORKLOADS["serve_cache"])
        assert result.status == "ok"
        direct = Analysis.builtin("queue-wrap", stage="extended")
        direct.result()
        stats = direct.fsm.manager.resource_stats()
        stats["op_misses"] = sum(
            stats[f"{kind}_misses"]
            for kind in ("and", "or", "xor", "not",
                         "quant", "restrict", "relprod")
        )
        for key in GATED_COUNTERS:
            assert result.counters[key] == stats[key], key

    def test_run_bench_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown bench workload"):
            run_bench(["counter-full", "warp-core"])


class TestBaselineCodec:
    def test_write_and_load_round_trip(self, counter_result, tmp_path):
        path = write_baseline(counter_result, tmp_path)
        assert path == baseline_path(tmp_path, "counter-full")
        data = load_baseline(path)
        assert data["schema"] == BENCH_SCHEMA
        assert data["counters"] == counter_result.counters
        assert data["gated"] == list(GATED_COUNTERS)
        assert data["config"]["trans"] == "partitioned"

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"schema": "other/v9"}))
        with pytest.raises(ValueError, match="not a repro-bench/v1"):
            load_baseline(path)


class TestCompare:
    def test_identical_run_passes(self, counter_result, tmp_path):
        baseline = load_baseline(write_baseline(counter_result, tmp_path))
        regressions, notes = compare_result(counter_result, baseline)
        assert regressions == []
        assert any("wall" in n for n in notes)

    def test_counter_regression_detected(self, counter_result, tmp_path):
        baseline = load_baseline(write_baseline(counter_result, tmp_path))
        # Shrink the recorded baseline so the fresh run exceeds tolerance.
        shrunk = (
            counter_result.counters["nodes_created"] - ABS_SLACK
        ) / 1.2
        baseline["counters"]["nodes_created"] = int(shrunk)
        regressions, _ = compare_result(
            counter_result, baseline, tolerance=0.10
        )
        assert any("nodes_created regressed" in r for r in regressions)

    def test_small_counters_get_absolute_slack(self, counter_result, tmp_path):
        baseline = load_baseline(write_baseline(counter_result, tmp_path))
        # gc_runs 0 -> small positive would fail a purely relative gate.
        baseline["counters"]["gc_runs"] = 0
        fresh = counter_result
        fresh.counters["gc_runs"] = ABS_SLACK // 2
        regressions, _ = compare_result(fresh, baseline)
        assert regressions == []

    def test_outcome_drift_is_a_regression(self, counter_result, tmp_path):
        baseline = load_baseline(write_baseline(counter_result, tmp_path))
        baseline["percentage"] = 80.0
        regressions, _ = compare_result(counter_result, baseline)
        assert any("coverage drifted" in r for r in regressions)

    def test_missing_gated_counter_is_a_regression(
        self, counter_result, tmp_path
    ):
        baseline = load_baseline(write_baseline(counter_result, tmp_path))
        del baseline["counters"]["unique_probes"]
        regressions, _ = compare_result(counter_result, baseline)
        assert any("unique_probes" in r for r in regressions)


class TestCli:
    def test_list_names_workloads(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in BENCH_WORKLOADS:
            assert name in out

    def test_unknown_workload_is_usage_error(self, capsys):
        assert main(["bench", "no-such-workload"]) == 2
        assert "unknown bench workload" in capsys.readouterr().err

    def test_negative_tolerance_rejected(self, capsys):
        assert main(["bench", "--tolerance", "-0.5"]) == 2
        assert "--tolerance" in capsys.readouterr().err

    def test_out_then_compare_green(self, capsys, tmp_path):
        out = str(tmp_path)
        assert main(["bench", "counter-full", "--out", out]) == 0
        assert baseline_path(out, "counter-full").is_file()
        assert main(["bench", "counter-full", "--compare", out]) == 0
        assert "bench compare: OK" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, capsys, tmp_path):
        out = str(tmp_path)
        assert main(["bench", "counter-full", "--out", out]) == 0
        path = baseline_path(out, "counter-full")
        data = json.loads(path.read_text())
        data["counters"]["nodes_created"] = max(
            1, int(data["counters"]["nodes_created"] / 2) - ABS_SLACK
        )
        path.write_text(json.dumps(data))
        assert main(["bench", "counter-full", "--compare", out]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err
        assert "nodes_created regressed" in captured.err

    def test_missing_baseline_fails_compare(self, capsys, tmp_path):
        assert (
            main(["bench", "counter-full", "--compare", str(tmp_path)]) == 1
        )
        assert "no committed baseline" in capsys.readouterr().err
