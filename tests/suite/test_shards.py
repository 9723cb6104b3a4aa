"""The work-stealing shard executor: crash isolation, retries, merging.

The headline contract under test: killing a pool worker mid-suite yields
a complete ``repro-coverage-suite/v2`` report — every unaffected job
``ok`` with results identical to a serial run, only the crashed shard's
jobs ``status="error"``, totals reflecting exactly those errors — with
the worker pool respawned instead of the run raising
``BrokenProcessPool``.
"""

import json
import os
import threading
from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.obs import Telemetry
from repro.obs.counters import counter_delta
from repro.suite import (
    builtin_job,
    default_jobs,
    execute_job,
    rml_job,
    run_jobs,
    run_jobs_sharded,
    suite_report,
)
from repro.suite import runner as runner_mod
from repro.suite.shards import (
    default_shard_count,
    plan_shards,
    run_sharded,
)
from tests.suite.test_runner import EXAMPLES_DIR, _jobs

#: Wall-clock keys stripped before byte-comparing reports (same set the
#: determinism suite uses): timings are load noise, not merge signal.
TIMING_KEYS = ("seconds", "gc_seconds", "t")


def _stripped(data):
    if isinstance(data, dict):
        return {
            k: _stripped(v) for k, v in data.items() if k not in TIMING_KEYS
        }
    if isinstance(data, list):
        return [_stripped(v) for v in data]
    return data


def _report_bytes(results):
    return json.dumps(
        _stripped(suite_report(results, seconds=0.0)), sort_keys=True
    )


# -- module-level workers (must be picklable by qualified name) ---------


def _double(item):
    return item * 2


def _crashy_double(item):
    if item == "boom":
        os._exit(23)
    return item * 2


def _crashy_execute_job(job):
    """``execute_job`` with a planted worker-killing job — the regression
    shape for the old ``pool.map`` fan-out, which raised
    ``BrokenProcessPool`` and threw away every completed result."""
    if job.name == "crash":
        os._exit(23)
    return execute_job(job)


def _err(item, message):
    return ("error", item, message)


# -- shard planning -----------------------------------------------------


class TestPlanning:
    def test_plan_covers_every_index_in_order(self):
        for count in (1, 2, 5, 17, 64):
            for shards in (1, 2, 3, 7, 100):
                bounds = plan_shards(count, shards)
                flat = [
                    i for start, stop in bounds for i in range(start, stop)
                ]
                assert flat == list(range(count))
                assert all(stop > start for start, stop in bounds)

    def test_plan_is_balanced(self):
        sizes = [stop - start for start, stop in plan_shards(10, 4)]
        assert sizes == [3, 3, 2, 2]

    def test_plan_clamps_shards_to_count(self):
        assert plan_shards(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_default_shard_count_oversubscribes_workers(self):
        assert default_shard_count(1000, 4) == 32
        assert default_shard_count(5, 4) == 5
        assert default_shard_count(0, 4) == 1


# -- the generic executor -----------------------------------------------


class TestRunSharded:
    def test_results_in_item_order(self):
        items = list(range(11))
        results, stats = run_sharded(
            items, _double, _err, max_workers=2, shards=5
        )
        assert results == [i * 2 for i in items]
        assert stats.shards == 5
        assert stats.completed == 5
        assert stats.failed == 0

    def test_workers_steal_pending_shards(self):
        # 8 shards over 2 workers: each worker's first shard is its own;
        # every later pull comes off the shared backlog.
        results, stats = run_sharded(
            list(range(16)), _double, _err, max_workers=2, shards=8
        )
        assert results == [i * 2 for i in range(16)]
        assert stats.completed == 8
        assert stats.steals >= 6

    def test_serial_mode_is_a_plain_loop(self):
        results, stats = run_sharded(
            list(range(6)), _double, _err, max_workers=1, shards=3
        )
        assert results == [i * 2 for i in range(6)]
        assert stats.completed == 3
        assert stats.steals == 0 and stats.respawns == 0

    def test_empty_items(self):
        results, stats = run_sharded([], _double, _err, max_workers=4)
        assert results == []
        assert stats.completed == 0

    def test_invalid_knobs_are_config_errors(self):
        with pytest.raises(ConfigError, match="shards must be >= 1"):
            run_sharded([1], _double, _err, max_workers=2, shards=0)
        with pytest.raises(ConfigError, match="max_shard_retries"):
            run_sharded(
                [1], _double, _err, max_workers=2, max_shard_retries=-1
            )

    def test_worker_crash_fails_only_its_shard(self):
        items = [1, 2, "boom", 4, 5, 6]
        results, stats = run_sharded(
            items, _crashy_double, _err, max_workers=2, shards=6
        )
        for i, item in enumerate(items):
            if item == "boom":
                status, failed_item, message = results[i]
                assert status == "error"
                assert failed_item == "boom"
                assert "crashed" in message
            else:
                assert results[i] == item * 2
        assert stats.failed == 1
        assert stats.respawns >= 1

    def test_crash_in_multi_item_shard_errors_the_whole_shard(self):
        items = [1, "boom", 3, 4, 5, 6]
        results, stats = run_sharded(
            items, _crashy_double, _err, max_workers=2, shards=2
        )
        # Shard 0 = items 0-2 (contains the crash), shard 1 = items 3-5.
        assert [r[0] for r in results[:3]] == ["error"] * 3
        assert results[3:] == [8, 10, 12]
        assert stats.failed == 1
        assert stats.completed == 1

    def test_retry_exhaustion_is_bounded_and_deterministic(self):
        results, stats = run_sharded(
            ["boom"], _crashy_double, _err,
            max_workers=2, max_shard_retries=3,
        )
        status, _, message = results[0]
        assert status == "error"
        assert "3 retry(s) allowed" in message
        assert stats.retries == 3
        assert stats.respawns == 3
        assert stats.failed == 1 and stats.completed == 0

    def test_zero_retries_fails_fast(self):
        results, stats = run_sharded(
            ["boom"], _crashy_double, _err,
            max_workers=2, max_shard_retries=0,
        )
        assert results[0][0] == "error"
        assert stats.retries == 0 and stats.respawns == 0

    def test_innocent_victims_of_a_crash_recover_via_retry(self):
        # One shard per item: whatever was in flight when "boom" killed
        # the pool gets an isolated re-run and must still succeed.
        items = ["boom"] + list(range(9))
        results, _stats = run_sharded(
            items, _crashy_double, _err, max_workers=2, shards=10,
        )
        assert results[0][0] == "error"
        assert results[1:] == [i * 2 for i in range(9)]

    def test_unpicklable_item_fails_only_its_shard_without_retries(self):
        items = [1, threading.Lock(), 3]
        results, stats = run_sharded(
            items, _double, _err, max_workers=2, shards=3
        )
        assert results[0] == 2 and results[2] == 6
        status, _, message = results[1]
        assert status == "error"
        assert "pickle" in message
        assert stats.failed == 1
        assert stats.retries == 0  # serialisation failure: deterministic


# -- observability ------------------------------------------------------


class TestShardTelemetry:
    def test_counters_and_spans(self):
        telemetry = Telemetry("spans")
        with counter_delta("suite.shards.runs") as runs, \
                counter_delta("suite.shards.steals") as steals:
            _results, stats = run_sharded(
                list(range(12)), _double, _err,
                max_workers=2, shards=6, telemetry=telemetry,
            )
        assert runs() == stats.completed == 6
        assert steals() == stats.steals
        shard_spans = [s for s in telemetry.spans if s.name == "shard"]
        assert len(shard_spans) == 6
        assert sorted(s.attrs["shard"] for s in shard_spans) == list(range(6))
        for span in shard_spans:
            assert span.attrs["status"] == "ok"
            assert span.attrs["jobs"] == 2
            assert span.attrs["attempt"] == 1
            assert span.attrs["pid"] > 0
            assert span.seconds >= 0.0

    def test_failed_shard_records_error_span_and_counters(self):
        telemetry = Telemetry("spans")
        with counter_delta("suite.shards.failed") as failed, \
                counter_delta("suite.shards.retries") as retries, \
                counter_delta("suite.shards.respawns") as respawns:
            _results, stats = run_sharded(
                ["boom"], _crashy_double, _err,
                max_workers=2, max_shard_retries=1, telemetry=telemetry,
            )
        assert failed() == stats.failed == 1
        assert retries() == stats.retries == 1
        assert respawns() == stats.respawns == 1
        error_spans = [
            s for s in telemetry.spans if s.attrs.get("status") == "error"
        ]
        assert len(error_spans) == 1

    def test_off_telemetry_records_nothing(self):
        telemetry = Telemetry("counters")
        run_sharded(
            [1, 2], _double, _err, max_workers=1, telemetry=telemetry
        )
        assert telemetry.spans == []


# -- run_jobs through the shard executor --------------------------------


class TestRunJobsSharded:
    def test_pool_crash_mid_suite_yields_complete_v2_report(
        self, monkeypatch
    ):
        """The acceptance scenario: one worker dies mid-suite; the run
        completes with every unaffected job identical to serial and only
        the crashed job errored."""
        healthy = _jobs()
        serial = run_jobs(healthy, max_workers=1)

        jobs = list(healthy)
        jobs.insert(
            2,
            replace(builtin_job("counter", "full"), name="crash"),
        )
        monkeypatch.setattr(runner_mod, "execute_job", _crashy_execute_job)
        results, stats = run_jobs_sharded(
            jobs, max_workers=2, shards=len(jobs)
        )

        # One result per job, in job order — nothing lost, nothing raised.
        assert [r.name for r in results] == [j.name for j in jobs]
        crashed = results[2]
        assert crashed.status == "error"
        assert "crashed" in crashed.error
        assert stats.failed == 1

        # Every unaffected job is byte-identical to the serial run
        # (timings stripped), and the merged report's totals reflect
        # exactly the crashed job on top of the serial outcome.
        survivors = [r for r in results if r.name != "crash"]
        assert _report_bytes(survivors) == _report_bytes(serial)
        report = suite_report(results, seconds=0.0)
        baseline = suite_report(serial, seconds=0.0)
        assert report["schema"] == "repro-coverage-suite/v2"
        assert report["totals"]["jobs"] == baseline["totals"]["jobs"] + 1
        assert report["totals"]["errors"] == baseline["totals"]["errors"] + 1
        assert report["totals"]["ok"] == baseline["totals"]["ok"]
        assert report["totals"]["failed"] == baseline["totals"]["failed"]

    def test_crash_converts_whole_shard_and_exit_semantics(
        self, monkeypatch
    ):
        monkeypatch.setattr(runner_mod, "execute_job", _crashy_execute_job)
        jobs = [
            replace(builtin_job("counter", "full"), name="crash"),
            rml_job(EXAMPLES_DIR / "traffic_light.rml"),
        ]
        # Two jobs in ONE shard: the innocent neighbour shares the
        # crashing shard's fate (that is the documented blast radius).
        results = run_jobs(jobs, max_workers=2, shards=1)
        assert [r.status for r in results] == ["error", "error"]
        # The error result keeps the job's identity and config.
        assert results[1].name == "rml:traffic_light"
        assert results[1].config == jobs[1].config

    def test_retry_exhaustion_through_run_jobs(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "execute_job", _crashy_execute_job)
        jobs = [
            replace(builtin_job("counter", "full"), name="crash"),
            builtin_job("counter", "full"),
        ]
        with counter_delta("suite.shards.retries") as retries:
            results, stats = run_jobs_sharded(
                jobs, max_workers=2, shards=2, max_shard_retries=1
            )
        assert results[0].status == "error"
        assert results[1].status == "ok"
        assert stats.retries == retries() >= 1
        assert stats.failed == 1

    def test_serial_path_bypasses_the_pool(self):
        jobs = _jobs()[:2]
        results, stats = run_jobs_sharded(jobs, max_workers=1)
        assert [r.status for r in results] == ["ok", "ok"]
        assert stats.shards == 0  # never sharded, never pooled

    def test_sharded_report_matches_serial_small_mix(self):
        jobs = _jobs()
        serial = run_jobs(jobs, max_workers=1)
        sharded = run_jobs(jobs, max_workers=4, shards=3)
        assert _report_bytes(sharded) == _report_bytes(serial)


@pytest.mark.slow
class TestShardMergeDeterminism:
    def test_sharded_report_identical_to_serial_everywhere(self):
        """Builtins + examples/*.rml: the merged sharded report is
        byte-identical to ``max_workers=1`` once wall-clock noise is
        stripped."""
        jobs = default_jobs(rml_dir=EXAMPLES_DIR)
        assert len(jobs) > 10
        serial = run_jobs(jobs, max_workers=1)
        sharded = run_jobs(jobs, max_workers=4, shards=7)
        assert _report_bytes(sharded) == _report_bytes(serial)
