"""The analysis server's happy paths: cache, dedup, parse reuse, stats.

Every test talks HTTP to a real server on a background thread (see
``conftest.ThreadedServer``) through the real client — the asyncio
request path, the payload codec, and the response envelope are all in
the loop.
"""

import threading
from pathlib import Path

from repro.analysis import AnalysisResult
from repro.engine import EngineConfig
from repro.serve.cache import ENTRY_SCHEMA
from repro.serve.server import SERVE_SCHEMA
from repro.serve.workers import WorkerPool, payload_from_job
from repro.suite.jobs import CoverageJob
from repro.suite.registry import builtin_job, builtin_source
from repro.suite.runner import execute_job

ROOT = Path(__file__).resolve().parents[2]

RML = (
    "MODULE m\n"
    "VAR x : boolean;\n"
    "ASSIGN next(x) := !x;\n"
    "SPEC AG (x | !x);\n"
    "OBSERVED x;\n"
)

#: The same model under comment/whitespace edits only.
RML_COMMENTED = (
    "MODULE m  -- cosmetics only\n"
    "\n"
    "  VAR x : boolean;\n"
    "  ASSIGN next(x) := !x;\n"
    "  SPEC AG (x | !x);\n"
    "  OBSERVED x;\n"
)


def strip_timings(doc: dict) -> dict:
    doc = dict(doc)
    doc["seconds"] = doc["gc_seconds"] = 0.0
    return doc


class TestIntrospection:
    def test_health(self, threaded_server):
        doc = threaded_server().client().health()
        assert doc["schema"] == SERVE_SCHEMA
        assert doc["status"] == "ok"
        assert doc["inline"] is True

    def test_stats_is_a_metrics_document(self, threaded_server):
        doc = threaded_server().client().stats()
        assert doc["schema"] == "repro-metrics/v1"
        assert doc["level"] == "counters"
        assert "serve.cache.misses" in doc["counters"]
        assert "serve.workers.jobs" in doc["counters"]


class TestCaching:
    def test_cold_miss_then_warm_hit(self, threaded_server):
        client = threaded_server().client()
        cold = client.analyze_builtin("counter", stage="full")
        warm = client.analyze_builtin("counter", stage="full")
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert warm["key"] == cold["key"]
        assert warm["result"] == cold["result"]

    def test_cached_answer_does_zero_engine_work(self, threaded_server):
        server = threaded_server()
        client = server.client()
        client.analyze_builtin("counter", stage="full")
        jobs_after_first = server.server.pool.stats()["jobs"]
        for _ in range(3):
            assert client.analyze_builtin("counter", stage="full")["cached"]
        assert server.server.pool.stats()["jobs"] == jobs_after_first

    def test_different_configs_are_different_cache_lines(
        self, threaded_server
    ):
        client = threaded_server().client()
        partitioned = client.analyze_builtin("counter", stage="full")
        mono = client.analyze_builtin(
            "counter", stage="full", config=EngineConfig(trans="mono")
        )
        assert partitioned["key"] != mono["key"]
        assert mono["cached"] is False

    def test_results_persist_on_disk_between_servers(
        self, threaded_server, tmp_path
    ):
        shared = tmp_path / "shared-cache"
        first = threaded_server(cache_dir=shared)
        cold = first.client().analyze_builtin("counter", stage="full")
        first.stop()
        entries = list(shared.glob("*.json"))
        assert len(entries) == 1
        second = threaded_server(cache_dir=shared)
        warm = second.client().analyze_builtin("counter", stage="full")
        assert warm["cached"] is True
        assert warm["result"] == cold["result"]
        assert second.server.cache.stats()["disk_hits"] == 1

    def test_disk_entries_are_schema_tagged(self, threaded_server, tmp_path):
        shared = tmp_path / "tagged-cache"
        server = threaded_server(cache_dir=shared)
        server.client().analyze_builtin("counter")
        import json as json_module

        entry = json_module.loads(next(shared.glob("*.json")).read_text())
        assert entry["schema"] == ENTRY_SCHEMA


class TestByteIdentity:
    def test_builtin_matches_direct_execution(self, threaded_server):
        job = builtin_job("counter", "full")
        local = execute_job(job).to_json()
        remote = threaded_server().client().analyze_job(job).to_json()
        assert strip_timings(remote) == strip_timings(local)

    def test_rml_matches_direct_execution_including_lint(
        self, threaded_server
    ):
        job = CoverageJob(
            name="rml:m", source=RML, config=EngineConfig()
        )
        local = execute_job(job).to_json()
        remote = threaded_server().client().analyze_job(job).to_json()
        assert "lint" in remote
        assert strip_timings(remote) == strip_timings(local)

    def test_error_results_match_direct_execution(self, threaded_server):
        # No OBSERVED declaration: a ModelError locally, and the server
        # must answer with the same status="error" result document.
        bad = "MODULE m\nVAR x : boolean;\nASSIGN next(x) := !x;\nSPEC AG x;\n"
        job = CoverageJob(
            name="rml:bad", source=bad, config=EngineConfig()
        )
        local = execute_job(job).to_json()
        remote = threaded_server().client().analyze_job(job).to_json()
        assert remote["status"] == "error"
        assert strip_timings(remote) == strip_timings(local)


class TestEchoedFields:
    def test_cached_answer_echoes_each_requests_name_and_path(
        self, threaded_server
    ):
        """The fields a result echoes are part of its key: the same model
        posted under another name and path is answered with that name and
        path, not with the first request's."""
        client = threaded_server().client()
        text = (ROOT / "examples" / "counter.rml").read_text()
        first = client.analyze_rml(text, name="rml:a", path="a/counter.rml")
        second = client.analyze_rml(text, name="rml:b", path="b/other.rml")
        assert (second["result"]["name"], second["result"]["path"]) == (
            "rml:b", "b/other.rml"
        )
        assert second["result"]["lint"]["files"] == ["b/other.rml"]
        assert second["key"] != first["key"]
        again = client.analyze_rml(text, name="rml:b", path="b/other.rml")
        assert again["cached"] and again["key"] == second["key"]

    def test_target_payload_is_its_builtin_text(self, threaded_server):
        """A ``target`` payload is keyed and answered as the module text
        ``builtin_source`` renders: a ``kind: "rml"`` result with lint,
        the same key as that text posted under the same name and stage."""
        client = threaded_server().client()
        by_target = client.analyze_builtin("queue-wrap", stage="final")
        result = by_target["result"]
        assert result["kind"] == "rml"
        assert result["name"] == "queue-wrap@final"
        assert result["stage"] == "final"
        assert result["lint"]["diagnostics"] == []
        by_text = client.analyze(
            {
                "rml": builtin_source("queue-wrap", "final"),
                "name": "queue-wrap@final",
                "stage": "final",
            }
        )
        assert by_text["key"] == by_target["key"]
        assert by_text["cached"] is True


class TestLintFreshness:
    def test_comment_edit_shares_the_key_but_gets_its_own_lint(
        self, threaded_server
    ):
        """A comment-only edit must reuse the cached engine result (same
        key, cached=True) yet carry lint computed from *its* raw text —
        exactly what direct local execution of the edited text reports."""
        client = threaded_server().client()
        plain = client.analyze_rml(RML, name="rml:m")
        edited = client.analyze_rml(RML_COMMENTED, name="rml:m")
        assert edited["key"] == plain["key"]
        assert edited["cached"] is True

        local_job = CoverageJob(
            name="rml:m", source=RML_COMMENTED,
            config=EngineConfig(),
        )
        local = execute_job(local_job).to_json()
        assert strip_timings(edited["result"]) == strip_timings(local)


class TestDeduplication:
    def test_concurrent_identical_requests_run_one_analysis(
        self, threaded_server
    ):
        server = threaded_server()
        jobs_before = server.server.pool.stats()["jobs"]
        results = [None] * 8
        barrier = threading.Barrier(len(results))

        def fire(i):
            barrier.wait()
            results[i] = server.client().analyze_builtin(
                "queue-wrap", stage="final"
            )

        threads = [
            threading.Thread(target=fire, args=(i,))
            for i in range(len(results))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # However the arrivals interleave (join the in-flight future, or
        # hit the cache just after it fills), the pool ran exactly once.
        assert server.server.pool.stats()["jobs"] == jobs_before + 1
        docs = [r["result"] for r in results]
        assert all(doc == docs[0] for doc in docs)

    def test_repeated_rml_bodies_parse_once(self, threaded_server):
        from repro.obs.counters import counter_value

        server = threaded_server()
        client = server.client()
        before = counter_value("lang.parse_module")
        for _ in range(4):
            client.analyze_rml(RML, name="rml:m")
        # One parse computed the key/lint/module; the inline worker
        # reused the parsed module, and later identical bodies hit the
        # raw-body memo. 4 requests, 1 parse.
        assert counter_value("lang.parse_module") == before + 1


class TestWorkerPool:
    def test_recycles_after_quota(self):
        pool = WorkerPool(workers=1, recycle_after=2)
        try:
            job = builtin_job("counter", "partial")
            payload = payload_from_job(job)
            for _ in range(5):
                doc = pool.submit(payload).result(timeout=120)
                assert doc["status"] == "ok"
            stats = pool.stats()
            assert stats["jobs"] == 5
            # quota = 2 jobs/worker * 1 worker: recycled at jobs 3 and 5.
            assert stats["recycles"] == 2
        finally:
            pool.shutdown(wait=False)

    def test_inline_pool_runs_in_process(self):
        pool = WorkerPool(workers=0)
        try:
            assert pool.inline
            job = builtin_job("counter", "partial")
            doc = pool.submit(payload_from_job(job)).result(timeout=120)
            assert AnalysisResult.from_json(doc).status == "ok"
        finally:
            pool.shutdown(wait=False)
