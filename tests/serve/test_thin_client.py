"""Satellite guarantee: the suite thin client is a drop-in for local runs.

For every builtin target plus every ``examples/*.rml`` model, under both
transition-relation modes, the server must return
reports byte-identical to local execution (timings excluded — they are
wall-clock, everything else is the contract).  A second remote pass over
the same matrix must be ≥90% cache hits as measured by ``/v1/stats``.

The server is module-scoped so the hit-rate test observes the cache the
identity tests populated — the same shape as a long-lived deployment.
"""

import pytest

from repro.engine import EngineConfig
from repro.suite.registry import default_jobs
from repro.suite.runner import run_jobs, run_jobs_via_server

CONFIGS = [
    pytest.param(EngineConfig(trans=trans), id=trans)
    for trans in ("mono", "partitioned")
]


@pytest.fixture(scope="module")
def matrix_server(tmp_path_factory):
    from .conftest import ThreadedServer
    from repro.serve.server import ServeOptions

    options = ServeOptions(
        host="127.0.0.1",
        port=0,
        workers=0,
        cache_dir=tmp_path_factory.mktemp("matrix") / "cache",
    )
    server = ThreadedServer(options).start()
    yield server
    server.stop()


def stripped(result) -> dict:
    doc = result.to_json()
    doc["seconds"] = doc["gc_seconds"] = 0.0
    return doc


@pytest.mark.parametrize("config", CONFIGS)
def test_remote_reports_are_byte_identical_to_local(matrix_server, config):
    jobs = default_jobs(rml_dir="examples", config=config)
    assert len(jobs) >= 10  # builtins + examples/*.rml: a real matrix
    local = run_jobs(jobs)
    remote = run_jobs_via_server(jobs, matrix_server.client(), max_workers=4)
    assert [stripped(r) for r in remote] == [stripped(r) for r in local]


def test_server_error_results_record_elapsed_seconds():
    """Per-job server errors must carry their wall-clock cost: suite
    totals and ``format_results`` time sum ``result.seconds``, and an
    unreachable server (above all, a connect timeout) is not free."""
    from repro.suite.registry import builtin_jobs

    jobs = builtin_jobs()[:2]
    # Reserved port, nothing listening: every job fails client-side.
    results = run_jobs_via_server(jobs, "http://127.0.0.1:9", max_workers=1)
    assert [r.status for r in results] == ["error", "error"]
    for result in results:
        assert result.seconds > 0.0


def test_second_remote_run_is_mostly_cache_hits(matrix_server):
    """Re-running the whole matrix against the warmed server must be
    ≥90% cache hits, measured through the public /v1/stats endpoint."""
    client = matrix_server.client()
    configs = [EngineConfig(trans=trans) for trans in ("mono", "partitioned")]
    jobs = [
        job
        for config in configs
        for job in default_jobs(rml_dir="examples", config=config)
    ]
    before = client.stats()["counters"]
    results = run_jobs_via_server(jobs, client, max_workers=4)
    after = client.stats()["counters"]
    assert all(r.status in ("ok", "fail") for r in results)

    hits = after["serve.cache.hits"] - before["serve.cache.hits"]
    misses = after["serve.cache.misses"] - before["serve.cache.misses"]
    assert hits + misses == len(jobs)
    assert hits / (hits + misses) >= 0.9
