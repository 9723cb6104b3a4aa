"""Responses assembled from bytes encoded once are the responses
``json.dumps`` would write.

The server keeps each cached result, and each request's lint, as JSON
bytes and concatenates them into the response envelope.  For every
builtin target@stage, every ``examples/*.rml`` model and every corpus
model, served cold, from the memory tier, as a raw-body memo hit and
from the disk tier of a fresh server, the body must equal
``json.dumps(envelope) + "\\n"`` of its decoded parts, with the envelope
built by the dict rule the bytes replace: lint is merged only into
``rml`` results whose status is ``ok`` or ``fail``.
"""

import json
from http.client import HTTPConnection
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, Optional
from urllib.parse import urlsplit

import pytest

import repro.serve.server as server_module
from repro.analysis import AnalysisResult
from repro.engine import EngineConfig
from repro.lang import discover_rml, parse_module
from repro.lint import lint_module
from repro.obs.counters import counter_delta
from repro.serve.server import SERVE_SCHEMA
from repro.serve.workers import payload_from_job
from repro.suite.jobs import CoverageJob
from repro.suite.registry import builtin_jobs, rml_job

from .test_server import RML

ROOT = Path(__file__).resolve().parents[2]

#: No OBSERVED declaration: an rml request whose result is an error.
RML_ERROR = "MODULE m\nVAR x : boolean;\nASSIGN next(x) := !x;\nSPEC AG x;\n"

#: ``AG x`` fails from ``x = 0``: an rml result whose status is fail.
RML_FAIL = (
    "MODULE m\nVAR x : boolean;\nASSIGN init(x) := 0;\nnext(x) := !x;\n"
    "SPEC AG x;\nOBSERVED x;\n"
)

CONFIGS = [
    pytest.param(EngineConfig(), id="default"),
    pytest.param(EngineConfig(telemetry="counters"), id="counters"),
]


def post_raw(url: str, body: bytes) -> bytes:
    """``POST /v1/analyze`` and return the response body unparsed."""
    parts = urlsplit(url)
    connection = HTTPConnection(parts.hostname, parts.port, timeout=120)
    try:
        connection.request(
            "POST", "/v1/analyze", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        raw = response.read()
        assert response.status == 200, raw
        return raw
    finally:
        connection.close()


def dict_envelope(
    key: str, result: Dict, lint: Optional[Dict], was_cached: bool
) -> Dict:
    """The envelope as a dict, merged by the rule the bytes must match."""
    if (
        lint is not None
        and result.get("kind") == "rml"
        and result.get("status") in ("ok", "fail")
    ):
        result = dict(result)
        result["lint"] = lint
    return {
        "schema": SERVE_SCHEMA,
        "key": key,
        "cached": was_cached,
        "result": result,
    }


def request_lint(job: CoverageJob) -> Dict:
    """The lint document a request's raw text gets, computed here."""
    module = parse_module(job.source, filename=job.path)
    return lint_module(
        module, text=job.source, filename=job.path or module.filename
    ).to_json()


def assert_dumps_bytes(
    raw: bytes, lint: Optional[Dict], cached: bool, name: str
) -> Dict:
    """``raw`` is ``json.dumps`` of the envelope of its own parts."""
    doc = json.loads(raw)
    assert doc["cached"] is cached, name
    result = dict(doc["result"])
    result.pop("lint", None)
    expected = dict_envelope(doc["key"], result, lint, cached)
    assert raw == (json.dumps(expected) + "\n").encode("utf-8"), name
    return doc


def matrix_jobs(config: EngineConfig):
    """Every builtin target@stage, example and corpus model, and one rml
    model whose result is a fail and one whose result is an error."""
    jobs = builtin_jobs(config=config)
    for directory in (ROOT / "examples", ROOT / "tests" / "corpus"):
        jobs += [rml_job(p, config=config) for p in discover_rml(directory)]
    jobs += [
        CoverageJob(name=name, source=source, config=config)
        for name, source in (("rml:fail", RML_FAIL), ("rml:error", RML_ERROR))
    ]
    return jobs


@pytest.mark.parametrize("config", CONFIGS)
def test_every_serving_path_writes_the_dumps_bytes(
    threaded_server, tmp_path, config
):
    jobs = matrix_jobs(config)
    shared = tmp_path / "shared-cache"
    first = threaded_server(cache_dir=shared)
    cold = {}
    with counter_delta("serve.server.memo_hits") as memo_hits:
        for job in jobs:
            payload = payload_from_job(job)
            body = json.dumps(payload).encode("utf-8")
            lint = request_lint(job)
            raw = post_raw(first.url, body)
            doc = assert_dumps_bytes(raw, lint, False, job.name)
            # The result keeps the order a worker's to_json() gave it.
            result = dict(doc["result"])
            result.pop("lint", None)
            revived = AnalysisResult.from_json(result).to_json()
            assert json.dumps(result) == json.dumps(revived), job.name
            warm = raw.replace(b'"cached": false', b'"cached": true', 1)
            # The same body again is a raw-body memo hit; the same payload
            # spelled otherwise parses and hits the memory tier.
            assert post_raw(first.url, body) == warm, job.name
            respelled = json.dumps(payload, indent=1).encode("utf-8")
            assert post_raw(first.url, respelled) == warm, job.name
            cold[job.name] = (body, lint, doc["result"])
    assert memo_hits() == len(jobs)
    statuses = {result["status"] for _, _, result in cold.values()}
    assert statuses == {"ok", "fail", "error"}
    stats = first.server.cache.stats()
    assert stats["misses"] == len(jobs)
    assert stats["memory_hits"] == 2 * len(jobs)
    first.stop()

    # A fresh server on the same directory answers from the disk tier,
    # whose entries hold each result with its keys sorted.
    second = threaded_server(cache_dir=shared)
    for name, (body, lint, result) in cold.items():
        doc = assert_dumps_bytes(
            post_raw(second.url, body), lint, True, name
        )
        assert doc["result"] == result, name
        stored = [k for k in doc["result"] if k != "lint"]
        assert stored == sorted(stored), name
    assert second.server.cache.stats()["disk_hits"] == len(jobs)


def test_memo_hit_decodes_no_request_body(threaded_server, monkeypatch):
    server = threaded_server(memory_cache_only=True)
    decoded = []

    def loads(data, *args, **kwargs):
        decoded.append(data)
        return json.loads(data, *args, **kwargs)

    monkeypatch.setattr(
        server_module,
        "json",
        SimpleNamespace(
            loads=loads, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError
        ),
    )
    body = json.dumps({"rml": RML, "name": "rml:m"}).encode("utf-8")
    first = post_raw(server.url, body)
    assert decoded == [body]
    assert post_raw(server.url, body) == first.replace(
        b'"cached": false', b'"cached": true', 1
    )
    assert decoded == [body]


def test_byte_gauges_are_the_sums_of_what_is_held(threaded_server):
    server = threaded_server(memory_cache_only=True, max_cache_entries=2)
    client = server.client()
    # 70 comment edits of one model: one key, 70 bodies through the
    # 64-entry memo, each with its own lint.
    for i in range(70):
        client.analyze_rml(f"{RML}-- edit {i}\n", name="rml:m")
    # Three more keys through the 2-entry memory tier evict the model.
    client.analyze_builtin("counter", stage="full")
    client.analyze_builtin("counter", stage="partial")
    client.analyze_builtin("queue-full")
    # A memo hit whose key the memory tier no longer holds.
    again = client.analyze_rml(f"{RML}-- edit 69\n", name="rml:m")
    assert again["cached"] is False
    assert "lint" in again["result"]

    counters = client.stats()["counters"]
    cache, memo = server.server.cache, server.server._memo
    assert counters["serve.cache.evictions"] >= 2
    assert len(memo) == 64
    held = sum(len(entry.body) for entry in cache._memory.values())
    assert counters["serve.cache.memory_bytes"] == held > 0
    linted = sum(len(lint) for _, lint in memo.values())
    assert counters["serve.server.memo_bytes"] == linted > 0
