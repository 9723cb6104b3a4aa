"""Sustained mixed workload: 200 concurrent requests, bounded memory,
no stale answers.

A deterministic RNG interleaves valid builtins, valid RML (with
comment-noise variants that share a cache key), parse errors, malformed
JSON, bad configs, and oversized bodies, fired from a thread pool at a
server whose cache is deliberately tiny (so eviction churn happens mid
run).  Every response must be answered; every *valid* response must
equal the locally precomputed expected report for that model — an
eviction may cost a recompute, never a wrong or stale answer.
"""

import random
import threading

import pytest

from repro.engine import EngineConfig
from repro.errors import ServeError
from repro.suite.jobs import CoverageJob
from repro.suite.registry import builtin_job
from repro.suite.runner import execute_job

REQUESTS = 200
THREADS = 8
CACHE_ENTRIES = 4  # below the distinct-key count (8): forces eviction

BUILTINS = [
    ("counter", "partial"),
    ("counter", "full"),
    ("buffer-lo", "augmented"),
    ("queue-wrap", "final"),
]

RML_BASE = (
    "MODULE fuzz{n}\n"
    "VAR x : boolean;\n"
    "VAR y : boolean;\n"
    "ASSIGN next(x) := !x;\n"
    "ASSIGN next(y) := x;\n"
    "SPEC AG (x | !x);\n"
    "OBSERVED x;\n"
)

#: Comment/whitespace decorations — same model, same cache key.
NOISE = ["", "-- noise\n", "  \n-- more\n"]

BAD_PARSE = "MODULE broken\nVAR ; ;\n"


def stripped(doc: dict) -> dict:
    doc = dict(doc)
    doc["seconds"] = doc["gc_seconds"] = 0.0
    return doc


def rml_text(n: int, noise: str) -> str:
    return noise + RML_BASE.format(n=n)


@pytest.fixture(scope="module")
def expected():
    """Locally computed ground truth for every valid request shape."""
    truth = {}
    for target, stage in BUILTINS:
        job = builtin_job(target, stage)
        truth["builtin", target, stage] = stripped(execute_job(job).to_json())
    for n in range(4):
        for i, noise in enumerate(NOISE):
            job = CoverageJob(
                name=f"fuzz{n}", source=rml_text(n, noise),
                config=EngineConfig(),
            )
            truth["rml", n, i] = stripped(execute_job(job).to_json())
    return truth


def test_mixed_fuzz_workload_stays_correct_and_bounded(
    threaded_server, expected
):
    server = threaded_server(
        max_cache_entries=CACHE_ENTRIES, max_body=16384
    )
    rng = random.Random(0xC0FFEE)
    plan = []
    for _ in range(REQUESTS):
        roll = rng.random()
        if roll < 0.35:
            plan.append(("builtin", rng.choice(BUILTINS)))
        elif roll < 0.70:
            plan.append(("rml", (rng.randrange(4), rng.randrange(len(NOISE)))))
        elif roll < 0.80:
            plan.append(("parse-error", None))
        elif roll < 0.90:
            plan.append(("bad-config", None))
        elif roll < 0.95:
            plan.append(("bad-json", None))
        else:
            plan.append(("oversized", None))

    outcomes = [None] * len(plan)

    def fire(index, shape, detail):
        client = server.client(timeout=120)
        try:
            if shape == "builtin":
                target, stage = detail
                env = client.analyze_builtin(target, stage=stage)
                outcomes[index] = ("ok", ("builtin", target, stage), env)
            elif shape == "rml":
                n, i = detail
                env = client.analyze_rml(
                    rml_text(n, NOISE[i]), name=f"fuzz{n}"
                )
                outcomes[index] = ("ok", ("rml", n, i), env)
            elif shape == "parse-error":
                client.analyze_rml(BAD_PARSE)
            elif shape == "bad-config":
                client.analyze(
                    {"target": "counter", "config": {"trans": "bogus"}}
                )
            elif shape == "bad-json":
                from .test_server_errors import client_post_raw

                client_post_raw(client, b"** not json **")
            elif shape == "oversized":
                client.analyze({"rml": "-- pad\n" * 8192})
        except ServeError as exc:
            outcomes[index] = ("error", shape, exc)

    threads = []
    gate = threading.Semaphore(THREADS)

    def worker(index, shape, detail):
        with gate:
            fire(index, shape, detail)

    for index, (shape, detail) in enumerate(plan):
        t = threading.Thread(target=worker, args=(index, shape, detail))
        t.start()
        threads.append(t)
    for t in threads:
        t.join(timeout=600)

    # 1. Every request was answered — nothing hung, nothing dropped.
    assert all(outcome is not None for outcome in outcomes)

    # 2. Every valid answer matches local ground truth: eviction under
    # pressure may recompute, but can never serve a stale/wrong report.
    expected_status = {
        "parse-error": (422, "parse-error"),
        "bad-config": (422, "config-error"),
        "bad-json": (400, "bad-json"),
        "oversized": (413, "payload-too-large"),
    }
    for index, (kind, tag, value) in enumerate(outcomes):
        shape, detail = plan[index]
        if kind == "ok":
            assert stripped(value["result"]) == expected[tag], (index, tag)
        else:
            status, error_type = expected_status[shape]
            assert value.status == status, (index, shape, value)
            assert value.payload["error"]["type"] == error_type

    # 3. Memory stayed bounded: the LRU never exceeds its cap, and the
    # raw-body memo is bounded by construction (server-enforced).
    stats = server.client().stats()["counters"]
    assert stats["serve.cache.memory_entries"] <= max(CACHE_ENTRIES, 1)
    assert stats["serve.server.memo_entries"] <= 64
    assert stats["serve.cache.evictions"] > 0  # the cap actually bit
    assert server.server.pool.stats()["jobs"] >= 1
    assert server.client().health()["status"] == "ok"
