"""The suite runner: execute coverage jobs, serially or across processes.

Each job rebuilds its model through the :class:`~repro.analysis.Analysis`
facade inside its own BDD manager, so jobs share no state and parallelise
perfectly across worker processes (one BDD manager per process; results
come back as plain :class:`~repro.analysis.AnalysisResult` primitives,
never BDD handles).  The fan-out runs on the work-stealing shard
executor (:mod:`repro.suite.shards`): jobs are split into restartable
shards pulled by idle workers, completed shard results are captured as
they arrive, and a crashed worker costs only its shard's jobs (marked
``status="error"`` after bounded retries) instead of the whole run —
:func:`run_jobs` shares :func:`execute_job`'s never-raise contract.
``max_workers=1`` runs in-process, which the tests use to assert that
parallel percentages match serial execution bit-for-bit.

:func:`suite_report` turns a result list into the machine-readable JSON
document (schema ``repro-coverage-suite/v2``, documented in the README);
:func:`read_report` is its validating consumer — it rejects v1 documents
with an explicit version-mismatch error instead of misreading them.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .._version import __version__
from ..analysis import KIND_RML, Analysis, AnalysisResult
from ..errors import ReportError, ReproError
from .jobs import CoverageJob
from .shards import DEFAULT_MAX_SHARD_RETRIES, ShardStats, run_sharded

__all__ = [
    "execute_job",
    "run_jobs",
    "run_jobs_sharded",
    "run_jobs_via_server",
    "suite_report",
    "write_report",
    "read_report",
    "format_results",
    "DEFAULT_MAX_SHARD_RETRIES",
    "JSON_SCHEMA_ID",
    "JSON_SCHEMA_ID_V1",
]

#: The schema this runner writes (and :func:`read_report` accepts).
JSON_SCHEMA_ID = "repro-coverage-suite/v2"
#: The pre-``EngineConfig`` schema, recognised only to produce a clear
#: version-mismatch error.
JSON_SCHEMA_ID_V1 = "repro-coverage-suite/v1"


def execute_job(
    job: CoverageJob, *, module=None, include_lint: bool = True
) -> AnalysisResult:
    """Run one job start-to-finish: build, verify, estimate.

    Never raises: failures are captured in the result's ``status`` so one
    bad job cannot take down a whole suite (or its worker pool).  The
    reported ``seconds`` include the model build, matching what a user
    pays end to end.

    ``module``/``include_lint`` are the analysis server's hooks: an
    already-parsed AST for the job's source skips the worker-side parse,
    and ``include_lint=False`` keeps raw-text-anchored lint out of
    results headed for the content-addressed cache (the server merges
    per-request lint back in).
    """
    started = time.perf_counter()
    try:
        result = Analysis.from_job(job, module=module).result(
            include_lint=include_lint
        )
        result.seconds = time.perf_counter() - started
        return result
    except (ReproError, ValueError, OSError) as exc:
        return AnalysisResult(
            name=job.name,
            kind=KIND_RML,
            status="error",
            stage=job.stage,
            path=job.path,
            config=job.config,
            error=str(exc),
            seconds=time.perf_counter() - started,
        )


def _shard_error_result(job: CoverageJob, message: str) -> AnalysisResult:
    """The error result for a job whose shard never produced one (worker
    crash, retry exhaustion, unpicklable payload) — same shape as
    :func:`execute_job`'s own error capture."""
    return AnalysisResult(
        name=job.name,
        kind=KIND_RML,
        status="error",
        stage=job.stage,
        path=job.path,
        config=job.config,
        error=message,
    )


def run_jobs(
    jobs: Sequence[CoverageJob],
    max_workers: int = 1,
    *,
    shards: Optional[int] = None,
    max_shard_retries: int = DEFAULT_MAX_SHARD_RETRIES,
    telemetry=None,
) -> List[AnalysisResult]:
    """Execute ``jobs``, fanning out over ``max_workers`` processes.

    Results come back in job order regardless of completion order, one
    per job, always — a crashed worker converts only its shard's jobs to
    ``status="error"`` results (after ``max_shard_retries`` isolated
    re-runs) instead of raising; see :func:`repro.suite.shards
    .run_sharded`.  With ``max_workers <= 1`` (or a single job)
    everything runs in-process.  ``shards=None`` picks a shard count
    automatically (several per worker).
    """
    results, _stats = run_jobs_sharded(
        jobs, max_workers,
        shards=shards, max_shard_retries=max_shard_retries,
        telemetry=telemetry,
    )
    return results


def run_jobs_sharded(
    jobs: Sequence[CoverageJob],
    max_workers: int = 1,
    *,
    shards: Optional[int] = None,
    max_shard_retries: int = DEFAULT_MAX_SHARD_RETRIES,
    telemetry=None,
) -> Tuple[List[AnalysisResult], ShardStats]:
    """:func:`run_jobs`, plus the shard executor's
    :class:`~repro.suite.shards.ShardStats` (steal/retry/respawn
    counts) for callers that surface resilience telemetry."""
    jobs = list(jobs)
    if max_workers <= 1 or len(jobs) <= 1:
        return [execute_job(job) for job in jobs], ShardStats(
            shards=0, workers=1, completed=0
        )
    return run_sharded(
        jobs,
        execute_job,
        _shard_error_result,
        max_workers=min(max_workers, len(jobs)),
        shards=shards,
        max_shard_retries=max_shard_retries,
        telemetry=telemetry,
        counter_prefix="suite.shards",
    )


def run_jobs_via_server(
    jobs: Sequence[CoverageJob],
    server,
    max_workers: int = 1,
) -> List[AnalysisResult]:
    """Execute ``jobs`` against a running ``repro serve`` instance — the
    suite's thin-client mode (``repro-coverage suite --server URL``).

    ``server`` is a base URL (``http://host:port``) or a
    :class:`~repro.serve.client.ServeClient`.  Results come back in job
    order; ``max_workers`` fans requests out over that many threads (the
    server deduplicates and schedules the real work).  Per-job server
    errors become ``status="error"`` results, mirroring
    :func:`execute_job`'s never-raise contract — callers wanting to fail
    fast on an unreachable server should health-check first.
    """
    from ..serve.client import ServeClient

    jobs = list(jobs)
    client = server if isinstance(server, ServeClient) else ServeClient(server)

    def one(job: CoverageJob) -> AnalysisResult:
        started = time.perf_counter()
        try:
            return client.analyze_job(job)
        except (ReproError, OSError) as exc:
            # Record the elapsed time like execute_job does: a server
            # error still costs wall clock (connect timeouts above all),
            # and without it suite totals and format_results undercount.
            return AnalysisResult(
                name=job.name,
                kind=KIND_RML,
                status="error",
                stage=job.stage,
                path=job.path,
                config=job.config,
                error=str(exc),
                seconds=time.perf_counter() - started,
            )

    if max_workers <= 1 or len(jobs) <= 1:
        return [one(job) for job in jobs]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(max_workers, len(jobs))) as pool:
        return list(pool.map(one, jobs))


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def suite_report(
    results: Sequence[AnalysisResult], seconds: Optional[float] = None
) -> Dict:
    """The machine-readable suite report (schema ``repro-coverage-suite/v2``).

    v2 embeds each job's :class:`~repro.engine.EngineConfig` as a
    ``config`` object (round-trippable via ``EngineConfig.from_json``), so
    a recorded report documents the exact configuration of every number in
    it.
    """
    ok = [r for r in results if r.status == "ok"]
    failed = [r for r in results if r.status == "fail"]
    errors = [r for r in results if r.status == "error"]
    percentages = [r.percentage for r in ok if r.percentage is not None]
    return {
        "schema": JSON_SCHEMA_ID,
        "generator": f"repro {__version__}",
        "jobs": [r.to_json() for r in results],
        "totals": {
            "jobs": len(results),
            "ok": len(ok),
            "failed": len(failed),
            "errors": len(errors),
            "full_coverage": sum(1 for p in percentages if p >= 100.0),
            "mean_percentage": (
                round(sum(percentages) / len(percentages), 4)
                if percentages
                else None
            ),
            "seconds": round(
                seconds if seconds is not None
                else sum(r.seconds for r in results),
                6,
            ),
            "nodes_created": sum(r.nodes_created for r in results),
            "gc_runs": sum(r.gc_runs for r in results),
            "gc_seconds": round(sum(r.gc_seconds for r in results), 6),
            "gc_freed": sum(r.gc_freed for r in results),
            "peak_live_nodes": max(
                (r.peak_live_nodes for r in results), default=0
            ),
        },
    }


def write_report(
    results: Sequence[AnalysisResult],
    path: "str | Path",
    seconds: Optional[float] = None,
) -> None:
    """Serialise :func:`suite_report` to ``path`` as indented JSON."""
    Path(path).write_text(
        json.dumps(suite_report(results, seconds), indent=2) + "\n"
    )


def read_report(path: "str | Path") -> Dict:
    """Load and validate a suite JSON report written by :func:`write_report`.

    Returns the report dict.  Raises :class:`~repro.errors.ReportError`
    when the document is not a v2 report — in particular, a v1 document
    (which carried flat ``trans`` fields instead of per-job ``config``
    objects) produces an explicit version-mismatch message rather than a
    silent misread.  Per-job configs can be revived with
    ``EngineConfig.from_json(job["config"])``.
    """
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ReportError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ReportError(
            f"{path}: expected a JSON object, got {type(data).__name__}"
        )
    schema = data.get("schema")
    if schema == JSON_SCHEMA_ID_V1:
        raise ReportError(
            f"{path}: schema version mismatch: this is a "
            f"{JSON_SCHEMA_ID_V1!r} report, but this reader requires "
            f"{JSON_SCHEMA_ID!r} (v2 embeds each job's engine config); "
            f"regenerate the report with 'repro-coverage suite --json'"
        )
    if schema != JSON_SCHEMA_ID:
        raise ReportError(
            f"{path}: unrecognised schema {schema!r} "
            f"(expected {JSON_SCHEMA_ID!r})"
        )
    if not isinstance(data.get("jobs"), list):
        raise ReportError(f"{path}: report has no 'jobs' list")
    if not isinstance(data.get("totals"), dict):
        raise ReportError(f"{path}: report has no 'totals' object")
    return data


def format_results(
    results: Sequence[AnalysisResult], seconds: Optional[float] = None
) -> str:
    """Human-readable text block: one line per job plus a totals line."""
    lines = [result.format_line() for result in results]
    ok = sum(1 for r in results if r.status == "ok")
    failed = sum(1 for r in results if r.status == "fail")
    errors = sum(1 for r in results if r.status == "error")
    wall = seconds if seconds is not None else sum(r.seconds for r in results)
    lines.append(
        f"{len(results)} job(s): {ok} ok, {failed} failed, {errors} "
        f"error(s) in {wall:.2f}s"
    )
    return "\n".join(lines)
