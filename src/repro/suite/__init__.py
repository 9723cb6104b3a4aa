"""``repro.suite`` — first-class, parallel suites of coverage jobs.

A :class:`CoverageJob` names a model (builtin target or ``.rml`` file), a
property stage, and an :class:`~repro.engine.EngineConfig`; the registry
(:mod:`repro.suite.registry`) merges the built-in circuits with ``.rml``
files discovered on disk; and the runner (:mod:`repro.suite.runner`) fans
jobs out across crash-isolated work-stealing shards
(:mod:`repro.suite.shards`) and collects JSON-ready results.

    >>> from repro.suite import builtin_jobs, run_jobs, suite_report
    >>> jobs = builtin_jobs()
    >>> jobs[0].kind, jobs[0].config.trans
    ('builtin', 'partitioned')

Execute with ``run_jobs(jobs, max_workers=4)`` and serialise with
``suite_report(results)`` — see the README's suite-runner section.  Each
worker drives the shared :class:`~repro.analysis.Analysis` facade, so
suite numbers are produced by exactly the code path the CLI uses.
"""

from .jobs import CoverageJob
from .registry import (
    BUILTIN_TARGETS,
    BuiltinTarget,
    build_builtin,
    builtin_jobs,
    default_jobs,
    discover_rml,
    rml_job,
)
from .runner import (
    JSON_SCHEMA_ID,
    JSON_SCHEMA_ID_V1,
    execute_job,
    format_results,
    read_report,
    run_jobs,
    run_jobs_sharded,
    run_jobs_via_server,
    suite_report,
    write_report,
)
from .shards import (
    DEFAULT_MAX_SHARD_RETRIES,
    ShardStats,
    default_shard_count,
    plan_shards,
    run_sharded,
)

__all__ = [
    "CoverageJob",
    "BuiltinTarget",
    "BUILTIN_TARGETS",
    "build_builtin",
    "builtin_jobs",
    "default_jobs",
    "discover_rml",
    "rml_job",
    "DEFAULT_MAX_SHARD_RETRIES",
    "JSON_SCHEMA_ID",
    "JSON_SCHEMA_ID_V1",
    "ShardStats",
    "default_shard_count",
    "execute_job",
    "format_results",
    "plan_shards",
    "read_report",
    "run_jobs",
    "run_jobs_sharded",
    "run_jobs_via_server",
    "run_sharded",
    "suite_report",
    "write_report",
]
