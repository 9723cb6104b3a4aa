"""``repro.suite`` — first-class, parallel suites of coverage jobs.

A :class:`CoverageJob` carries ``.rml`` model text (a builtin target's or
a file's), a property stage, and an :class:`~repro.engine.EngineConfig`; the registry
(:mod:`repro.suite.registry`) merges the built-in circuits with ``.rml``
files discovered on disk; and the runner (:mod:`repro.suite.runner`) fans
jobs out across crash-isolated work-stealing shards
(:mod:`repro.suite.shards`) and collects JSON-ready results.

    >>> from repro.suite import builtin_jobs, run_jobs, suite_report
    >>> jobs = builtin_jobs()
    >>> jobs[0].name, jobs[0].config.trans
    ('counter@full', 'partitioned')

Execute with ``run_jobs(jobs, max_workers=4)`` and serialise with
``suite_report(results)`` — see the README's suite-runner section.  Each
worker drives the shared :class:`~repro.analysis.Analysis` facade, so
suite numbers are produced by exactly the code path the CLI uses.
"""

#: Every public name loads with its module on first use: the server
#: needs the runner and the job type, not the registry or its discovery.
_LAZY = {
    "CoverageJob": "jobs",
    "BUILTIN_TARGETS": "registry",
    "BuiltinTarget": "registry",
    "builtin_source": "registry",
    "builtin_job": "registry",
    "builtin_jobs": "registry",
    "default_jobs": "registry",
    "discover_rml": "registry",
    "rml_job": "registry",
    "JSON_SCHEMA_ID": "runner",
    "JSON_SCHEMA_ID_V1": "runner",
    "execute_job": "runner",
    "format_results": "runner",
    "read_report": "runner",
    "run_jobs": "runner",
    "run_jobs_sharded": "runner",
    "run_jobs_via_server": "runner",
    "suite_report": "runner",
    "write_report": "runner",
    "DEFAULT_MAX_SHARD_RETRIES": "shards",
    "ShardStats": "shards",
    "default_shard_count": "shards",
    "plan_shards": "shards",
    "run_sharded": "shards",
}

__all__ = [
    "CoverageJob",
    "BuiltinTarget",
    "BUILTIN_TARGETS",
    "builtin_source",
    "builtin_job",
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


def __getattr__(name):
    """Import a lazy re-export's module on first use (see ``_LAZY``)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    attr = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = attr
    return attr


def __dir__():
    return sorted(set(globals()) | set(__all__))
