"""Coverage-as-a-service: the ``repro serve`` analysis server.

The paper's coverage estimate is a pure function of (model, property
suite, engine config) — so identical requests deserve one computation,
not many.  This package keeps an analysis service resident: a
content-addressed result cache (:mod:`~repro.serve.cache`) keyed by the
``repro-key/v2`` scheme (:mod:`~repro.serve.keys`), a warm recycling
worker pool (:mod:`~repro.serve.workers`), a hand-rolled asyncio HTTP
server (:mod:`~repro.serve.server`), and a tiny blocking client
(:mod:`~repro.serve.client`) that ``repro-coverage run/suite --server``
speak through.  See ``docs/serving.md`` for the protocol and
operational story.
"""

#: Every public name loads with its module on first use: ``repro serve``
#: needs no HTTP client, and a thin client needs no server.
_LAZY = {
    "ResultCache": "cache",
    "default_cache_dir": "cache",
    "ServeClient": "client",
    "KEY_SCHEME": "keys",
    "canonical_rml": "keys",
    "model_key": "keys",
    "request_key": "keys",
    "SERVE_SCHEMA": "server",
    "AnalysisServer": "server",
    "ServeOptions": "server",
    "run_server": "server",
    "WorkerPool": "workers",
    "analyze_payload": "workers",
    "job_from_payload": "workers",
    "payload_from_job": "workers",
}

__all__ = [
    "KEY_SCHEME",
    "SERVE_SCHEMA",
    "AnalysisServer",
    "ResultCache",
    "ServeClient",
    "ServeOptions",
    "WorkerPool",
    "analyze_payload",
    "canonical_rml",
    "default_cache_dir",
    "job_from_payload",
    "model_key",
    "payload_from_job",
    "request_key",
    "run_server",
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
