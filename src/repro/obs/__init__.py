"""`repro.obs` — the engine's telemetry spine.

The paper reports every experiment as a cost pair — "BDD nodes - time" per
signal (Table 2) — so cost is a first-class output of this codebase, not a
debugging afterthought.  This package is the one instrumentation layer all
engine work reports through:

:mod:`repro.obs.telemetry`
    Hierarchical phase spans (parse → elaborate → build-trans →
    reachability → verify-suite/verify → coverage-suite/coverage →
    traces) that snapshot
    :meth:`~repro.bdd.manager.BDDManager.resource_stats` deltas at their
    boundaries, plus per-iteration frontier events inside the reachability
    fixpoint.  The span is the engine's one meter: at every telemetry
    level it yields its phase's :class:`~repro.obs.telemetry.WorkStats`,
    the cost every report carries; the level only decides whether spans
    are kept.
:mod:`repro.obs.trace`
    Chrome-trace-event export of a recorded telemetry — open the file in
    Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
:mod:`repro.obs.bench`
    The ``repro bench`` workload registry and ``BENCH_<name>.json``
    baseline codec: counters are the stable, machine-independent signal;
    wall-clock rides along as information.
:mod:`repro.obs.counters`
    A process-global named-counter registry for subsystems whose
    lifetime outlives any one analysis (the ``repro serve`` cache and
    worker pool, the parser's parse-count telemetry); surfaces in the
    server's ``/v1/stats`` as a ``repro-metrics/v1`` document.

Everything here is pure stdlib, and recording is observationally inert:
spans and events only *read* engine state (resource counters, satcounts),
so a run with telemetry on produces byte-identical verdicts, coverage
numbers and traces to a run with telemetry off.
"""

from .counters import (
    counter_delta,
    counter_inc,
    counter_value,
    counters_snapshot,
)
from .telemetry import (
    METRICS_SCHEMA,
    TELEMETRY_COUNTERS,
    TELEMETRY_LEVELS,
    TELEMETRY_OFF,
    TELEMETRY_SPANS,
    Span,
    Telemetry,
    WorkStats,
    format_profile,
)

#: Re-exports loaded on first use: the bench harness and the trace
#: exporter are for ``repro bench`` and ``--trace``, and everything that
#: imports the engine config (every CLI command) imports this package.
_LAZY = {
    "chrome_trace_events": "trace",
    "write_chrome_trace": "trace",
    "BENCH_SCHEMA": "bench",
    "BENCH_WORKLOADS": "bench",
    "BenchResult": "bench",
    "BenchWorkload": "bench",
    "baseline_path": "bench",
    "compare_result": "bench",
    "load_baseline": "bench",
    "run_bench": "bench",
    "run_workload": "bench",
    "write_baseline": "bench",
}

__all__ = [
    "METRICS_SCHEMA",
    "TELEMETRY_COUNTERS",
    "TELEMETRY_LEVELS",
    "TELEMETRY_OFF",
    "TELEMETRY_SPANS",
    "Span",
    "Telemetry",
    "WorkStats",
    "format_profile",
    "chrome_trace_events",
    "write_chrome_trace",
    "BENCH_SCHEMA",
    "BENCH_WORKLOADS",
    "BenchResult",
    "BenchWorkload",
    "baseline_path",
    "compare_result",
    "load_baseline",
    "run_bench",
    "run_workload",
    "write_baseline",
    "counter_delta",
    "counter_inc",
    "counter_value",
    "counters_snapshot",
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
