"""``repro bench`` — the committed perf trajectory.

Each registered :class:`BenchWorkload` runs one full analysis (build →
verify → coverage) over a paper circuit and captures the BDD manager's
cumulative counters.  The counters — nodes created, unique-table probes,
op-cache misses, GC activity — are deterministic for a given engine
version, so they are the *stable* regression signal; wall-clock seconds
ride along as information only.

Baselines live in ``benchmarks/baselines/BENCH_<name>.json`` (schema
:data:`BENCH_SCHEMA`).  ``repro bench --out DIR`` refreshes them;
``repro bench --compare DIR`` re-runs the workloads and fails (exit
non-zero) when a *gated* counter exceeds its baseline by more than the
tolerance, or when the analysis outcome (status / coverage percentage)
drifts at all — coverage results are engine-config-invariant, so any
drift there is a correctness bug, not a perf regression.

The comparison allows ``baseline * (1 + tolerance) + ABS_SLACK``: the
relative term absorbs intentional small shifts, the absolute term keeps
tiny counters (a GC count of 2) from tripping on ±1 noise.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # engine imports obs.telemetry — keep this edge lazy
    from ..engine import EngineConfig

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_WORKLOADS",
    "ABS_SLACK",
    "DEFAULT_TOLERANCE",
    "BenchResult",
    "BenchWorkload",
    "baseline_path",
    "compare_result",
    "load_baseline",
    "run_bench",
    "run_workload",
    "write_baseline",
]

#: Schema tag of a ``BENCH_<name>.json`` baseline document.
BENCH_SCHEMA = "repro-bench/v1"

#: Counters the compare gate enforces (everything else is informational).
GATED_COUNTERS = (
    "nodes_created",
    "peak_live_nodes",
    "unique_probes",
    "op_misses",
    "gc_runs",
)

#: Default relative headroom a gated counter may grow before failing.
DEFAULT_TOLERANCE = 0.10

#: Absolute headroom added on top of the relative tolerance, so tiny
#: counters (``gc_runs`` of 2) don't fail on ±1 noise.
ABS_SLACK = 64

#: The op-cache kinds summed into the derived ``op_misses``/``op_hits``.
_OP_KINDS = ("and", "or", "xor", "not", "quant", "restrict", "relprod")


@dataclass(frozen=True)
class BenchWorkload:
    """One registered benchmark: a named analysis construction."""

    #: Stable identifier — becomes the ``BENCH_<name>.json`` file name.
    name: str
    #: What the workload exercises (shown by ``repro bench --list``).
    description: str
    #: Builds the analysis to run (imports deferred to run time).
    build: Callable[[], "object"]


def _builtin(target: str, stage: Optional[str] = None,
             **config_kwargs) -> Callable[[], "object"]:
    def build():
        from ..analysis import Analysis
        from ..engine import EngineConfig

        config = EngineConfig(**config_kwargs)
        return Analysis.builtin(target, stage=stage, config=config)

    return build


def _rml(text: str) -> Callable[[], "object"]:
    def build():
        from ..analysis import Analysis

        return Analysis.from_rml(text)

    return build


#: Three 12-bit words that meet in two next-state functions and one
#: comparison.  With their bits interleaved by index the check is linear
#: in the width; with the words blocked it is exponential.
WORD_COMPARE_RML = """MODULE word_compare

VAR
  x : word[12];
  a : word[12];
  b : word[12];

DEFINE
  same := a = b;

ASSIGN
  next(a) := x;
  next(b) := x;

SPEC AG same;

OBSERVED same;
"""


class _SummedManager:
    """Duck-typed BDD manager whose ``resource_stats`` is the sum over
    every real manager a workload actually built."""

    def __init__(self, runs: List[Dict[str, int]]):
        self._runs = runs

    def resource_stats(self) -> Dict[str, int]:
        total: Dict[str, int] = {}
        for stats in self._runs:
            for key, value in stats.items():
                if isinstance(value, int):
                    total[key] = total.get(key, 0) + value
        return total


class _SummedFsm:
    def __init__(self, manager: _SummedManager):
        self.manager = manager


class _ServeCacheRun:
    """The ``serve_cache`` workload: repeated identical requests routed
    through the content-addressed result cache (the ``repro serve`` hot
    path, minus the HTTP layer).

    Only cache *misses* build a real analysis, and the reported counters
    sum over every BDD manager actually created — so with a working
    cache they equal exactly one analysis' worth of engine work, and a
    cache that stops hitting (key instability, eviction bug, broken
    round trip) multiplies the gated counters and fails the compare
    gate.
    """

    #: Identical requests per run; only the first may do engine work.
    REPEATS = 4

    def __init__(self):
        from ..engine import EngineConfig

        self.config = EngineConfig()
        self._manager_runs: List[Dict[str, int]] = []
        self.fsm = _SummedFsm(_SummedManager(self._manager_runs))

    def result(self):
        from ..analysis import Analysis, AnalysisResult
        from ..circuits import builtin_source
        from ..serve.cache import ResultCache
        from ..serve.keys import request_key

        cache = ResultCache(max_entries=8)  # memory tier only
        key = request_key(
            builtin_source("queue-wrap", "extended"), config=self.config
        )
        outcome = None
        for _ in range(self.REPEATS):
            hit = cache.get(key)
            if hit is not None:
                outcome = AnalysisResult.from_json(hit)
                continue
            analysis = Analysis.builtin(
                "queue-wrap", stage="extended", config=self.config
            )
            outcome = analysis.result()
            self._manager_runs.append(analysis.fsm.manager.resource_stats())
            cache.put(key, outcome.to_json())
        return outcome


#: The registered workloads, mirroring the ``benchmarks/test_bench_*``
#: suites: Table-2 circuits under the default engine, the same circuits
#: under a forced-GC policy (resource-manager trajectory), the
#: monolithic transition relation (partitioning trajectory), and a word
#: comparison whose cost rests on the variable order.
BENCH_WORKLOADS: Dict[str, BenchWorkload] = {
    w.name: w
    for w in (
        BenchWorkload(
            "counter-full",
            "mod-5 counter, full property suite (paper Section 1)",
            _builtin("counter", stage="full"),
        ),
        BenchWorkload(
            "counter-gc-stress",
            "mod-5 counter under a 50-node GC threshold "
            "(forces collections; tracks GC overhead)",
            _builtin("counter", stage="full", gc_threshold=50, gc_growth=1.0),
        ),
        BenchWorkload(
            "buffer-hi",
            "priority buffer, hi-pri count (Circuit 1)",
            _builtin("buffer-hi"),
        ),
        BenchWorkload(
            "buffer-lo-augmented",
            "priority buffer, lo-pri count, augmented suite (Circuit 1)",
            _builtin("buffer-lo", stage="augmented"),
        ),
        BenchWorkload(
            "queue-wrap-extended",
            "circular queue, wrap bit, extended suite (Circuit 2)",
            _builtin("queue-wrap", stage="extended"),
        ),
        BenchWorkload(
            "pipeline-initial",
            "decode pipeline, initial 8-property suite (Circuit 3)",
            _builtin("pipeline", stage="initial"),
        ),
        BenchWorkload(
            "pipeline-mono",
            "decode pipeline under the monolithic transition relation "
            "(partitioning cost trajectory)",
            _builtin("pipeline", stage="initial", trans="mono"),
        ),
        BenchWorkload(
            "word-compare",
            "three 12-bit words compared and copied (variable-order "
            "trajectory: the bits of words that meet are interleaved)",
            _rml(WORD_COMPARE_RML),
        ),
        BenchWorkload(
            "serve_cache",
            "repeated identical requests through the repro.serve result "
            "cache (counters = exactly one analysis when the cache works)",
            _ServeCacheRun,
        ),
    )
}


@dataclass
class BenchResult:
    """One workload's measured run — the in-memory form of a baseline."""

    name: str
    description: str
    config: "EngineConfig"
    #: Analysis outcome — compared exactly (drift is a correctness bug).
    status: str
    percentage: Optional[float]
    #: Integer engine counters, including the derived ``op_misses`` /
    #: ``op_hits`` aggregates.
    counters: Dict[str, int]
    #: Informational only — never gated.
    wall_seconds: float

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": BENCH_SCHEMA,
            "name": self.name,
            "description": self.description,
            "config": self.config.to_json(),
            "status": self.status,
            "percentage": self.percentage,
            "counters": dict(self.counters),
            "gated": list(GATED_COUNTERS),
            "wall_seconds": round(self.wall_seconds, 3),
        }


def run_workload(workload: BenchWorkload) -> BenchResult:
    """Run one workload and capture its counters."""
    t0 = time.perf_counter()
    analysis = workload.build()
    outcome = analysis.result()
    wall = time.perf_counter() - t0
    stats = analysis.fsm.manager.resource_stats()
    counters = {
        key: value for key, value in stats.items() if isinstance(value, int)
    }
    counters["op_misses"] = sum(counters[f"{k}_misses"] for k in _OP_KINDS)
    counters["op_hits"] = sum(counters[f"{k}_hits"] for k in _OP_KINDS)
    return BenchResult(
        name=workload.name,
        description=workload.description,
        config=analysis.config,
        status=outcome.status,
        percentage=outcome.percentage,
        counters=counters,
        wall_seconds=wall,
    )


def run_bench(names: Optional[Sequence[str]] = None) -> List[BenchResult]:
    """Run the named workloads (all when ``names`` is empty/``None``).

    Raises :class:`ValueError` for an unknown workload name.
    """
    if not names:
        selected = list(BENCH_WORKLOADS)
    else:
        unknown = sorted(set(names) - set(BENCH_WORKLOADS))
        if unknown:
            raise ValueError(
                f"unknown bench workload(s): {', '.join(unknown)} "
                f"(known: {', '.join(BENCH_WORKLOADS)})"
            )
        selected = list(names)
    return [run_workload(BENCH_WORKLOADS[name]) for name in selected]


# ----------------------------------------------------------------------
# Baseline files
# ----------------------------------------------------------------------


def baseline_path(directory: Union[str, Path], name: str) -> Path:
    """Where workload ``name``'s baseline lives under ``directory``."""
    return Path(directory) / f"BENCH_{name}.json"


def write_baseline(result: BenchResult, directory: Union[str, Path]) -> Path:
    """Write ``result`` as its ``BENCH_*.json`` file and return the path."""
    path = baseline_path(directory, result.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n"
    )
    return path


def load_baseline(path: Union[str, Path]) -> Dict[str, object]:
    """Load and sanity-check one baseline document."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: not a {BENCH_SCHEMA} baseline "
            f"(schema: {data.get('schema') if isinstance(data, dict) else None!r})"
        )
    return data


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------


def compare_result(
    fresh: BenchResult,
    baseline: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Tuple[List[str], List[str]]:
    """Compare a fresh run against its baseline document.

    Returns ``(regressions, notes)``: regressions fail the gate; notes
    (improvements, wall-clock movement) are informational.
    """
    regressions: List[str] = []
    notes: List[str] = []

    if fresh.status != baseline.get("status"):
        regressions.append(
            f"{fresh.name}: status drifted "
            f"{baseline.get('status')!r} -> {fresh.status!r}"
        )
    if fresh.percentage != baseline.get("percentage"):
        regressions.append(
            f"{fresh.name}: coverage drifted "
            f"{baseline.get('percentage')} -> {fresh.percentage} "
            f"(results must be engine-invariant)"
        )

    base_counters = baseline.get("counters", {})
    gated = baseline.get("gated", list(GATED_COUNTERS))
    for key in gated:
        base = base_counters.get(key)
        new = fresh.counters.get(key)
        if base is None or new is None:
            regressions.append(
                f"{fresh.name}: gated counter {key!r} missing "
                f"(baseline: {base}, fresh: {new})"
            )
            continue
        allowed = base * (1.0 + tolerance) + ABS_SLACK
        if new > allowed:
            regressions.append(
                f"{fresh.name}: {key} regressed {base} -> {new} "
                f"(allowed <= {allowed:.0f} at tolerance {tolerance:.0%})"
            )
        elif new < base * (1.0 - tolerance) - ABS_SLACK:
            notes.append(
                f"{fresh.name}: {key} improved {base} -> {new} "
                f"(consider refreshing the baseline)"
            )

    base_wall = baseline.get("wall_seconds")
    if isinstance(base_wall, (int, float)):
        notes.append(
            f"{fresh.name}: wall {base_wall:.2f}s -> "
            f"{fresh.wall_seconds:.2f}s (informational)"
        )
    return regressions, notes
