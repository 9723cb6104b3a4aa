"""The traced pass: spans around calls into each layer's public functions.

Spans are recorded by the benchmark, not by the program: each one wraps a
call into ``repro.lang``, ``repro.lint``, ``FSM``, ``ModelChecker``,
``CoverageEstimator`` or ``repro.coverage.format_uncovered_traces`` and
carries the BDD manager's ``resource_stats()`` delta across the call.
They stay in memory and are written as one Chrome-trace JSON at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: ``resource_stats()`` counters a span carries as deltas.
SPAN_COUNTERS = ("nodes_created", "gc_runs", "gc_freed")

#: The layer spans whose union should cover the whole layered pass.
LAYER_SPANS = (
    "lang.parse", "lang.elaborate", "lint.lint", "fsm.reach", "fsm.count",
    "mc.verify", "coverage.estimate", "coverage.traces",
)


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    args: Dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span recorder that also times its own bookkeeping, which
    is the tracing overhead (what a traced pass costs over an untraced
    one)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.overhead_s = 0.0
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, manager=None, **args) -> Iterator[Span]:
        entered = time.perf_counter()
        before = manager.resource_stats() if manager is not None else None
        span = Span(name, self._stack[-1] if self._stack else None, args=args)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        self.overhead_s += span.start - entered
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            if before is not None:
                after = manager.resource_stats()
                for key in SPAN_COUNTERS:
                    span.args[key] = after[key] - before[key]
            self._stack.pop()
            self.overhead_s += time.perf_counter() - span.end

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def arg_total(self, name: str, key: str) -> int:
        return sum(s.args.get(key, 0) for s in self.spans if s.name == name)

    def durations(self, name: str) -> List[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def span_share(self, root: str = "layers") -> float:
        """Share of the ``root`` spans' wall time that layer spans cover;
        whatever runs between layer calls (object set-up, bookkeeping,
        the recorder itself) is the uncovered rest."""
        whole = self.total(root)
        covered = sum(self.total(name) for name in LAYER_SPANS)
        return covered / whole if whole else 0.0

    def write_chrome_trace(self, path: Path) -> None:
        """One Chrome-trace JSON (opens in https://ui.perfetto.dev)."""
        events = []
        for index, span in enumerate(self.spans):
            args = dict(span.args)
            args["span_id"] = index
            if span.parent is not None:
                args["parent_id"] = span.parent
            events.append({
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": round((span.start - self._origin) * 1e6, 3),
                "dur": round(span.seconds * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": args,
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}, default=str
        ))


@dataclass
class PassTotals:
    """What the layered pass learned besides its spans."""

    #: Summed final ``resource_stats()`` of every model's manager
    #: (``peak_live_nodes`` is the maximum instead).
    bdd: Dict[str, int] = field(default_factory=dict)
    property_nodes_max: int = 0
    #: Reachable-state count per model name.
    reachable: Dict[str, int] = field(default_factory=dict)


def layered_pass(
    rec: Recorder, models: Sequence[Tuple[str, str]], traces: int = 1
) -> PassTotals:
    """Drive every layer in-process over ``(name, text)`` models, one
    span per layer call, reachability before verification."""
    from repro.coverage import CoverageEstimator, format_uncovered_traces
    from repro.lang import elaborate, parse_module
    from repro.lint import lint_module
    from repro.mc import ModelChecker

    totals = PassTotals()
    for name, text in models:
        with rec.span("model", model=name):
            with rec.span("lang.parse"):
                module = parse_module(text, filename=name)
            with rec.span("lang.elaborate") as span:
                model = elaborate(module)
            fsm = model.fsm
            manager = fsm.manager
            span.args["nodes_created"] = manager.resource_stats()["nodes_created"]
            with rec.span("lint.lint"):
                lint_module(module, text=text, filename=name)
            checker = ModelChecker(fsm)
            with rec.span("fsm.reach", manager):
                reach = fsm.reachable()
            with rec.span("mc.verify", manager):
                checks = [checker.check(spec) for spec in model.specs]
            if all(check.holds for check in checks):
                estimator = CoverageEstimator(fsm, checker=checker)
                with rec.span("coverage.estimate", manager):
                    report = estimator.estimate(
                        model.specs, observed=model.observed,
                        dont_care=model.dont_care,
                    )
                totals.property_nodes_max = max(
                    [totals.property_nodes_max]
                    + [p.stats.nodes_created for p in report.per_property]
                )
                with rec.span("coverage.traces", manager):
                    format_uncovered_traces(report, count=traces)
            with rec.span("fsm.count", manager):
                totals.reachable[name] = fsm.count_states(reach)
        _accumulate(totals.bdd, manager.resource_stats())
    return totals


def _accumulate(into: Dict[str, int], stats: Dict[str, float]) -> None:
    for key, value in stats.items():
        if key == "gc_seconds":
            continue
        if key in ("peak_live_nodes", "chain_max_len"):
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


def bdd_metrics(stats: Dict[str, int]) -> Dict[str, float]:
    """The ``bdd.*`` per-layer counters from summed ``resource_stats()``."""
    hits = sum(v for k, v in stats.items() if k.endswith("_hits") and k != "unique_hits")
    misses = sum(v for k, v in stats.items() if k.endswith("_misses"))
    return {
        "bdd.nodes_created": stats["nodes_created"],
        "bdd.peak_live_nodes": stats["peak_live_nodes"],
        "bdd.unique_probes": stats["unique_probes"],
        "bdd.op_misses": misses,
        "bdd.op_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "bdd.gc_runs": stats["gc_runs"],
        "bdd.gc_freed": stats["gc_freed"],
    }
