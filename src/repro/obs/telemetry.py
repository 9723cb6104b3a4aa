"""Phase spans and counter snapshots — the one meter of `repro.obs`.

Table 2 of the paper reports, per signal, the cost of model checking and
of coverage estimation as "BDD nodes - time".  A :class:`Telemetry`
measures those costs and collects two kinds of record while an analysis
runs:

* **Spans** — named, nestable phases (``parse``, ``reachability``,
  ``verify`` ...).  Entering a span snapshots the attached BDD manager's
  :meth:`~repro.bdd.manager.BDDManager.resource_stats`; leaving it
  snapshots again and stores the per-counter delta on the span, plus the
  phase's :class:`WorkStats` (nodes created, seconds, GC activity and the
  memory gauges).  Spans are the engine's only meter: a
  :class:`~repro.mc.checker.CheckResult`'s cost, a
  :class:`~repro.coverage.report.PropertyCoverage`'s and an analysis'
  totals are all read off the span that wrapped the work.
* **Events** — instantaneous samples inside a span, e.g. the frontier
  size per reachability iteration.

Recording is *observationally inert* by construction: spans and events
only read counters and timestamps; they never create BDD nodes or touch
the operation caches.  The engine therefore produces byte-identical
verdicts, coverage numbers and traces at every level.

Levels
------
Spans measure at every level — two snapshots per phase — so a caller can
always read its cost off the span it opened.  The level decides only what
is kept and emitted:

``"off"``
    Keep nothing: spans are not added to :attr:`Telemetry.spans` and
    events are dropped.  Every :class:`~repro.fsm.fsm.FSM` starts with
    its own recorder at this level.
``"counters"``
    As ``"off"``, and :meth:`Telemetry.metrics` reports the manager's
    cumulative counters (the cheap always-useful block for JSON reports).
``"spans"``
    Keep the span tree with its counter deltas, and frontier events.

The manager may be attached *after* spans have started (the ``parse``
phase runs before a manager exists).  A span whose start predates the
manager treats its start snapshot as all-zero — correct, because a fresh
manager's counters start at zero.

    >>> t = Telemetry("spans")
    >>> with t.span("outer"):
    ...     with t.span("inner", detail="x"):
    ...         t.event("sample", value=1)
    >>> [(s.name, s.depth) for s in t.spans]
    [('outer', 0), ('inner', 1)]
    >>> t.events[0]["name"], t.events[0]["span"]
    ('sample', 1)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError

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
]

#: Schema tag of the ``metrics`` block emitted into analysis/suite JSON.
METRICS_SCHEMA = "repro-metrics/v1"

#: Keep nothing (the default); spans still measure.
TELEMETRY_OFF = "off"
#: Cumulative manager counters only — no spans or events.
TELEMETRY_COUNTERS = "counters"
#: Full phase spans with counter deltas and frontier events.
TELEMETRY_SPANS = "spans"
#: The valid telemetry levels, in increasing order of detail.
TELEMETRY_LEVELS = (TELEMETRY_OFF, TELEMETRY_COUNTERS, TELEMETRY_SPANS)


@dataclass
class WorkStats:
    """Cost of one measured phase."""

    #: Wall-clock seconds.
    seconds: float = 0.0
    #: BDD nodes created during the phase (allocation work).
    nodes_created: int = 0
    #: Live BDD nodes in the manager when the phase ended.
    nodes_live: int = 0
    #: Garbage collections completed during the phase (manual + automatic).
    gc_runs: int = 0
    #: Wall-clock seconds spent inside those collections (GC overhead).
    gc_seconds: float = 0.0
    #: Node slots those collections recycled.
    gc_freed: int = 0
    #: Combined operation-cache entry count when the phase ended (a gauge,
    #: not a delta: caches persist across phases and evictions can shrink
    #: them mid-phase).
    cache_entries: int = 0
    #: The manager's live-node high-water mark when the phase ended — the
    #: memory bound of the run so far (monotone across phases on a manager).
    peak_live_nodes: int = 0

    def __add__(self, other: "WorkStats") -> "WorkStats":
        """Accumulate two *sequential* phases (``other`` is the later one):
        work counters sum, gauges take the later/larger snapshot."""
        return WorkStats(
            seconds=self.seconds + other.seconds,
            nodes_created=self.nodes_created + other.nodes_created,
            nodes_live=max(self.nodes_live, other.nodes_live),
            gc_runs=self.gc_runs + other.gc_runs,
            gc_seconds=self.gc_seconds + other.gc_seconds,
            gc_freed=self.gc_freed + other.gc_freed,
            cache_entries=max(self.cache_entries, other.cache_entries),
            peak_live_nodes=max(self.peak_live_nodes, other.peak_live_nodes),
        )

    def format(self) -> str:
        """Render in the paper's "<nodes>k - <seconds>s" style."""
        if self.nodes_created >= 1000:
            nodes = f"{self.nodes_created / 1000:.0f}k"
        else:
            nodes = str(self.nodes_created)
        return f"{nodes} - {self.seconds:.2f}s"


@dataclass
class Span:
    """One measured phase: name, position in the tree, cost.

    Below level ``"spans"`` a span is measured but not kept in the tree;
    its ``index``, ``parent`` and ``depth`` are then those of a lone
    top-level span.
    """

    #: Phase name (``parse``, ``reachability``, ``verify`` ...).
    name: str
    #: Position in :attr:`Telemetry.spans` (start order, depth-first).
    index: int
    #: Index of the enclosing span, or ``None`` at top level.
    parent: Optional[int]
    #: Nesting depth (0 = top level).
    depth: int
    #: Caller-supplied labels (e.g. ``property="AG p"``) — JSON-safe.
    attrs: Dict[str, object]
    #: Start time in seconds relative to the telemetry's epoch.
    t_start: float
    #: Wall-clock duration; filled when the span closes.
    seconds: float = 0.0
    #: Per-counter ``resource_stats`` delta across the span; filled when
    #: the span closes (empty when no manager ever attached).
    counters: Dict[str, float] = field(default_factory=dict)
    #: The phase's cost: work counters as deltas, ``nodes_live``,
    #: ``cache_entries`` and ``peak_live_nodes`` as exit values; filled
    #: when the span closes.
    stats: WorkStats = field(default_factory=WorkStats)

    def label(self) -> str:
        """The name plus a short attr suffix for human-facing tables."""
        if not self.attrs:
            return self.name
        detail = " ".join(str(v) for v in self.attrs.values())
        if len(detail) > 48:
            detail = detail[:45] + "..."
        return f"{self.name} [{detail}]"

    def to_json(self) -> Dict[str, object]:
        counters = {
            key: (round(value, 6) if isinstance(value, float) else value)
            for key, value in self.counters.items()
        }
        return {
            "name": self.name,
            "index": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "attrs": dict(self.attrs),
            "seconds": round(self.seconds, 6),
            "counters": counters,
        }


class _SpanContext:
    """Span context: snapshots counters on enter, deltas them on exit, and
    keeps the span in the tree only at level ``"spans"``."""

    __slots__ = ("_telemetry", "_name", "_attrs", "_span", "_snap0", "_t0")

    def __init__(self, telemetry: "Telemetry", name: str, attrs: Dict):
        self._telemetry = telemetry
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        t = self._telemetry
        span = Span(
            name=self._name,
            index=len(t.spans),
            parent=t._stack[-1] if t._stack else None,
            depth=len(t._stack),
            attrs=self._attrs,
            t_start=time.perf_counter() - t._epoch,
        )
        if t.spans_enabled:
            t.spans.append(span)
            t._stack.append(span.index)
        self._span = span
        self._snap0 = t._snapshot()
        self._t0 = time.perf_counter()
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        t = self._telemetry
        span = self._span
        span.seconds = time.perf_counter() - self._t0
        end = t._snapshot()
        if end is None:
            span.stats = WorkStats(seconds=span.seconds)
        else:
            start = self._snap0
            delta = {
                key: (value - start[key] if start is not None else value)
                for key, value in end.items()
            }
            span.counters = delta
            span.stats = WorkStats(
                seconds=span.seconds,
                nodes_created=delta["nodes_created"],
                nodes_live=end["nodes_live"],
                gc_runs=delta["gc_runs"],
                gc_seconds=delta["gc_seconds"],
                gc_freed=delta["gc_freed"],
                cache_entries=end["cache_entries"],
                peak_live_nodes=end["peak_live_nodes"],
            )
        if t._stack and t._stack[-1] == span.index:
            t._stack.pop()
        elif span.index in t._stack:  # misnested exit: unwind to our frame
            del t._stack[t._stack.index(span.index):]
        return False


class Telemetry:
    """The meter and recording of one analysis run.

    Create one per analysis, attach the BDD manager once it exists, and
    wrap phases in :meth:`span`.
    """

    def __init__(self, level: str = TELEMETRY_SPANS, manager=None):
        if level not in TELEMETRY_LEVELS:
            raise ConfigError(
                f"unknown telemetry level {level!r} "
                f"(valid levels: {', '.join(TELEMETRY_LEVELS)})"
            )
        self.level = level
        self.manager = manager
        #: Closed and open spans, in start order.
        self.spans: List[Span] = []
        #: Instantaneous samples: ``{"name", "t", "span", "args"}``.
        self.events: List[Dict[str, object]] = []
        self._stack: List[int] = []
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether this telemetry emits anything (level above ``"off"``)."""
        return self.level != TELEMETRY_OFF

    @property
    def spans_enabled(self) -> bool:
        """Whether spans/events are recorded (level ``"spans"``)."""
        return self.level == TELEMETRY_SPANS

    def attach(self, manager) -> None:
        """Bind the BDD manager whose counters spans snapshot.  The first
        manager wins; spans opened before attachment delta from zero."""
        if self.manager is None:
            self.manager = manager

    def span(self, name: str, **attrs) -> _SpanContext:
        """A context manager measuring ``name`` as a phase; it yields the
        :class:`Span`, whose ``counters`` and ``stats`` are filled on exit
        at every level.  ``attrs`` label the span (JSON-safe values only).
        The span joins :attr:`spans` only at level ``"spans"``.

        >>> from repro.bdd import BDDManager
        >>> manager = BDDManager(["x"])
        >>> with Telemetry("off", manager).span("phase") as span:
        ...     _ = manager.var("x")
        >>> span.stats.nodes_created
        1
        """
        return _SpanContext(self, name, attrs)

    def event(self, name: str, **args) -> None:
        """Record an instantaneous sample (e.g. one fixpoint iteration's
        frontier size) under the innermost open span."""
        if self.level != TELEMETRY_SPANS:
            return
        self.events.append(
            {
                "name": name,
                "t": time.perf_counter() - self._epoch,
                "span": self._stack[-1] if self._stack else None,
                "args": args,
            }
        )

    def record_span(
        self, name: str, seconds: float, **attrs
    ) -> Optional[Span]:
        """Record an externally timed, already-closed span.

        The suite's shard executor uses this: shard work runs in another
        process whose BDD manager this telemetry can never snapshot, so
        the worker measures its own wall time and the parent records the
        finished span here.  No counter deltas are attached (there is no
        local manager activity to delta); ``attrs`` label the span
        exactly like :meth:`span`'s.  No-op below level ``"spans"``.
        """
        if self.level != TELEMETRY_SPANS:
            return None
        span = Span(
            name=name,
            index=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            depth=len(self._stack),
            attrs=attrs,
            t_start=max(0.0, time.perf_counter() - self._epoch - seconds),
            seconds=seconds,
            stats=WorkStats(seconds=seconds),
        )
        self.spans.append(span)
        return span

    def _snapshot(self) -> Optional[Dict[str, float]]:
        if self.manager is None:
            return None
        return self.manager.resource_stats()

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def metrics(self) -> Dict[str, object]:
        """The JSON-safe ``metrics`` block for analysis/suite reports.

        Always carries the manager's cumulative counters; at level
        ``"spans"`` also the span tree and events.  Timing keys are
        exactly ``seconds`` / ``gc_seconds`` / ``t`` so report consumers
        can strip wall-clock noise uniformly.
        """
        counters = self._snapshot() or {}
        data: Dict[str, object] = {
            "schema": METRICS_SCHEMA,
            "level": self.level,
            "counters": {
                key: (round(value, 6) if isinstance(value, float) else value)
                for key, value in counters.items()
            },
        }
        if self.spans_enabled:
            data["spans"] = [span.to_json() for span in self.spans]
            data["events"] = [
                {
                    "name": ev["name"],
                    "t": round(ev["t"], 6),
                    "span": ev["span"],
                    "args": dict(ev["args"]),
                }
                for ev in self.events
            ]
        return data


# ----------------------------------------------------------------------
# The --profile table
# ----------------------------------------------------------------------


def _format_nodes(count: float) -> str:
    """Node counts in the paper's style: ``946k`` above a thousand."""
    count = int(count)
    if count >= 1000:
        return f"{count / 1000:.0f}k"
    return str(count)


def _format_ms(seconds: float) -> str:
    """Phase times in milliseconds: a paper-model phase takes about a
    millisecond, which a seconds column rounds to ``0.00s``."""
    return f"{seconds * 1000:.1f}ms"


def format_profile(telemetry: Telemetry) -> str:
    """Render the recorded spans as the paper's "nodes - time" table.

    One row per phase, indented by nesting depth; the trailing ``total``
    row reports the manager's cumulative node allocation and the summed
    top-level phase time.
    """
    if not telemetry.spans:
        return (
            f"no phase spans recorded (telemetry level: {telemetry.level}; "
            f"run with telemetry level 'spans')"
        )
    rows: List[Tuple[str, str]] = []
    for span in telemetry.spans:
        label = "  " * span.depth + span.label()
        nodes = span.counters.get("nodes_created", 0)
        cost = f"{_format_nodes(nodes)} - {_format_ms(span.seconds)}"
        rows.append((label, cost))
    totals = telemetry._snapshot() or {}
    total_nodes = totals.get("nodes_created", 0)
    total_seconds = sum(s.seconds for s in telemetry.spans if s.depth == 0)
    rows.append(
        ("total", f"{_format_nodes(total_nodes)} - {_format_ms(total_seconds)}")
    )
    width = max(len(label) for label, _ in rows)
    width = max(width, len("phase"))
    lines = [f"{'phase':<{width}}  cost (nodes - time)"]
    lines.extend(f"{label:<{width}}  {cost}" for label, cost in rows)
    return "\n".join(lines)
