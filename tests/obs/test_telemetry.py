"""`repro.obs.telemetry`: span nesting, counter deltas, levels, inertness,
and the span as the one meter of phase costs."""

import re

import pytest

from repro.analysis import Analysis
from repro.bdd import BDDManager, Function, ResourcePolicy
from repro.engine import EngineConfig
from repro.errors import ConfigError
from repro.obs import (
    Span,
    Telemetry,
    format_profile,
)
from repro.obs.telemetry import TELEMETRY_LEVELS


class TestLevels:
    def test_unknown_level_rejected(self):
        with pytest.raises(ConfigError, match="unknown telemetry level"):
            Telemetry("verbose")

    def test_spans_level_recorders_are_fresh(self):
        a = Telemetry("spans")
        b = Telemetry("spans")
        assert a is not b
        assert a.spans_enabled and b.spans_enabled

    def test_off_level_records_no_spans_or_events(self):
        t = Telemetry("off")
        with t.span("phase"):
            t.event("sample", value=1)
        assert not t.enabled
        assert not t.spans_enabled
        assert t.spans == []
        assert t.events == []

    def test_counters_level_records_no_spans(self):
        t = Telemetry("counters")
        with t.span("phase"):
            t.event("sample", value=1)
        assert t.enabled
        assert not t.spans_enabled
        assert t.spans == []
        assert t.events == []

    def test_levels_ordering_is_off_counters_spans(self):
        assert TELEMETRY_LEVELS == ("off", "counters", "spans")


class TestSpanNesting:
    def test_nesting_tracks_depth_and_parent(self):
        t = Telemetry("spans")
        with t.span("a"):
            with t.span("b"):
                with t.span("c"):
                    pass
            with t.span("d"):
                pass
        names = [(s.name, s.depth, s.parent) for s in t.spans]
        assert names == [
            ("a", 0, None), ("b", 1, 0), ("c", 2, 1), ("d", 1, 0),
        ]

    def test_reentrant_same_name_spans(self):
        t = Telemetry("spans")
        for _ in range(3):
            with t.span("verify", property="p"):
                pass
        assert [s.name for s in t.spans] == ["verify"] * 3
        assert all(s.depth == 0 for s in t.spans)
        # Indices are unique even though the name repeats.
        assert [s.index for s in t.spans] == [0, 1, 2]

    def test_span_closes_on_exception(self):
        t = Telemetry("spans")
        with pytest.raises(RuntimeError):
            with t.span("outer"):
                with t.span("inner"):
                    raise RuntimeError("boom")
        assert t._stack == []
        assert all(s.seconds >= 0.0 for s in t.spans)

    def test_event_binds_to_innermost_open_span(self):
        t = Telemetry("spans")
        with t.span("outer"):
            t.event("x", value=1)
            with t.span("inner"):
                t.event("y", value=2)
            t.event("z", value=3)
        spans_of = {e["name"]: e["span"] for e in t.events}
        assert spans_of == {"x": 0, "y": 1, "z": 0}

    def test_event_outside_any_span(self):
        t = Telemetry("spans")
        t.event("lonely", value=1)
        assert t.events[0]["span"] is None


class TestCounterDeltas:
    def test_span_delta_counts_only_inner_work(self):
        mgr = BDDManager(["a", "b", "c"])
        t = Telemetry("spans", manager=mgr)
        _ = mgr.var("a")  # outside any span
        with t.span("work") as span:
            Function.var(mgr, "b") & Function.var(mgr, "c")
        created = span.counters["nodes_created"]
        total = mgr.resource_stats()["nodes_created"]
        assert 0 < created < total

    def test_delta_correct_under_forced_gc(self):
        # An aggressive policy forces collections inside the span; the
        # deltas must reflect the GC runs and freed slots that happened
        # between the snapshots.
        mgr = BDDManager(
            [f"x{i}" for i in range(8)],
            policy=ResourcePolicy(gc_node_threshold=20, gc_growth=1.0),
        )
        t = Telemetry("spans", manager=mgr)
        with t.span("churn") as span:
            for r in range(6):
                f = Function.false(mgr)
                for i in range(8):
                    f = f | (
                        Function.var(mgr, f"x{i}")
                        & ~Function.var(mgr, f"x{(i + r) % 8}")
                    )
        assert span.counters["gc_runs"] == mgr.gc_runs >= 1
        assert span.counters["gc_freed"] > 0
        assert span.counters["gc_runs"] >= 0
        # A span opened after that churn sees none of it.
        with t.span("idle") as idle:
            pass
        assert idle.counters["gc_runs"] == 0
        assert idle.counters["nodes_created"] == 0

    def test_late_attach_deltas_from_zero(self):
        # The parse phase runs before any manager exists; a span that
        # closes after attach() reports the fresh manager's full counters.
        t = Telemetry("spans")
        with t.span("build") as span:
            mgr = BDDManager(["a", "b"])
            _ = Function.var(mgr, "a") & Function.var(mgr, "b")
            t.attach(mgr)
        assert span.counters["nodes_created"] == (
            mgr.resource_stats()["nodes_created"]
        )

    def test_span_without_manager_has_no_counters(self):
        t = Telemetry("spans")
        with t.span("parse") as span:
            pass
        assert span.counters == {}

    def test_first_attached_manager_wins(self):
        a = BDDManager(["x"])
        b = BDDManager(["y"])
        t = Telemetry("spans")
        t.attach(a)
        t.attach(b)
        assert t.manager is a


class TestMetrics:
    def test_metrics_schema_and_shape(self):
        mgr = BDDManager(["a"])
        t = Telemetry("spans", manager=mgr)
        with t.span("phase", label="x"):
            t.event("sample", value=3)
        data = t.metrics()
        assert data["schema"] == "repro-metrics/v1"
        assert data["level"] == "spans"
        assert data["counters"]["nodes_created"] >= 0
        (span,) = data["spans"]
        assert span["name"] == "phase"
        assert span["attrs"] == {"label": "x"}
        assert "seconds" in span and "counters" in span
        (event,) = data["events"]
        assert event["args"] == {"value": 3}

    def test_counters_level_metrics_has_no_spans_key(self):
        mgr = BDDManager(["a"])
        t = Telemetry("counters", manager=mgr)
        data = t.metrics()
        assert data["level"] == "counters"
        assert "spans" not in data and "events" not in data
        assert "nodes_created" in data["counters"]

    def test_metrics_is_json_safe(self):
        import json

        mgr = BDDManager(["a", "b"])
        t = Telemetry("spans", manager=mgr)
        with t.span("p"):
            Function.var(mgr, "a") | Function.var(mgr, "b")
        json.dumps(t.metrics())  # must not raise


def _xor_chain(mgr, width):
    f = Function.var(mgr, "x0")
    for i in range(1, width):
        f = f ^ Function.var(mgr, f"x{i}")
    return f


class TestOneMeter:
    """Spans measure at every level; the level only decides what is kept."""

    def test_span_measures_at_level_off(self):
        mgr = BDDManager([f"x{i}" for i in range(6)])
        t = Telemetry("off", manager=mgr)
        before = mgr.created_nodes
        with t.span("x") as span:
            _xor_chain(mgr, 6)
        assert isinstance(span, Span)
        assert span.stats.nodes_created == mgr.created_nodes - before > 0
        assert span.stats.seconds == span.seconds >= 0.0
        assert t.spans == []

    def test_stats_are_deltas_and_exit_gauges(self):
        mgr = BDDManager(
            [f"x{i}" for i in range(8)],
            policy=ResourcePolicy(gc_node_threshold=20, gc_growth=1.0),
        )
        _xor_chain(mgr, 8)  # outside the span: not part of its cost
        t = Telemetry("counters", manager=mgr)
        with t.span("churn") as span:
            for r in range(4):
                _xor_chain(mgr, 8) & Function.var(mgr, f"x{r}")
        end = mgr.resource_stats()
        stats = span.stats
        for key in ("nodes_created", "gc_runs", "gc_freed", "gc_seconds"):
            assert getattr(stats, key) == span.counters[key]
        assert stats.gc_runs >= 1
        assert stats.nodes_created < end["nodes_created"]
        assert stats.nodes_live == end["nodes_live"]
        assert stats.cache_entries == end["cache_entries"]
        assert stats.peak_live_nodes == end["peak_live_nodes"]

    def test_span_before_attach_measures_seconds_only(self):
        t = Telemetry("off")
        with t.span("parse") as span:
            pass
        assert span.counters == {}
        assert span.stats.nodes_created == 0
        assert span.stats.seconds == span.seconds

    @staticmethod
    def _pipeline_run(monkeypatch, level):
        """Snapshot count and result of ``pipeline@initial``'s
        ``result()`` followed by ``uncovered_traces(1)``."""
        calls = []
        original = BDDManager.resource_stats

        def counting(self):
            calls.append(1)
            return original(self)

        with monkeypatch.context() as patch:
            patch.setattr(BDDManager, "resource_stats", counting)
            analysis = Analysis.builtin(
                "pipeline", stage="initial",
                config=EngineConfig(telemetry=level),
            )
            result = analysis.result()
            traces = analysis.uncovered_traces(1)
        return len(calls), result, traces

    def test_spans_level_takes_no_second_meter(self, monkeypatch):
        """Keeping spans costs no extra snapshots: at level "spans" the
        run snapshots at most once more than at "off" (the ``metrics()``
        read), and reports the same costs."""
        off, off_result, off_traces = self._pipeline_run(monkeypatch, "off")
        spans, spans_result, spans_traces = self._pipeline_run(
            monkeypatch, "spans"
        )
        assert spans <= off + 1
        assert spans_traces == off_traces
        for key in ("nodes_created", "gc_runs", "gc_freed",
                    "cache_entries", "peak_live_nodes", "percentage"):
            assert getattr(spans_result, key) == getattr(off_result, key)

    def test_analysis_costs_come_from_the_phase_spans(self):
        analysis = Analysis.builtin(
            "counter", stage="partial", config=EngineConfig(telemetry="spans")
        )
        result = analysis.result()
        phases = {
            s.name: s for s in analysis.telemetry.spans if s.depth == 0
        }
        verify, cover = phases["verify-suite"], phases["coverage-suite"]
        n = len(analysis.properties)
        assert verify.attrs == cover.attrs == {"properties": n}
        assert result.nodes_created == (
            verify.stats.nodes_created + cover.stats.nodes_created
        )
        assert result.peak_live_nodes == cover.stats.peak_live_nodes
        children = [s for s in analysis.telemetry.spans if s.depth == 1]
        assert [s.name for s in children if s.parent == verify.index] == (
            ["verify"] * n
        )


class TestFormatProfile:
    def test_table_contains_phases_and_total(self):
        mgr = BDDManager(["a"])
        t = Telemetry("spans", manager=mgr)
        with t.span("outer"):
            with t.span("inner", property="AG p"):
                pass
        table = format_profile(t)
        lines = table.splitlines()
        assert "phase" in lines[0] and "nodes - time" in lines[0]
        assert any(line.startswith("outer") for line in lines)
        assert any("  inner [AG p]" in line for line in lines)
        assert lines[-1].startswith("total")
        # Times are in ms: a paper-model phase would read 0.00s in seconds.
        assert all(re.search(r" - \d+\.\dms$", line) for line in lines[1:])

    def test_empty_recording_explains_itself(self):
        assert "no phase spans" in format_profile(Telemetry("counters"))

    def test_span_dataclass_label_truncates(self):
        span = Span(
            name="verify", index=0, parent=None, depth=0,
            attrs={"property": "x" * 100}, t_start=0.0,
        )
        assert len(span.label()) < 70
        assert span.label().startswith("verify [")
