"""`repro.obs.telemetry`: span nesting, counter deltas, levels, inertness."""

import re

import pytest

from repro.bdd import BDDManager, Function, ResourcePolicy
from repro.errors import ConfigError
from repro.obs import (
    NULL_TELEMETRY,
    Span,
    Telemetry,
    format_profile,
)
from repro.obs.telemetry import TELEMETRY_LEVELS


class TestLevels:
    def test_unknown_level_rejected(self):
        with pytest.raises(ConfigError, match="unknown telemetry level"):
            Telemetry("verbose")

    def test_from_level_off_returns_shared_null(self):
        assert Telemetry.from_level("off") is NULL_TELEMETRY

    def test_from_level_returns_fresh_recorders(self):
        a = Telemetry.from_level("spans")
        b = Telemetry.from_level("spans")
        assert a is not b
        assert a.spans_enabled and b.spans_enabled

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


class TestNullTelemetry:
    def test_records_nothing(self):
        with NULL_TELEMETRY.span("phase") as span:
            NULL_TELEMETRY.event("sample", value=1)
        assert span is None
        assert NULL_TELEMETRY.spans == []
        assert NULL_TELEMETRY.events == []

    def test_attach_is_inert(self):
        NULL_TELEMETRY.attach(BDDManager(["x"]))
        assert NULL_TELEMETRY.manager is None

    def test_metrics_minimal(self):
        assert NULL_TELEMETRY.metrics() == {
            "schema": "repro-metrics/v1", "level": "off", "counters": {},
        }

    def test_span_context_is_reused(self):
        assert NULL_TELEMETRY.span("a") is NULL_TELEMETRY.span("b")


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
