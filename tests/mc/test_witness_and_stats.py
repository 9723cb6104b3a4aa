"""Tests for trace formatting, input-sequence extraction, and work stats."""


from repro.bdd import BDDManager
from repro.circuits import build_counter
from repro.coverage import CoverageEstimator
from repro.ctl import parse_ctl
from repro.expr import parse_expr
from repro.mc import ModelChecker, format_trace, input_sequence
from repro.obs import Telemetry, WorkStats


class TestInputSequence:
    def test_extracts_inputs_per_cycle(self):
        fsm = build_counter()
        target = fsm.symbolize(parse_expr("count = 2"))
        trace = fsm.shortest_trace(target)
        stimulus = input_sequence(fsm, trace)
        assert len(stimulus) == len(trace) - 1
        for step in stimulus:
            assert set(step) == {"stall", "reset"}
            # Reaching count=2 fastest requires free-running cycles.
            assert step["stall"] is False
            assert step["reset"] is False


class TestFormatTrace:
    def test_contains_cycles_and_inputs(self):
        fsm = build_counter()
        target = fsm.symbolize(parse_expr("count = 2"))
        trace = fsm.shortest_trace(target)
        text = format_trace(fsm, trace, title="demo")
        assert text.startswith("demo")
        assert "cycle 0" in text
        assert "inputs:" in text
        assert "count=2" in text

    def test_none_trace(self):
        fsm = build_counter()
        assert "unreachable" in format_trace(fsm, None)

    def test_final_cycle_has_no_inputs(self):
        fsm = build_counter()
        target = fsm.symbolize(parse_expr("count = 1"))
        trace = fsm.shortest_trace(target)
        text = format_trace(fsm, trace)
        last_line = text.splitlines()[-1]
        assert "inputs:" not in last_line


class TestWorkStats:
    def test_meter_measures_nodes_and_time(self):
        mgr = BDDManager([f"v{i}" for i in range(8)])
        with Telemetry("off", mgr).span("xor-chain") as span:
            f = mgr.var("v0")
            for i in range(1, 8):
                f = mgr.apply_xor(f, mgr.var(f"v{i}"))
        assert span.stats.nodes_created > 0
        assert span.stats.seconds >= 0
        assert span.stats.nodes_live == mgr.node_count()

    def test_stats_addition(self):
        a = WorkStats(seconds=1.0, nodes_created=10, nodes_live=100)
        b = WorkStats(seconds=2.0, nodes_created=5, nodes_live=50)
        total = a + b
        assert total.seconds == 3.0
        assert total.nodes_created == 15
        assert total.nodes_live == 100  # max, not sum

    def test_format_small_and_large(self):
        assert WorkStats(seconds=1.5, nodes_created=500).format() == "500 - 1.50s"
        assert "k" in WorkStats(seconds=0.1, nodes_created=124_000).format()


class TestCheckerStats:
    def test_check_reports_cost(self):
        fsm = build_counter()
        checker = ModelChecker(fsm)
        result = checker.check(parse_ctl("AG count < 5"))
        assert result.holds
        assert result.stats.nodes_created >= 0
        assert result.stats.nodes_live > 0

    def test_bare_fsm_meters_the_manager_delta(self):
        """An FSM built outside ``Analysis`` meters with its own recorder:
        a check's cost is the manager's node delta over the call, and the
        estimator fills in per-property costs too."""
        fsm = build_counter()
        checker = ModelChecker(fsm)
        before = fsm.manager.created_nodes
        result = checker.check(parse_ctl("AG (!stall & !reset & count = 1 -> AX count = 2)"))
        assert result.holds
        assert result.stats.nodes_created == fsm.manager.created_nodes - before
        assert result.stats.nodes_created > 0
        report = CoverageEstimator(fsm, checker=checker).estimate(
            [result.formula], observed="count"
        )
        assert report.per_property[0].stats.nodes_created > 0
