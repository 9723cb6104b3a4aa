"""Table 2 of the paper: coverage results for the three circuits.

One benchmark per row.  Each measures (a) the verification cost of the
property suite and (b) the coverage-estimation cost, prints the row in the
paper's format next to the published value, and asserts the shape:

=========  ======  =========  =====================================
signal     # prop  paper %    shape asserted here
=========  ======  =========  =====================================
hi-pri     5       100.00     exactly 100%
lo-pri     5        99.98     < 100%, every hole an empty-lo state
wrap       5        60.08     well below 100%
full       2       100.00     exactly 100%
empty      2       100.00     exactly 100%
output     8        74.36     < 100%, every hole a hold state
=========  ======  =========  =====================================
"""


from repro.analysis import Analysis
from repro.circuits import (
    build_circular_queue,
    build_pipeline,
    build_priority_buffer,
    circular_queue_empty_properties,
    circular_queue_full_properties,
    circular_queue_wrap_properties,
    pipeline_output_properties,
    priority_buffer_hi_properties,
    priority_buffer_lo_properties,
)
from repro.expr import parse_expr
from repro.obs import Telemetry

from .conftest import emit

#: Runs per row in the cost-parity check, each on a fresh FSM.  A phase
#: takes a few milliseconds, so one sample is at the mercy of the
#: scheduler; the per-phase minimum over the runs is not.
PARITY_REPEATS = 5


def _run_row(fsm, props, observed, dont_care=None):
    """Verify the suite, then estimate coverage; return (report, v_stats,
    c_stats).  Driven through the Analysis facade — the estimator shares
    the verification checker's sat sets, as the paper's implementation
    memoised results from verification."""
    analysis = Analysis.from_fsm(fsm, props, observed, dont_care)
    meter = Telemetry("off", fsm.manager)
    with meter.span("verify") as verify:
        assert analysis.holds(), (
            f"properties failed: {[str(r.formula) for r in analysis.failing()]}"
        )
    with meter.span("coverage") as cover:
        report = analysis.coverage()
    return report, verify.stats, cover.stats


def _fastest_row(build, props_for, observed, dont_care=None):
    """``(name, v_stats, c_stats)`` holding each phase's fastest of
    :data:`PARITY_REPEATS` runs, each on a fresh FSM."""
    verify, cover = [], []
    for _ in range(PARITY_REPEATS):
        fsm = build()
        _, v_stats, c_stats = _run_row(fsm, props_for(), observed, dont_care)
        verify.append(v_stats)
        cover.append(c_stats)
    return (
        fsm.name,
        min(verify, key=lambda stats: stats.seconds),
        min(cover, key=lambda stats: stats.seconds),
    )


class TestCircuit1PriorityBuffer:
    def test_table2_priority_buffer_hi(self, benchmark, table_row):
        fsm = build_priority_buffer()
        props = priority_buffer_hi_properties()
        report, v_stats, c_stats = benchmark(_run_row, fsm, props, "hi")
        assert len(props) == 5
        assert report.percentage == 100.0
        emit(
            "Table 2 / Circuit 1 (priority buffer)",
            [table_row("hi-pri", len(props), report.percentage, v_stats,
                       c_stats, "100.00%")],
        )

    def test_table2_priority_buffer_lo(self, benchmark, table_row):
        fsm = build_priority_buffer()
        props = priority_buffer_lo_properties()
        report, v_stats, c_stats = benchmark(_run_row, fsm, props, "lo")
        assert len(props) == 5
        assert report.percentage < 100.0
        # The hole is the paper's missing case: the empty low-pri buffer.
        lo_zero = fsm.symbolize(parse_expr("lo = 0"))
        assert report.uncovered.subseteq(lo_zero)
        emit(
            "Table 2 / Circuit 1 (priority buffer)",
            [table_row("lo-pri", len(props), report.percentage, v_stats,
                       c_stats, "99.98%"),
             "holes are exactly the lo=0 states (the escaped-bug case)"],
        )


class TestCircuit2CircularQueue:
    def test_table2_circular_queue_wrap(self, benchmark, table_row):
        fsm = build_circular_queue()
        props = circular_queue_wrap_properties(stage="initial")
        report, v_stats, c_stats = benchmark(_run_row, fsm, props, "wrap")
        assert len(props) == 5
        assert 40.0 <= report.percentage <= 80.0  # paper: 60.08
        emit(
            "Table 2 / Circuit 2 (circular queue)",
            [table_row("wrap", len(props), report.percentage, v_stats,
                       c_stats, "60.08%")],
        )

    def test_table2_circular_queue_full(self, benchmark, table_row):
        fsm = build_circular_queue()
        props = circular_queue_full_properties()
        report, v_stats, c_stats = benchmark(_run_row, fsm, props, "full")
        assert len(props) == 2
        assert report.percentage == 100.0
        emit(
            "Table 2 / Circuit 2 (circular queue)",
            [table_row("full", len(props), report.percentage, v_stats,
                       c_stats, "100.00%")],
        )

    def test_table2_circular_queue_empty(self, benchmark, table_row):
        fsm = build_circular_queue()
        props = circular_queue_empty_properties()
        report, v_stats, c_stats = benchmark(_run_row, fsm, props, "empty")
        assert len(props) == 2
        assert report.percentage == 100.0
        emit(
            "Table 2 / Circuit 2 (circular queue)",
            [table_row("empty", len(props), report.percentage, v_stats,
                       c_stats, "100.00%")],
        )


class TestCircuit3Pipeline:
    def test_table2_pipeline_output(self, benchmark, table_row):
        fsm = build_pipeline()
        props = pipeline_output_properties()
        report, v_stats, c_stats = benchmark(
            _run_row, fsm, props, "output", "!out_valid"
        )
        assert len(props) == 8
        assert report.percentage < 100.0  # paper: 74.36
        holding = fsm.symbolize(parse_expr("h != 0"))
        assert report.uncovered.subseteq(holding)
        emit(
            "Table 2 / Circuit 3 (pipeline)",
            [table_row("output", len(props), report.percentage, v_stats,
                       c_stats, "74.36%"),
             "holes are exactly the hold-period (h != 0) states"],
        )


class TestCostParity:
    def test_table2_cost_parity_across_rows(self, benchmark):
        """The paper's headline cost claim: per row, coverage estimation
        costs about the same as verification ("runtimes and memory
        requirements are similar to those required by the actual
        verification").

        Each phase's time is its minimum over :data:`PARITY_REPEATS`
        fresh runs, so the benchmark runs the whole comparison once."""

        def run():
            return [
                _fastest_row(build_priority_buffer,
                             priority_buffer_hi_properties, "hi"),
                _fastest_row(build_circular_queue,
                             lambda: circular_queue_wrap_properties(
                                 stage="initial"),
                             "wrap"),
                _fastest_row(build_pipeline, pipeline_output_properties,
                             "output", "!out_valid"),
            ]

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        lines = []
        for name, v_stats, c_stats in rows:
            ratio = (c_stats.seconds / v_stats.seconds) if v_stats.seconds else 0
            lines.append(
                f"{name:22s} verify[{v_stats.format()}] "
                f"coverage[{c_stats.format()}] ratio={ratio:.2f}x"
            )
            # "Same order of complexity": within an order of magnitude.
            assert c_stats.seconds < 10 * max(v_stats.seconds, 1e-6)
        emit("Table 2 cost parity (verification vs coverage)", lines)
