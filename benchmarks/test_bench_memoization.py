"""The Section 3 memoisation remark, as an ablation.

"Results for sub-formulas computed during verification can be memoized and
used during coverage estimation for a more efficient implementation."

Benchmark the same estimation twice: once sharing the verification
checker's satisfaction-set cache, once from a cold checker.  Asserted
shape: the shared run allocates no more BDD nodes than the cold run.
"""

from repro.circuits import (
    build_circular_queue,
    build_priority_buffer,
    circular_queue_wrap_properties,
    priority_buffer_hi_properties,
)
from repro.coverage import CoverageEstimator
from repro.mc import ModelChecker
from repro.obs import Telemetry

from .conftest import emit


def _estimation_cost(build, props_for, observed, share):
    fsm = build()
    props = props_for()
    checker = ModelChecker(fsm)
    for prop in props:
        assert checker.holds(prop)
    if share:
        estimator = CoverageEstimator(fsm, checker=checker)
    else:
        estimator = CoverageEstimator(fsm, checker=ModelChecker(fsm))
    with Telemetry("off", fsm.manager).span("estimate") as span:
        estimator.estimate(props, observed=observed)
    return span.stats


class TestMemoization:
    def test_memoization_shared_checker(self, benchmark):
        stats = benchmark(
            _estimation_cost,
            build_circular_queue,
            lambda: circular_queue_wrap_properties(stage="extended"),
            "wrap",
            True,
        )
        emit("Memoisation ablation (queue wrap, shared checker)",
             [f"estimation: {stats.format()}"])

    def test_memoization_cold_checker(self, benchmark):
        stats = benchmark(
            _estimation_cost,
            build_circular_queue,
            lambda: circular_queue_wrap_properties(stage="extended"),
            "wrap",
            False,
        )
        emit("Memoisation ablation (queue wrap, cold checker)",
             [f"estimation: {stats.format()}"])

    def test_memoization_shared_never_costs_more(self, benchmark):
        def run():
            shared = _estimation_cost(
                build_priority_buffer, priority_buffer_hi_properties, "hi", True
            )
            cold = _estimation_cost(
                build_priority_buffer, priority_buffer_hi_properties, "hi", False
            )
            return shared, cold

        shared, cold = benchmark(run)
        assert shared.nodes_created <= cold.nodes_created
        emit(
            "Memoisation ablation (buffer hi)",
            [f"shared checker: {shared.format()}",
             f"cold checker:   {cold.format()}",
             f"saved nodes:    {cold.nodes_created - shared.nodes_created}"],
        )
