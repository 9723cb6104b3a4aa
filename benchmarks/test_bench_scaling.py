"""The Section 3 complexity claim: coverage estimation scales like model
checking.

"This algorithm is of the same order of complexity as conventional symbolic
model checking algorithms. ... In practice, coverage estimation can be
slightly more expensive than the verification in some cases because it
requires computing the coverage space as the set of reachable states."

We sweep the circular-queue depth and measure, at each size, the BDD work
(nodes created) for verification and for coverage estimation of the same
suite.  Asserted shape: the coverage/verification work ratio stays bounded
(it does not blow up with model size).

The sweep pins ``trans="mono"`` deliberately: the paper's complexity claim
is about the classic monolithic-relation algorithm (SMV's).  Partitioned
execution (our default) makes the preimage-heavy verification phase so
much cheaper that the cover/verify ratio drifts upward — a *win* that
would nonetheless distort this particular apples-to-apples shape check
(``benchmarks/test_bench_partition.py`` measures that win directly).
"""

from repro.circuits import build_circular_queue, circular_queue_wrap_properties
from repro.circuits.circular_queue import circular_queue_wrap_stall_property
from repro.coverage import CoverageEstimator
from repro.engine import EngineConfig
from repro.mc import ModelChecker
from repro.obs import Telemetry

from .conftest import emit

DEPTHS = [2, 4, 8]


#: The sweep is pinned to the monolithic relation (see module docstring).
MONO = EngineConfig(trans="mono")


def _measure(depth):
    props = circular_queue_wrap_properties(depth=depth, stage="extended")
    props.append(circular_queue_wrap_stall_property(depth=depth))
    # Screen out properties that do not hold at this depth on a throwaway
    # manager so the measured run starts cold.
    screen = ModelChecker(build_circular_queue(depth=depth, config=MONO))
    props = [p for p in props if screen.holds(p)]

    fsm = build_circular_queue(depth=depth, config=MONO)
    checker = ModelChecker(fsm)
    meter = Telemetry("off", fsm.manager)
    with meter.span("verify") as verify:
        for prop in props:
            assert checker.holds(prop)
    estimator = CoverageEstimator(fsm, checker=checker)
    with meter.span("coverage") as cover:
        report = estimator.estimate(props, observed="wrap", verify=False)
    return {
        "depth": depth,
        "states": fsm.count_states(fsm.reachable()),
        "verify": verify.stats,
        "cover": cover.stats,
        "percent": report.percentage,
    }


def test_scaling_coverage_tracks_verification(benchmark):
    rows = benchmark(lambda: [_measure(d) for d in DEPTHS])
    lines = []
    for row in rows:
        verify_nodes = max(row["verify"].nodes_created, 1)
        ratio = row["cover"].nodes_created / verify_nodes
        lines.append(
            f"depth={row['depth']:<2d} states={row['states']:<6d} "
            f"verify[{row['verify'].format()}] "
            f"coverage[{row['cover'].format()}] node-ratio={ratio:.2f}x "
            f"cov={row['percent']:.1f}%"
        )
    emit("Scaling: coverage-estimation cost vs verification cost", lines)

    # Shape: the ratio must not explode as the model grows (same order of
    # complexity).  Allow generous slack: within 25x at every size, and the
    # largest size within 8x.
    for row in rows:
        ratio = row["cover"].nodes_created / max(row["verify"].nodes_created, 1)
        assert ratio < 25.0, f"coverage blew up at depth {row['depth']}"
    last = rows[-1]
    assert last["cover"].nodes_created < 8 * max(last["verify"].nodes_created, 1)


def test_scaling_reachability_dominates_extra_cost(benchmark):
    """The paper attributes the extra coverage cost to reachability
    analysis; confirm reachable-state computation is a significant share of
    the estimation-only work at the largest depth."""

    def run():
        fsm = build_circular_queue(depth=8)
        with Telemetry("off", fsm.manager).span("reachability") as span:
            fsm.reachable()
        return span.stats

    stats = benchmark(run)
    assert stats.nodes_created > 0
    emit(
        "Reachability share of estimation cost (depth 8)",
        [f"reachability alone: {stats.format()}"],
    )
