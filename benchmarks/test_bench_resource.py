"""Resource-manager benchmark: deep BDDs and bounded memory.

The seed engine died with ``RecursionError`` on any model with >= ~1200 BDD
levels (Python's default recursion limit), and never ran its garbage
collector, so node arrays and caches grew without bound.  This bench drives
the two fixes at production scale:

* **Depth** — a ~700-latch scaled pipeline (>= 1400 interleaved BDD levels)
  completes full reachability *and* a coverage estimate on the iterative
  core, with ``sys.getrecursionlimit()`` untouched at its default.
* **Memory** — the automatic GC keeps the live node count bounded by the
  configured threshold while the same workload runs, and the bench reports
  the peak-memory and GC-overhead numbers the policy trades off.

Numbers are printed via ``emit`` (visible with ``pytest -s``); set
``REPRO_BENCH_DEEP_STAGES`` to scale the deep case up or down (the default
349 stages = 700 latches = 1406 levels is the smallest instance past the
acceptance floor).
"""

import os
import sys
import time

from repro.circuits import build_pipeline
from repro.coverage import CoverageEstimator
from repro.ctl.parser import parse_ctl
from repro.engine import EngineConfig
from repro.mc import ModelChecker
from repro.obs import Telemetry

from .conftest import emit

#: 349 stages -> 700 latches (2 per stage + 2 hold-counter bits) -> 1406
#: interleaved current/next BDD levels: comfortably past both Python's
#: default recursion limit (1000) and the seed engine's ~1200-level crash.
DEEP_STAGES = int(os.environ.get("REPRO_BENCH_DEEP_STAGES", "349"))

#: Auto-GC live-node threshold for the deep run.
GC_THRESHOLD = 300_000


def test_deep_pipeline_reachability_and_coverage():
    """The previously-crashing case: >= 1400 levels end to end."""
    limit_before = sys.getrecursionlimit()
    config = EngineConfig(gc_threshold=GC_THRESHOLD)
    t0 = time.perf_counter()
    fsm = build_pipeline(stages=DEEP_STAGES, config=config)
    build_seconds = time.perf_counter() - t0
    levels = 2 * len(fsm.state_vars)
    if DEEP_STAGES >= 349:
        assert len(fsm.latches) >= 700
        assert levels >= 1400

    manager = fsm.manager
    meter = Telemetry("off", manager)
    with meter.span("reachability") as reach:
        reachable = fsm.reachable()
    # Fairness off: the bench measures the engine substrate, not the
    # Emerson-Lei fixpoint (which multiplies the image count).
    checker = ModelChecker(fsm, use_fairness=False)
    estimator = CoverageEstimator(fsm, checker=checker)
    prop = parse_ctl("AG (output | !output)")
    with meter.span("coverage") as cover:
        report = estimator.estimate([prop], observed="output")

    # Depth: the whole run completed without touching the recursion limit.
    assert sys.getrecursionlimit() == limit_before
    assert not reachable.is_false()
    assert report.space_count > 0

    # Memory: auto-GC ran, and the live structure fits the threshold (the
    # unique table transiently carries garbage between collections; a final
    # sweep exposes the actual live set the threshold governs).
    assert manager.gc_runs >= 1
    manager.collect_garbage()
    assert manager.node_count() <= GC_THRESHOLD

    stats = reach.stats + cover.stats
    emit(
        f"Deep pipeline (stages={DEEP_STAGES}, latches={len(fsm.latches)}, "
        f"levels={levels})",
        [
            f"build:          {build_seconds:.2f}s",
            f"reachability:   {reach.stats.seconds:.2f}s "
            f"({reach.stats.nodes_created} nodes created)",
            f"coverage:       {cover.stats.seconds:.2f}s "
            f"({report.percentage:.2f}% of a ~2^"
            f"{report.space_count.bit_length() - 1}-state space)",
            f"peak live:      {stats.peak_live_nodes} nodes "
            f"(threshold {GC_THRESHOLD}, final live {manager.node_count()})",
            f"GC overhead:    {stats.gc_runs} runs, {stats.gc_seconds:.2f}s "
            f"({100 * stats.gc_seconds / max(stats.seconds, 1e-9):.1f}% of "
            f"measured time)",
            f"recursion limit untouched at {limit_before}",
        ],
    )


def test_auto_gc_bounds_peak_memory():
    """GC on vs off, same mid-size workload: the peak drops, results don't."""
    stages = max(8, min(80, DEEP_STAGES // 4))

    def run(config):
        fsm = build_pipeline(stages=stages, config=config)
        fsm.reachable()
        manager = fsm.manager
        return manager.peak_nodes, manager.gc_runs, fsm.count_states(fsm.reachable())

    peak_off, gc_off, states_off = run(
        EngineConfig(gc_threshold=0, cache_threshold=0)
    )
    threshold = max(10_000, peak_off // 4)
    peak_on, gc_on, states_on = run(EngineConfig(gc_threshold=threshold))

    assert gc_off == 0
    assert gc_on >= 1
    assert states_on == states_off  # GC changes cost, never results
    assert peak_on < peak_off
    emit(
        f"Auto-GC memory bound (stages={stages})",
        [
            f"GC off: peak {peak_off} live nodes",
            f"GC on (threshold {threshold}): peak {peak_on} live nodes "
            f"({gc_on} collections)",
            f"peak reduction: {100 * (1 - peak_on / peak_off):.1f}%",
        ],
    )


def test_gc_overhead_is_bounded():
    """The GC's own cost stays a small fraction of total runtime even at an
    intentionally tight threshold."""
    stages = max(8, min(60, DEEP_STAGES // 6))
    fsm = build_pipeline(stages=stages, config=EngineConfig(gc_threshold=20_000))
    with Telemetry("off", fsm.manager).span("reachability") as span:
        fsm.reachable()
    stats = span.stats
    assert stats.gc_runs >= 1
    assert stats.gc_seconds < stats.seconds  # overhead, not the workload
    emit(
        f"GC overhead (stages={stages}, threshold 20k)",
        [
            f"workload: {stats.seconds:.2f}s, GC: {stats.gc_seconds:.2f}s "
            f"across {stats.gc_runs} collections "
            f"({100 * stats.gc_seconds / max(stats.seconds, 1e-9):.1f}%)",
        ],
    )
