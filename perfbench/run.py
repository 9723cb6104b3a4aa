"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the workload's inputs and
reference answers from the seed, measures for ``S`` seconds, and prints a
human-readable report followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes the
separate traced pass, reports the per-layer metrics and writes a
Chrome-trace JSON under ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

#: Metric units, by name; every reported metric must be listed here.
UNITS = {
    "setup_s": "s",
    "latency_ms": "ms",
    "peak_rss_mb": "MB",
    "cli.startup_s": "s",
    "lang.parse_s": "s",
    "lang.elaborate_s": "s",
    "lang.elaborate_nodes": "count",
    "lint.lint_s": "s",
    "fsm.reach_s": "s",
    "fsm.reach_nodes": "count",
    "mc.verify_s": "s",
    "mc.verify_nodes": "count",
    "coverage.estimate_s": "s",
    "coverage.estimate_nodes": "count",
    "coverage.property_nodes_max": "count",
    "coverage.cover_verify_ratio": "ratio",
    "coverage.traces_s": "s",
    "coverage.traces_nodes": "count",
    "bdd.nodes_created": "count",
    "bdd.peak_live_nodes": "count",
    "bdd.unique_probes": "count",
    "bdd.op_misses": "count",
    "bdd.op_hit_ratio": "ratio",
    "bdd.gc_runs": "count",
    "bdd.gc_freed": "count",
    "analysis.result_p50_ms": "ms",
    "suite.busy_s": "s",
    "suite.worker_util": "ratio",
    "suite.tail_job_s": "s",
    "suite.shards.steals": "count",
    "serve.key_ms": "ms",
    "serve.cache_get_us": "us",
    "serve.cache.hit_ratio": "ratio",
    "serve.memo_hit_ratio": "ratio",
    "serve.dedup_joins": "count",
    "serve.cold_p50_ms": "ms",
    "serve.warm_p50_ms": "ms",
    "serve.edit_p50_ms": "ms",
    "serve.cold_wait_ms": "ms",
    "trace.overhead_s": "s",
    "trace.span_share": "ratio",
}


def _terminated(signum, frame):
    # SystemExit unwinds through the finally blocks that stop children.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    root = Path.cwd()
    sys.path[:0] = [str(root), str(root / "src")]
    from perfbench import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: run from the root of a source checkout "
            "(src/repro not found)", file=sys.stderr,
        )
        return 2

    scratch = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    ctx = workloads.Context(root, scratch, args.seed, args.seconds)
    try:
        inp = workloads.prepare(args.workload, ctx)
        if args.trace:
            trace_path = (
                root / ".perfbench_out"
                / f"trace-{args.workload}-seed{args.seed}.json"
            )
            values = workloads.traced(args.workload, ctx, inp, trace_path)
        else:
            values = workloads.untraced(args.workload, ctx, inp)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    tally = ctx.tally
    for line in ctx.lines:
        print(line)
    for note in tally.notes[:20]:
        print(f"note: {note}")
    print(
        f"attempted {tally.attempted}, failed {tally.failed} "
        f"(failed_share {tally.failed / max(tally.attempted, 1):.4f}), "
        f"wrong_answers {tally.wrong}"
    )
    metrics = {
        name: {"value": float(value), "unit": UNITS[name]}
        for name, value in values.items()
    }
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
