"""End-to-end and per-layer benchmark for the coverage-estimation engine.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``perfbench/README.md`` for
the workloads, the metrics and how to read the trace it writes.
"""
