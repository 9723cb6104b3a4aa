"""Command-line interface: coverage estimation for circuits and suites.

Target mode (the original interface, now registry-backed)::

    repro-coverage --list
    repro-coverage queue-wrap --stage initial
    repro-coverage buffer-lo --buggy --traces 2
    repro-coverage pipeline --stage augmented

Model files (the ``.rml`` language of :mod:`repro.lang`)::

    repro-coverage run examples/counter.rml
    repro-coverage run examples/arbiter.rml --traces 2

Suites (every registered job — builtin targets at every stage plus
``.rml`` files discovered on disk — optionally in parallel)::

    repro-coverage suite --jobs 4
    repro-coverage suite examples --jobs 4 --json coverage.json

Differential fuzzing (random models cross-checked against every engine
configuration and the explicit-state oracle; see ``docs/testing.md``)::

    repro-coverage fuzz --budget 200 --seed 0
    repro-coverage fuzz --budget 300 --seed 7 --jobs 4 --json fuzz.json

Static analysis (engine-free lint over ``.rml`` models and properties;
see ``docs/linting.md``)::

    repro-coverage lint examples/
    repro-coverage lint model.rml --json --fail-on error

Benchmarks (the committed perf trajectory; see ``docs/observability.md``)::

    repro-coverage bench --list
    repro-coverage bench --out benchmarks/baselines
    repro-coverage bench --compare benchmarks/baselines

Serving (a persistent analysis server with a content-addressed result
cache; ``run``/``suite`` become thin clients via ``--server``; see
``docs/serving.md``)::

    repro-coverage serve --port 8737 --workers 4
    repro-coverage run examples/counter.rml --server http://localhost:8737
    repro-coverage suite examples --server http://localhost:8737

Telemetry (purely observational — results never change)::

    repro-coverage counter --profile
    repro-coverage run examples/counter.rml --trace out.jsonl

The coverage subcommands are thin argument adapters over one shared code
path: they construct an :class:`~repro.analysis.Analysis` (the library's
front door) from an :class:`~repro.engine.EngineConfig` parsed by one
shared parent parser, and render its results.  ``python -m repro`` is an
alias for this entry point.

Exit codes: 0 success, 1 verification/coverage failure (or a fuzz
disagreement), 2 usage error (unknown target, invalid stage, parse
error, invalid engine config, unknown fuzz axis).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

# Only what every command needs loads here: each subsystem is imported by
# the subcommand that runs it, after its arguments parse, so ``--version``,
# ``--help`` and ``lint`` never load the BDD engine.
from ._version import __version__
from .engine import EngineConfig
from .errors import ConfigError, ModelError, ParseError, ReproError

if TYPE_CHECKING:
    from .analysis import Analysis

__all__ = ["main"]


# ----------------------------------------------------------------------
# Parsers — one shared parent carries the engine flags for every
# subcommand; each subcommand adds only its own arguments.
# ----------------------------------------------------------------------


def _engine_parent() -> argparse.ArgumentParser:
    """The shared parent parser: every engine knob, defined once, from the
    config object itself."""
    parent = argparse.ArgumentParser(add_help=False)
    EngineConfig.add_cli_arguments(parent)
    return parent


def _add_traces_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--traces", type=int, default=0, metavar="N",
        help="print traces to up to N uncovered states",
    )


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """The telemetry emission flags shared by target and run mode.

    Either flag implies telemetry level "spans" (the recording is free to
    turn on — it never changes results), so users don't have to pair them
    with ``--telemetry spans`` by hand.
    """
    parser.add_argument(
        "--profile", action="store_true",
        help=(
            "print a per-phase cost table (the paper's 'nodes - time' "
            "style) after the coverage report; implies --telemetry spans"
        ),
    )
    parser.add_argument(
        "--trace-out", "--trace", dest="trace_out", metavar="FILE",
        help=(
            "write the run's phase spans and frontier samples to FILE as "
            "Chrome trace events (open in https://ui.perfetto.dev); "
            "implies --telemetry spans"
        ),
    )


def _telemetry_config(config: EngineConfig, args) -> EngineConfig:
    """Upgrade the config to level "spans" when an emission flag asks."""
    wants_spans = getattr(args, "profile", False) or getattr(
        args, "trace_out", None
    )
    if wants_spans and config.telemetry == "off":
        return config.with_(telemetry="spans")
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-coverage",
        description=(
            "Coverage estimation for symbolic model checking "
            "(DAC'99 reproduction)"
        ),
        parents=[_engine_parent()],
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}",
    )
    parser.add_argument("target", nargs="?", help="circuit/signal to analyse")
    parser.add_argument("--list", action="store_true", help="list targets")
    parser.add_argument("--stage", help="property-suite stage (target-specific)")
    parser.add_argument(
        "--buggy", action="store_true",
        help="use the buggy priority-buffer variant (Circuit 1 narrative)",
    )
    _add_traces_flag(parser)
    _add_telemetry_flags(parser)
    return parser


def _build_run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-coverage run",
        description="estimate coverage for one .rml model file",
        parents=[_engine_parent()],
    )
    parser.add_argument("file", help="path to a .rml model file")
    _add_traces_flag(parser)
    _add_telemetry_flags(parser)
    _add_server_flag(parser)
    return parser


def _add_server_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--server", metavar="URL",
        help=(
            "send the analysis to a running 'repro-coverage serve' "
            "instance (e.g. http://localhost:8737) instead of computing "
            "locally; identical requests are answered from its "
            "content-addressed cache"
        ),
    )


def _build_fuzz_parser() -> argparse.ArgumentParser:
    from .gen.oracle import DEFAULT_AXES

    parser = argparse.ArgumentParser(
        prog="repro-coverage fuzz",
        description=(
            "differential fuzzing: run random generated models through "
            "every engine configuration (mono/partitioned, default/"
            "aggressive GC), the explicit-state oracle, and the language "
            "round trip, asserting byte-identical results; disagreements "
            "are shrunk to small .rml reproducers"
        ),
    )
    parser.add_argument(
        "--budget", type=int, default=100, metavar="N",
        help="number of generated cases to check (default 100)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="base seed; case i is generated from key 'S:i' (default 0)",
    )
    parser.add_argument(
        "--offset", type=int, default=0, metavar="I",
        help=(
            "first case index (default 0); '--budget 1 --offset I' "
            "re-runs exactly case I of a previous campaign"
        ),
    )
    parser.add_argument(
        "--axes", default=",".join(DEFAULT_AXES), metavar="A,B,...",
        help=(
            "comma-separated oracle axes to check "
            f"(default: {','.join(DEFAULT_AXES)})"
        ),
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1: run serially in-process)",
    )
    parser.add_argument(
        "--json", metavar="FILE",
        help="write the repro-fuzz/v1 JSON report to FILE",
    )
    parser.add_argument(
        "--corpus", metavar="DIR",
        help=(
            "directory for shrunken .rml reproducers (default: "
            "tests/corpus when it exists, else ./fuzz-corpus; only "
            "written on disagreement)"
        ),
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="record disagreements without minimising them",
    )
    parser.add_argument(
        "--max-latches", type=int, default=None, metavar="N",
        help="maximum boolean latches per generated model",
    )
    parser.add_argument(
        "--max-inputs", type=int, default=None, metavar="N",
        help="maximum free inputs per generated model",
    )
    parser.add_argument(
        "--max-word-width", type=int, default=None, metavar="BITS",
        help="maximum word-register width per generated model",
    )
    return parser


def _build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-coverage lint",
        description=(
            "static analysis of .rml models and their CTL properties: "
            "name/width/case errors the elaborator would reject, plus "
            "cone-of-influence coverage smells (observed signals no "
            "property can see, latches outside every property's cone, "
            "constant latches, vacuous antecedents) found before any "
            "BDD is built; see docs/linting.md for the code catalogue"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help=".rml files, or directories searched recursively for *.rml",
    )
    parser.add_argument(
        "--target", metavar="NAME",
        help=(
            "lint examples/NAME.rml by its suite job name (e.g. 'counter' "
            "or 'rml:counter'), or else the .rml text of a builtin target "
            "(e.g. 'queue-wrap@final'), instead of listing paths"
        ),
    )
    parser.add_argument(
        "--json", nargs="?", const="-", metavar="FILE",
        help=(
            "emit the repro-lint/v1 JSON report (to FILE, or stdout "
            "when the flag is bare)"
        ),
    )
    parser.add_argument(
        "--fail-on", choices=["error", "warning"], default="warning",
        help=(
            "lowest severity that makes the exit code 1 "
            "(default: warning; info findings never fail the run)"
        ),
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="append each code's registered name to text findings",
    )
    return parser


def _build_bench_parser() -> argparse.ArgumentParser:
    from .obs.bench import DEFAULT_TOLERANCE

    parser = argparse.ArgumentParser(
        prog="repro-coverage bench",
        description=(
            "run the registered benchmark workloads and record/compare "
            "BENCH_<name>.json baselines; engine counters are the gated "
            "regression signal, wall-clock is informational only"
        ),
    )
    parser.add_argument(
        "workloads", nargs="*", metavar="WORKLOAD",
        help="workload names to run (default: all; see --list)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered workloads"
    )
    parser.add_argument(
        "--out", metavar="DIR",
        help="write/refresh BENCH_<name>.json baselines under DIR",
    )
    parser.add_argument(
        "--compare", metavar="DIR",
        help=(
            "compare fresh runs against the baselines under DIR; exit "
            "non-zero when a gated counter regresses beyond tolerance or "
            "the analysis outcome drifts"
        ),
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE, metavar="T",
        help=(
            "relative headroom a gated counter may grow before failing "
            f"(default {DEFAULT_TOLERANCE})"
        ),
    )
    return parser


def _build_suite_parser() -> argparse.ArgumentParser:
    from .suite import DEFAULT_MAX_SHARD_RETRIES

    parser = argparse.ArgumentParser(
        prog="repro-coverage suite",
        description=(
            "run every registered coverage job: builtin targets at every "
            "stage, plus .rml files discovered on disk"
        ),
        parents=[_engine_parent()],
    )
    parser.add_argument(
        "directory", nargs="?",
        help=".rml directory (default: ./examples when present)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1: run serially in-process)",
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help=(
            "work shards to split the jobs into (default: several per "
            "worker); idle workers steal pending shards, and a crashed "
            "worker costs only its shard's jobs"
        ),
    )
    parser.add_argument(
        "--max-shard-retries", type=int,
        default=DEFAULT_MAX_SHARD_RETRIES, metavar="N",
        help=(
            "isolated re-runs a shard gets after a worker-pool crash "
            f"before its jobs are marked status=error (default "
            f"{DEFAULT_MAX_SHARD_RETRIES}; 0 disables retries)"
        ),
    )
    parser.add_argument(
        "--json", metavar="FILE", help="write the JSON report to FILE"
    )
    parser.add_argument(
        "--no-builtins", action="store_true",
        help="run only discovered .rml jobs",
    )
    _add_server_flag(parser)
    return parser


def _build_serve_parser() -> argparse.ArgumentParser:
    from .serve.cache import DEFAULT_MAX_ENTRIES, default_cache_dir
    from .serve.server import DEFAULT_PORT
    from .serve.workers import DEFAULT_RECYCLE_AFTER

    parser = argparse.ArgumentParser(
        prog="repro-coverage serve",
        description=(
            "run the persistent analysis server: POST /v1/analyze "
            "computes coverage for .rml text or builtin targets, with a "
            "content-addressed result cache (identical model + config => "
            "one computation), in-flight request deduplication, and a "
            "warm worker pool; see docs/serving.md"
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", metavar="HOST",
        help="interface to bind (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, metavar="PORT",
        help=f"TCP port (default: {DEFAULT_PORT}; 0 picks a free port)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help=(
            "analysis worker processes (default: 2; 0 runs analyses "
            "inline in the server process — single-threaded, but reuses "
            "parsed models)"
        ),
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help=(
            f"disk tier of the result cache (default: "
            f"{default_cache_dir()}); pass 'none' to keep results in "
            f"memory only"
        ),
    )
    parser.add_argument(
        "--max-cache-entries", type=int, default=DEFAULT_MAX_ENTRIES,
        metavar="N",
        help=(
            f"bound on the in-memory cache tier "
            f"(default: {DEFAULT_MAX_ENTRIES})"
        ),
    )
    parser.add_argument(
        "--recycle-after", type=int, default=DEFAULT_RECYCLE_AFTER,
        metavar="N",
        help=(
            f"jobs per worker before the pool recycles itself "
            f"(default: {DEFAULT_RECYCLE_AFTER})"
        ),
    )
    # Test-only: honour crash-injection payloads (CI's serve-smoke job
    # and the failure-path tests drive the respawn logic through this).
    parser.add_argument(
        "--test-hooks", action="store_true", help=argparse.SUPPRESS
    )
    return parser


# ----------------------------------------------------------------------
# Shared reporting flow — every subcommand renders an Analysis this way.
# ----------------------------------------------------------------------


def _report_analysis(
    analysis: Analysis,
    traces: int,
    profile: bool = False,
    trace_out: Optional[str] = None,
) -> int:
    """Verify, estimate, and print — the one rendering of the pipeline."""
    failing = analysis.failing()
    if failing:
        print(f"{len(failing)} propert(ies) FAIL on {analysis.fsm.name!r}:")
        for result in failing:
            print(f"  {result.formula}")
            if result.counterexample:
                for k, state in enumerate(result.counterexample):
                    print(f"    cycle {k}: {analysis.fsm.format_state(state)}")
        print("coverage is only defined for verified properties; aborting.")
        _emit_telemetry(analysis, profile, trace_out)
        return 1
    print(analysis.coverage().summary())
    if traces > 0:
        print(analysis.uncovered_traces(traces))
    _emit_telemetry(analysis, profile, trace_out)
    return 0


def _emit_telemetry(
    analysis: Analysis, profile: bool, trace_out: Optional[str]
) -> None:
    """Render --profile / --trace output for whatever phases ran (the
    telemetry is emitted even when verification failed — a failing run's
    cost profile is exactly what one wants to look at)."""
    if profile:
        from .obs import format_profile

        print()
        print(format_profile(analysis.telemetry))
    if trace_out:
        from .obs import write_chrome_trace

        count = write_chrome_trace(analysis.telemetry, trace_out)
        print(f"wrote {count} trace event(s) to {trace_out}")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _main_target(argv: List[str]) -> int:
    args = build_parser().parse_args(argv)
    from .analysis import Analysis
    from .circuits import BUILTIN_TARGETS

    if args.list or not args.target:
        print("available targets:")
        for target in BUILTIN_TARGETS.values():
            stages = ", ".join(target.stages)
            stage_note = f" (stages: {stages})" if stages else ""
            print(f"  {target.name:12s} {target.description}{stage_note}")
        print("subcommands:")
        print("  run <file.rml>     estimate coverage for a model file")
        print("  suite [dir]        run every registered job (see --help)")
        print("  fuzz               differential fuzzing (see fuzz --help)")
        print("  lint               static .rml/property analysis (see lint --help)")
        print("  bench              perf baselines + regression gate (see bench --help)")
        print("  serve              persistent analysis server (see serve --help)")
        return 0
    config = _telemetry_config(EngineConfig.from_args(args), args)
    try:
        analysis = Analysis.builtin(
            args.target, stage=args.stage, buggy=args.buggy, config=config
        )
        return _report_analysis(
            analysis, args.traces,
            profile=args.profile, trace_out=args.trace_out,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # the table's target, stage and variant checks
        print(f"error: {exc}; try --list", file=sys.stderr)
        return 2


def _run_via_server(args, config: EngineConfig) -> int:
    """``run --server``: ship the model text to a serve instance and
    render the revived result.  Trace/profile output needs the local
    BDD engine, so those flags are a usage error here."""
    from .analysis import AnalysisResult
    from .errors import ServeError
    from .serve.client import ServeClient

    if args.traces or args.profile or args.trace_out:
        print(
            "error: --server cannot render --traces/--profile/--trace-out "
            "(those need the in-process engine); drop them or run locally",
            file=sys.stderr,
        )
        return 2
    try:
        text = Path(args.file).read_text()
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    try:
        envelope = ServeClient(args.server).analyze_rml(
            text, config=config, path=str(args.file)
        )
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = AnalysisResult.from_json(envelope["result"])
    cached = "  [cached]" if envelope.get("cached") else ""
    print(result.format_line() + cached)
    if result.status == "ok":
        return 0
    return 1 if result.status == "fail" else 2


def _main_run(argv: List[str]) -> int:
    args = _build_run_parser().parse_args(argv)
    config = _telemetry_config(EngineConfig.from_args(args), args)
    if args.server:
        return _run_via_server(args, config)
    from .analysis import Analysis

    try:
        analysis = Analysis.from_rml(Path(args.file), config=config)
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ModelError) as exc:
        # Parse errors carry file:line:column; model errors (no OBSERVED /
        # SPEC declarations) carry the file name.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _report_analysis(
            analysis, args.traces,
            profile=args.profile, trace_out=args.trace_out,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _main_suite(argv: List[str]) -> int:
    args = _build_suite_parser().parse_args(argv)
    from .suite import (
        default_jobs,
        format_results,
        run_jobs_sharded,
        write_report,
    )

    # Validate the engine flags up front: one usage error beats every
    # worker failing with the same message after fan-out.
    config = EngineConfig.from_args(args)
    if args.shards is not None and args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.max_shard_retries < 0:
        print("error: --max-shard-retries must be >= 0", file=sys.stderr)
        return 2
    directory = args.directory
    if directory is None and Path("examples").is_dir():
        directory = "examples"
    if directory is not None and not Path(directory).is_dir():
        print(f"error: no such directory: {directory}", file=sys.stderr)
        return 2
    jobs = default_jobs(
        rml_dir=directory, include_builtins=not args.no_builtins,
        config=config,
    )
    if not jobs:
        print("error: no jobs registered", file=sys.stderr)
        return 2
    started = time.perf_counter()
    if args.server:
        from .errors import ServeError
        from .serve.client import ServeClient
        from .suite import run_jobs_via_server

        client = ServeClient(args.server)
        try:
            client.health()  # fail fast: one clear error beats N job errors
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        results = run_jobs_via_server(
            jobs, client, max_workers=max(1, args.jobs)
        )
        shard_stats = None
    else:
        results, shard_stats = run_jobs_sharded(
            jobs,
            max_workers=max(1, args.jobs),
            shards=args.shards,
            max_shard_retries=args.max_shard_retries,
        )
    elapsed = time.perf_counter() - started
    print(format_results(results, seconds=elapsed))
    if shard_stats is not None and shard_stats.shards:
        print(shard_stats.summary())
    if args.json:
        write_report(results, args.json, seconds=elapsed)
        print(f"wrote JSON report to {args.json}")
    return 0 if all(r.status == "ok" for r in results) else 1


def _main_lint(argv: List[str]) -> int:
    args = _build_lint_parser().parse_args(argv)
    from .lint import LintReport, Severity, lint_path, render_json, render_text

    if args.target and args.paths:
        print(
            "error: pass either paths or --target, not both",
            file=sys.stderr,
        )
        return 2

    report = LintReport(files=[])
    if args.target:
        from .circuits import BUILTIN_TARGETS, builtin_source
        from .lang import discover_rml
        from .lint import lint_source

        found = {f"rml:{path.stem}": path for path in discover_rml("examples")}
        path = found.get(args.target) or found.get(f"rml:{args.target}")
        if path is not None:
            report = lint_path(path)
        else:
            name, _, stage = args.target.partition("@")
            try:
                text = builtin_source(name, stage or None)
            except ValueError as exc:
                known = ", ".join(sorted(set(BUILTIN_TARGETS) | set(found)))
                hint = "" if name in BUILTIN_TARGETS else f"; known: {known}"
                print(f"error: {exc}{hint}", file=sys.stderr)
                return 2
            report = lint_source(text, filename=args.target)
    else:
        files: List[Path] = []
        for raw in args.paths:
            path = Path(raw)
            if path.is_dir():
                files.extend(sorted(path.rglob("*.rml")))
            elif path.exists():
                files.append(path)
            else:
                print(f"error: no such file: {raw}", file=sys.stderr)
                return 2
        if not files:
            print(
                "error: nothing to lint (pass .rml files, a directory "
                "containing them, or --target NAME)",
                file=sys.stderr,
            )
            return 2
        for path in files:
            report = report.merge(lint_path(path))

    if args.json is not None:
        rendered = render_json(report)
        if args.json == "-":
            sys.stdout.write(rendered)
        else:
            Path(args.json).write_text(rendered)
            print(f"wrote JSON report to {args.json}")
    else:
        sys.stdout.write(render_text(report, verbose=args.verbose))
    threshold = Severity.from_name(args.fail_on)
    return 1 if report.at_or_above(threshold) else 0


def _main_bench(argv: List[str]) -> int:
    args = _build_bench_parser().parse_args(argv)
    from .obs.bench import (
        BENCH_WORKLOADS,
        baseline_path,
        compare_result,
        load_baseline,
        run_workload,
        write_baseline,
    )

    if args.list:
        print("registered bench workloads:")
        for workload in BENCH_WORKLOADS.values():
            print(f"  {workload.name:22s} {workload.description}")
        return 0
    if args.tolerance < 0:
        print("error: --tolerance must be >= 0", file=sys.stderr)
        return 2
    names = args.workloads or list(BENCH_WORKLOADS)
    unknown = sorted(set(names) - set(BENCH_WORKLOADS))
    if unknown:
        print(
            f"error: unknown bench workload(s): {', '.join(unknown)} "
            f"(known: {', '.join(BENCH_WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    regressions: List[str] = []
    for name in names:
        result = run_workload(BENCH_WORKLOADS[name])
        counters = result.counters
        print(
            f"{name:28s} nodes={counters['nodes_created']:>9,} "
            f"peak={counters['peak_live_nodes']:>8,} "
            f"op_misses={counters['op_misses']:>9,} "
            f"gc={counters['gc_runs']:>3} "
            f"wall={result.wall_seconds:.2f}s"
        )
        if args.out:
            write_baseline(result, args.out)
        if args.compare:
            path = baseline_path(args.compare, name)
            if not path.is_file():
                missing = (
                    f"{name}: no committed baseline at {path} "
                    f"(run: repro bench {name} --out {args.compare})"
                )
                print(f"  REGRESSION: {missing}", file=sys.stderr)
                regressions.append(missing)
                continue
            found, notes = compare_result(
                result, load_baseline(path), tolerance=args.tolerance
            )
            for note in notes:
                print(f"  note: {note}")
            for regression in found:
                print(f"  REGRESSION: {regression}", file=sys.stderr)
            regressions.extend(found)
    if args.out:
        print(f"wrote {len(names)} baseline(s) under {args.out}")
    if args.compare:
        if regressions:
            print(
                f"bench compare: {len(regressions)} regression(s) against "
                f"{args.compare}",
                file=sys.stderr,
            )
            return 1
        print(
            f"bench compare: OK ({len(names)} workload run(s) within "
            f"{args.tolerance:.0%} counter tolerance of {args.compare})"
        )
    return 0


def _main_serve(argv: List[str]) -> int:
    args = _build_serve_parser().parse_args(argv)
    from .serve.server import ServeOptions, run_server

    if args.max_cache_entries < 1:
        print("error: --max-cache-entries must be >= 1", file=sys.stderr)
        return 2
    memory_only = args.cache_dir == "none"
    options = ServeOptions(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=None if memory_only else args.cache_dir,
        memory_cache_only=memory_only,
        max_cache_entries=args.max_cache_entries,
        recycle_after=args.recycle_after,
        test_hooks=args.test_hooks,
    )
    try:
        return run_server(options)
    except OSError as exc:
        print(
            f"error: cannot serve on {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 2


def _main_fuzz(argv: List[str]) -> int:
    args = _build_fuzz_parser().parse_args(argv)
    from .gen import GenParams, run_fuzz, validate_axes, write_fuzz_report

    if args.budget < 1:
        print("error: --budget must be >= 1", file=sys.stderr)
        return 2
    axes = validate_axes(
        tuple(a for a in args.axes.split(",") if a)
    )
    overrides = {
        key: value
        for key, value in (
            ("max_bool_latches", args.max_latches),
            ("max_inputs", args.max_inputs),
            ("max_word_width", args.max_word_width),
        )
        if value is not None
    }
    if args.max_word_width is not None:
        # Keep the width range well-formed without a --min-word-width
        # flag: a 1-bit cap means 1-bit words, not a ConfigError about an
        # internal field the user never set.
        overrides["min_word_width"] = min(
            GenParams().min_word_width, args.max_word_width
        )
    params = GenParams(**overrides)  # validates (ConfigError -> exit 2)
    corpus = args.corpus
    if corpus is None:
        corpus = (
            "tests/corpus"
            if Path("tests/corpus").is_dir()
            else "fuzz-corpus"
        )
    result = run_fuzz(
        budget=args.budget,
        seed=args.seed,
        offset=args.offset,
        axes=axes,
        params=params,
        jobs=max(1, args.jobs),
        shrink=not args.no_shrink,
        corpus_dir=corpus,
    )
    print(result.format_summary())
    if args.json:
        write_fuzz_report(result, args.json)
        print(f"wrote JSON report to {args.json}")
    return 0 if result.ok else 1


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        if argv and argv[0] == "run":
            return _main_run(argv[1:])
        if argv and argv[0] == "suite":
            return _main_suite(argv[1:])
        if argv and argv[0] == "fuzz":
            return _main_fuzz(argv[1:])
        if argv and argv[0] == "lint":
            return _main_lint(argv[1:])
        if argv and argv[0] == "bench":
            return _main_bench(argv[1:])
        if argv and argv[0] == "serve":
            return _main_serve(argv[1:])
        return _main_target(argv)
    except ConfigError as exc:
        # The one place invalid configuration becomes an exit code.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
