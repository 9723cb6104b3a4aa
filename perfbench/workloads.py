"""The four workloads: seeded set-up, the untraced measurement that gives
the end-to-end metrics, and the traced pass that gives the per-layer ones.

Load comes from this one process: at most ``WORKERS`` suite jobs, client
threads and server workers at a time.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from . import calib, inputs, oracles
from .layers import Recorder, bdd_metrics, layered_pass
from .procs import Child, Server, repro_argv, repro_env, run
from .stats import percentile

WORKLOADS = ("deep-pipeline", "fair-pipeline", "suite-corpus", "serve-mixed")
PIPELINES = ("deep-pipeline", "fair-pipeline")

#: Suite jobs and client threads: two, and never more than the CPUs.
WORKERS = max(1, min(2, os.cpu_count() or 1))
#: ``setup_s`` is a median over set-ups spread through the run, since
#: the host's speed changes every few seconds: this many ``--version``
#: runs before the first operation and after each one, and this many
#: server starts before and after the serve-mixed traffic.
SETUP_BURST = 3
SERVER_STARTS = 3
#: No single child may take longer (a hang is a failed operation).
CHILD_TIMEOUT = 150.0
#: Each traffic pass stops here even if its sample minimums are unmet.
TRAFFIC_LIMIT = 120.0
#: Traffic windows of a serve-mixed run, with a probe reading after each.
SERVE_WINDOWS = 4
#: Samples a serve-mixed run needs so p90 (cold, edit) and p99 (warm)
#: each have ten samples beyond them.
SERVE_MINIMUMS = {"cold": 100, "warm": 1000, "edit": 100}
#: Models the traced serve layer sends, and repeats of each per class.
SERVE_LAYER_MODELS = 32
SERVE_LAYER_REPEATS = 5
#: Share of a pipeline's layered pass its layer spans must cover.
MIN_SPAN_SHARE = 0.9

_STEALS = re.compile(r"(\d+) steal\(s\)")
_CACHE_DIRS = itertools.count()


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: List[str] = field(default_factory=list)

    def child(self, child: Child, ok_codes=(0,)) -> bool:
        """Count one child run; whether it completed."""
        self.attempted += 1
        if child.crashed or child.returncode not in ok_codes:
            self.failed += 1
            self.notes.append(
                f"failed: {' '.join(child.argv[2:])} -> {child.returncode}"
                f"{' (timeout)' if child.timed_out else ''}: "
                f"{child.stderr.strip()[-300:]}"
            )
            return False
        return True


def job_name(path: Path) -> str:
    """The name ``repro suite`` and ``Analysis.from_rml`` give a model file."""
    return f"rml:{path.stem}"


@dataclass
class Inputs:
    """A workload's seeded inputs and their reference answers."""

    #: ``(path, text)`` of every ``.rml`` model, in ``models_dir``.
    models: List[Tuple[Path, str]]
    models_dir: Path
    #: Reference per job name (see :func:`job_name`; builtins by name).
    refs: Dict[str, Optional[Dict]]
    #: Extra ``repro run`` arguments (pipelines only).
    run_args: List[str] = field(default_factory=list)
    with_builtins: bool = False


class Context:
    def __init__(self, root: Path, scratch: Path, seed: int, seconds: float):
        self.root = root
        self.scratch = scratch
        self.seed = seed
        self.seconds = seconds
        self.env = repro_env(root)
        self.tally = Tally()
        self.lines: List[str] = []

    def child(self, *args: str, hash_seed: Optional[str] = None) -> Child:
        env = self.env if hash_seed is None else repro_env(self.root, hash_seed)
        return run(repro_argv(*args), env, self.root, self.scratch, CHILD_TIMEOUT)

    def report(self, line: str) -> None:
        self.lines.append(line)


# ----------------------------------------------------------------------
# Set-up: inputs and references, made once per seed before any timing
# ----------------------------------------------------------------------


def prepare(workload: str, ctx: Context) -> Inputs:
    models_dir = ctx.scratch / "models"
    models_dir.mkdir(parents=True)
    if workload in PIPELINES:
        deep = workload == "deep-pipeline"
        stages = inputs.DEEP_STAGES if deep else inputs.FAIR_STAGES
        text = (inputs.deep_pipeline if deep else inputs.fair_pipeline)(ctx.seed)
        path = models_dir / f"pipeline{stages}.rml"
        path.write_text(text)
        return Inputs(
            [(path, text)], models_dir,
            {job_name(path): oracles.pipeline_reference(stages)},
            run_args=["--traces", "1"] if deep else [],
        )
    keys = (
        inputs.corpus_keys(ctx.seed)
        if workload == "suite-corpus"
        else inputs.serve_pool_keys(ctx.seed)
    )
    models, refs = [], {}
    for index, gm in enumerate(inputs.generated(keys)):
        path = models_dir / f"m{index:03d}.rml"
        path.write_text(gm.text)
        models.append((path, gm.text))
        refs[job_name(path)] = oracles.generated_reference(gm.text, path.name)
    with_builtins = workload == "suite-corpus"
    if with_builtins:
        refs.update(
            (name, oracles.builtin_reference(name))
            for name in oracles.BUILTIN_COVERAGE
        )
    checked = sum(ref is not None for ref in refs.values())
    ctx.report(f"inputs: {len(refs)} models, {checked} with reference answers")
    return Inputs(models, models_dir, refs, with_builtins=with_builtins)


# ----------------------------------------------------------------------
# Shared operations
# ----------------------------------------------------------------------


def cli_setup(ctx: Context, repeats: int) -> Tuple[List[float], int]:
    """Walls of ``repeats`` runs of ``python -m repro --version``, and
    their largest peak RSS."""
    walls, rss = [], 0
    for _ in range(repeats):
        child = ctx.child("--version")
        if ctx.tally.child(child) and not child.stdout.startswith("repro"):
            ctx.tally.wrong += 1
        walls.append(child.wall_s)
        rss = max(rss, child.maxrss_kb)
    return walls, rss


def suite_once(
    ctx: Context, inp: Inputs, extra: Tuple[str, ...] = (),
    hash_seed: Optional[str] = None,
) -> Tuple[Child, Optional[Dict]]:
    """One ``repro suite`` over the models; checks every job's answer."""
    out = ctx.scratch / "suite.json"
    if out.exists():
        out.unlink()
    args = ["suite", str(inp.models_dir), "--jobs", str(WORKERS),
            "--json", str(out), *extra]
    if not inp.with_builtins:
        args.append("--no-builtins")
    child = ctx.child(*args, hash_seed=hash_seed)
    expected = len(inp.refs)
    # Exit 1 only says some property fails, which generated suites do on
    # purpose; error jobs, crashes and timeouts are the failures.
    if child.crashed or child.returncode not in (0, 1) or not out.exists():
        ctx.tally.child(child, ok_codes=())
        ctx.tally.attempted += expected - 1
        ctx.tally.failed += expected - 1
        return child, None
    report = json.loads(out.read_text())
    for job in report["jobs"]:
        ctx.tally.attempted += 1
        if job["status"] == "error":
            ctx.tally.failed += 1
            ctx.tally.notes.append(f"error job {job['name']}: {job['error']}")
        elif not oracles.matches(job, inp.refs.get(job["name"])):
            ctx.tally.wrong += 1
            ctx.tally.notes.append(f"wrong answer: {job['name']}")
    missing = expected - len(report["jobs"])
    if missing:
        ctx.tally.attempted += missing
        ctx.tally.failed += missing
    return child, report


def drive_traffic(
    ctx: Context,
    server: Server,
    requests: Iterator[inputs.Request],
    refs: List[Optional[Dict]],
    clients: int,
    seconds: float,
    minimums: Dict[str, int],
) -> Tuple[Dict[str, List[float]], float]:
    """A closed loop of ``clients`` threads: each sends its next request
    when its last answer arrives, for ``seconds`` and until every class
    has its minimum sample count.  Returns per-class latencies and wall."""
    lock = threading.Lock()
    samples: Dict[str, List[float]] = {"cold": [], "warm": [], "edit": []}
    tally = ctx.tally
    start = time.perf_counter()

    def done() -> bool:
        now = time.perf_counter() - start
        if now >= TRAFFIC_LIMIT:
            return True
        return now >= seconds and all(
            len(samples[k]) >= n for k, n in minimums.items()
        )

    def client() -> None:
        while True:
            with lock:
                request = None if done() else next(requests, None)
            if request is None:
                return
            sent = time.perf_counter()
            try:
                status, body = server.post(request.body)
                doc = json.loads(body) if status == 200 else None
            except (OSError, ValueError):
                status, doc = None, None
            latency = time.perf_counter() - sent
            with lock:
                tally.attempted += 1
                if doc is None or "result" not in doc:
                    tally.failed += 1
                    tally.notes.append(f"{request.kind} request -> {status}")
                    continue
                if not oracles.matches(doc["result"], refs[request.base]):
                    tally.wrong += 1
                    tally.notes.append(f"wrong answer on pool model {request.base}")
                samples[request.kind].append(latency)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TRAFFIC_LIMIT + 30)
        if thread.is_alive():
            raise BenchmarkError("a client thread did not finish")
    return samples, time.perf_counter() - start


def start_servers(
    ctx: Context, repeats: int, keep: bool = True
) -> Tuple[Optional[Server], List[float]]:
    """Start ``repeats`` servers one after another, each with a fresh
    cache, and return their spawn-to-health times.  Each is stopped at
    once, except with ``keep`` the last, which is returned live."""
    server, times = None, []
    for _ in range(repeats):
        cache = ctx.scratch / f"cache{next(_CACHE_DIRS)}"
        server = Server(ctx.root, ctx.scratch, cache)
        try:
            times.append(server.start())
        finally:
            if not keep or len(times) < repeats:
                server.stop()
    return (server if keep else None), times


def _ms(values: List[float], q: float) -> float:
    return percentile(values, q) * 1000.0


def _mb(kb: int) -> float:
    return kb / 1024.0


# ----------------------------------------------------------------------
# Untraced runs: the end-to-end metrics
# ----------------------------------------------------------------------


def untraced(workload: str, ctx: Context, inp: Inputs) -> Dict[str, float]:
    """Every gated time is scaled to the reference host speed by probe
    readings taken between operations on the CPUs they ran on (see
    :mod:`perfbench.calib`); the report lines print the raw times.  A
    pipeline run is pinned, with its children, to one CPU so the probe
    reads that CPU."""
    own = os.sched_getaffinity(0)
    cpus = {min(own)} if workload in PIPELINES else own
    os.sched_setaffinity(0, cpus)
    try:
        probe = calib.Probe()
        if workload == "serve-mixed":
            return _untraced_serve(ctx, inp, probe, cpus)
        return _untraced_cli(workload, ctx, inp, probe, cpus)
    finally:
        os.sched_setaffinity(0, own)


def _untraced_cli(
    workload: str, ctx: Context, inp: Inputs, probe: calib.Probe, cpus
) -> Dict[str, float]:
    probe.read(cpus)
    setups, rss = cli_setup(ctx, SETUP_BURST)

    def between() -> None:
        nonlocal rss
        probe.read(cpus)
        walls, peak = cli_setup(ctx, SETUP_BURST)
        setups.extend(walls)
        rss = max(rss, peak)

    measure = _untraced_suite if workload == "suite-corpus" else _untraced_run
    walls, done, op_rss = measure(ctx, inp, between)
    if not walls:
        raise BenchmarkError("no operation completed")
    ctx.report(
        f"raw: setup {statistics.median(setups):.3f}s; {len(walls)} "
        f"operation(s): min {min(walls):.3f}s, median "
        f"{statistics.median(walls):.3f}s, max {max(walls):.3f}s; "
        f"{done / sum(walls):.2f} analyses/s; {_probe_summary(probe)}"
    )
    # The fastest operation, not the median: the host's speed also changes
    # within one 10-15 s operation, which the readings between operations
    # cannot follow; the minimum is the least disturbed one.
    factor = probe.factor()
    return {
        "setup_s": statistics.median(setups) * factor,
        "latency_ms": min(walls) * factor * 1000.0,
        "peak_rss_mb": _mb(max(rss, op_rss)),
    }


def _probe_summary(probe: calib.Probe) -> str:
    readings = [r * 1000.0 for r in probe.readings]
    return (
        f"probe {min(readings):.1f}-{max(readings):.1f} ms over "
        f"{len(readings)} readings, scale {probe.factor():.3f}"
    )


def _timed_loop(
    ctx: Context, once: Callable[[], Optional[Child]], between: Callable[[], None]
):
    """Repeat ``once``, then ``between``, until ``ctx.seconds`` have passed
    (at least once)."""
    walls, rss = [], 0
    start = time.perf_counter()
    while True:
        child = once()
        if child is not None:
            walls.append(child.wall_s)
            rss = max(rss, child.maxrss_kb)
        between()
        if time.perf_counter() - start >= ctx.seconds:
            return walls, rss


def _untraced_run(ctx: Context, inp: Inputs, between: Callable[[], None]):
    (path, _text), = inp.models
    ref = inp.refs[job_name(path)]

    def once() -> Optional[Child]:
        child = ctx.child("run", str(path), *inp.run_args)
        if not ctx.tally.child(child):
            return None
        if not oracles.run_output_matches(child.stdout, ref):
            ctx.tally.wrong += 1
            ctx.tally.notes.append("repro run printed wrong coverage figures")
        return child

    walls, rss = _timed_loop(ctx, once, between)
    return walls, len(walls), rss


def _untraced_suite(ctx: Context, inp: Inputs, between: Callable[[], None]):
    jobs = 0

    def once() -> Optional[Child]:
        nonlocal jobs
        child, report = suite_once(ctx, inp)
        if report is None:
            return None
        jobs += len(report["jobs"])
        return child

    walls, rss = _timed_loop(ctx, once, between)
    return walls, jobs, rss


def _pool_refs(inp: Inputs) -> List[Optional[Dict]]:
    return [inp.refs[job_name(path)] for path, _ in inp.models]


def _untraced_serve(
    ctx: Context, inp: Inputs, probe: calib.Probe, cpus
) -> Dict[str, float]:
    """Traffic in windows, with a probe reading after each while the
    clients idle."""
    probe.read(cpus)
    server, setups = start_servers(ctx, SERVER_STARTS)
    samples: Dict[str, List[float]] = {"cold": [], "warm": [], "edit": []}
    wall = 0.0
    try:
        schedule = inputs.request_schedule(ctx.seed, [t for _, t in inp.models])
        probe.read(cpus)
        while wall < TRAFFIC_LIMIT and (wall < ctx.seconds or any(
            len(samples[k]) < n for k, n in SERVE_MINIMUMS.items()
        )):
            window, took = drive_traffic(
                ctx, server, schedule, _pool_refs(inp), WORKERS,
                ctx.seconds / SERVE_WINDOWS, {},
            )
            probe.read(cpus)
            for kind, values in window.items():
                samples[kind] += values
            wall += took
        counters = server.stats()
        rss = server.peak_rss_kb()
    finally:
        server.stop()
    setups += start_servers(ctx, SERVER_STARTS, keep=False)[1]
    total = sum(len(values) for values in samples.values())
    ctx.report(
        f"raw: setup {statistics.median(setups):.3f}s; "
        f"{total} requests in {wall:.2f}s ({total / wall:.1f}/s): "
        f"cold p50 {_ms(samples['cold'], 50):.1f} / p90 "
        f"{_ms(samples['cold'], 90):.1f} ms ({len(samples['cold'])}), "
        f"warm p50 {_ms(samples['warm'], 50):.2f} / p99 "
        f"{_ms(samples['warm'], 99):.2f} ms ({len(samples['warm'])}), "
        f"edit p50 {_ms(samples['edit'], 50):.2f} / p90 "
        f"{_ms(samples['edit'], 90):.2f} ms ({len(samples['edit'])}), "
        f"dedup joins {counters.get('serve.server.dedup_joins', 0)}; "
        f"{_probe_summary(probe)}"
    )
    # The edit path is the warm path (HTTP, cache hit) plus parse,
    # canonical key and lint, so its median moves with all of them; cold
    # latency is left out because its cost depends on the seed's pool.
    factor = probe.factor()
    return {
        "setup_s": statistics.median(setups) * factor,
        "latency_ms": _ms(samples["edit"], 50) * factor,
        "peak_rss_mb": _mb(rss),
    }


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics
# ----------------------------------------------------------------------


def _other_hash_seed() -> str:
    """A ``PYTHONHASHSEED`` different from this process's, so a hash-order
    dependence in the engine shows up as a counter mismatch."""
    own = os.environ.get("PYTHONHASHSEED", "")
    return str(int(own) + 1) if own.isdigit() else "1"


def traced(
    workload: str, ctx: Context, inp: Inputs, trace_path: Path
) -> Dict[str, float]:
    from repro.analysis import Analysis
    from repro.engine import EngineConfig

    rec = Recorder()
    tally = ctx.tally
    with rec.span("cli.startup"):
        startup_s = statistics.median(cli_setup(ctx, SETUP_BURST)[0])

    named = [(path.name, text) for path, text in inp.models]
    with rec.span("layers"):
        totals = layered_pass(rec, named, traces=1)
    tally.attempted += len(named)
    for path, _text in inp.models:
        ref = inp.refs[job_name(path)]
        if ref is not None and totals.reachable[path.name] != ref["reachable"]:
            tally.wrong += 1
            tally.notes.append(f"wrong reachable-state count: {path.name}")

    # The whole pipeline per model, with engine counters for the
    # cross-process determinism gate below.
    config = EngineConfig(telemetry="counters")
    results: Dict[str, Dict] = {}
    with rec.span("analysis"):
        for path, _text in inp.models:
            with rec.span("analysis.result", model=path.name):
                result = Analysis.from_rml(path, config=config).result().to_json()
            results[result["name"]] = result
            tally.attempted += 1
            if not oracles.matches(result, inp.refs[result["name"]]):
                tally.wrong += 1
                tally.notes.append(f"wrong answer in-process: {result['name']}")

    with rec.span("suite"):
        suite_metrics = _suite_layer(ctx, inp, results)
    with rec.span("serve"):
        serve_metrics = _serve_layer(workload, ctx, inp, rec)

    rec.write_chrome_trace(trace_path)
    ctx.report(f"trace: {trace_path}")

    verify_s = rec.total("mc.verify")
    estimate_s = rec.total("coverage.estimate")
    result_ms = [s * 1000.0 for s in rec.durations("analysis.result")]
    metrics: Dict[str, float] = {
        "cli.startup_s": startup_s,
        "lang.parse_s": rec.total("lang.parse"),
        "lang.elaborate_s": rec.total("lang.elaborate"),
        "lang.elaborate_nodes": rec.arg_total("lang.elaborate", "nodes_created"),
        "lint.lint_s": rec.total("lint.lint"),
        "fsm.reach_s": rec.total("fsm.reach"),
        "fsm.reach_nodes": rec.arg_total("fsm.reach", "nodes_created"),
        "mc.verify_s": verify_s,
        "mc.verify_nodes": rec.arg_total("mc.verify", "nodes_created"),
        "coverage.estimate_s": estimate_s,
        "coverage.estimate_nodes": rec.arg_total("coverage.estimate", "nodes_created"),
        "coverage.property_nodes_max": totals.property_nodes_max,
        "coverage.cover_verify_ratio": estimate_s / verify_s if verify_s else 0.0,
        "coverage.traces_s": rec.total("coverage.traces"),
        "coverage.traces_nodes": rec.arg_total("coverage.traces", "nodes_created"),
        **bdd_metrics(totals.bdd),
        "analysis.result_p50_ms": percentile(result_ms, 50),
        **suite_metrics,
        **serve_metrics,
        "trace.overhead_s": rec.overhead_s,
        "trace.span_share": rec.span_share(),
    }
    if workload in PIPELINES and metrics["trace.span_share"] < MIN_SPAN_SHARE:
        raise BenchmarkError(
            f"layer spans cover only {metrics['trace.span_share']:.1%} of "
            f"the layered pass (need {MIN_SPAN_SHARE:.0%})"
        )
    parse_ms = percentile(rec.durations("lang.parse"), 50) * 1000.0
    lint_ms = percentile(rec.durations("lint.lint"), 50) * 1000.0
    metrics["serve.cold_wait_ms"] = metrics["serve.cold_p50_ms"] - (
        parse_ms + metrics["serve.key_ms"] + lint_ms
        + metrics["analysis.result_p50_ms"]
    )
    return metrics


def _suite_layer(
    ctx: Context, inp: Inputs, results: Dict[str, Dict]
) -> Dict[str, float]:
    """One ``repro suite`` in a process with another hash seed; its jobs'
    engine counters must equal the in-process ones exactly."""
    child, report = suite_once(
        ctx, inp, ("--telemetry", "counters"), hash_seed=_other_hash_seed()
    )
    if report is None:
        raise BenchmarkError("the traced suite run failed")
    for job in report["jobs"]:
        mine = results.get(job["name"])
        if mine is None or job["status"] == "error":
            continue
        theirs = dict(job["metrics"]["counters"])
        ours = dict(mine["metrics"]["counters"])
        theirs.pop("gc_seconds")
        ours.pop("gc_seconds")
        if theirs != ours:
            diff = sorted(k for k in ours if ours[k] != theirs.get(k))
            raise BenchmarkError(
                f"engine counters differ between two processes for "
                f"{job['name']} ({', '.join(diff)}): a hash-order leak"
            )
    seconds = [job["seconds"] for job in report["jobs"]]
    busy = sum(seconds)
    steals = _STEALS.search(child.stdout)
    return {
        "suite.busy_s": busy,
        "suite.worker_util": busy / (child.wall_s * WORKERS),
        "suite.tail_job_s": max(seconds),
        "suite.shards.steals": int(steals.group(1)) if steals else 0,
    }


def _serve_layer(
    workload: str, ctx: Context, inp: Inputs, rec: Recorder
) -> Dict[str, float]:
    """Key and cache calls in-process, then real traffic through a server."""
    from repro.serve.cache import ResultCache
    from repro.serve.keys import request_key

    texts = [text for _, text in inp.models]
    cache = ResultCache(directory=ctx.scratch / "cache-probe")
    for index, text in enumerate(texts):
        with rec.span("serve.key"):
            key = request_key(rml=text)
        cache.put(key, {"index": index})
        with rec.span("serve.cache_get"):
            hit = cache.get(key)
        if hit != {"index": index}:
            raise BenchmarkError("ResultCache lost an entry")

    if workload == "serve-mixed":
        requests = inputs.request_schedule(ctx.seed, texts)
        clients, seconds = WORKERS, ctx.seconds
        minimums = {"cold": 1, "warm": 1, "edit": 1}
    else:
        # In order, one at a time, so no warm request joins its cold one.
        listed = _layer_requests(texts[:SERVE_LAYER_MODELS])
        requests, clients, seconds = iter(listed), 1, 0.0
        minimums = dict(Counter(request.kind for request in listed))
    server, _setup = start_servers(ctx, 1)
    try:
        samples, _wall = drive_traffic(
            ctx, server, requests, _pool_refs(inp), clients, seconds, minimums
        )
        counters = server.stats()
    finally:
        server.stop()
    hits = counters.get("serve.cache.hits", 0)
    misses = counters.get("serve.cache.misses", 0)
    analyzed = counters.get("serve.server.analyze_requests", 0)
    return {
        "serve.key_ms": percentile(rec.durations("serve.key"), 50) * 1000.0,
        "serve.cache_get_us": percentile(rec.durations("serve.cache_get"), 50) * 1e6,
        "serve.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.memo_hit_ratio": (
            counters.get("serve.server.memo_hits", 0) / analyzed if analyzed else 0.0
        ),
        "serve.dedup_joins": counters.get("serve.server.dedup_joins", 0),
        "serve.cold_p50_ms": _ms(samples["cold"], 50),
        "serve.warm_p50_ms": _ms(samples["warm"], 50),
        "serve.edit_p50_ms": _ms(samples["edit"], 50),
    }


def _layer_requests(texts: List[str]) -> List[inputs.Request]:
    """Per model: one cold request, then warm repeats, then edits."""
    requests = []
    for base, text in enumerate(texts):
        body = inputs.request_body(text)
        requests.append(inputs.Request("cold", body, base))
        requests += [inputs.Request("warm", body, base)] * SERVE_LAYER_REPEATS
        requests += [
            inputs.Request("edit", inputs.request_body(f"{text}-- edit {n}\n"), base)
            for n in range(SERVE_LAYER_REPEATS)
        ]
    return requests
