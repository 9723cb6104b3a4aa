"""Target registry: built-in circuits merged with ``.rml`` files on disk.

The registry is the single source of truth for what can be analysed:

* :data:`BUILTIN_TARGETS` — the paper's circuits with their staged property
  suites, previously hard-coded in the CLI.  :func:`build_builtin`
  constructs ``(fsm, properties, observed, dont_care)`` for a target/stage.
* :func:`discover_rml` / :func:`rml_job` — ``.rml`` model files found on
  disk, each carrying its own properties and observed signals.
* :func:`default_jobs` — the merged job list a suite run executes: every
  builtin target at every stage, plus every discovered ``.rml`` file.

Engine knobs travel as one :class:`~repro.engine.EngineConfig` value.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis import KIND_BUILTIN, KIND_RML
from ..circuits import (
    build_circular_queue,
    build_counter,
    build_pipeline,
    build_priority_buffer,
    circular_queue_empty_properties,
    circular_queue_full_properties,
    circular_queue_wrap_properties,
    circular_queue_wrap_stall_property,
    counter_partial_properties,
    counter_properties,
    pipeline_augmented_properties,
    pipeline_output_properties,
    priority_buffer_hi_properties,
    priority_buffer_lo_augmented_properties,
    priority_buffer_lo_properties,
)
from ..engine import DEFAULT_CONFIG, EngineConfig
from .jobs import CoverageJob

__all__ = [
    "BuiltinTarget",
    "BUILTIN_TARGETS",
    "build_builtin",
    "discover_rml",
    "rml_job",
    "builtin_jobs",
    "default_jobs",
]

#: What a target build produces: machine, properties, observed, don't-care.
BuildResult = Tuple[object, list, object, Optional[str]]


def _counter(
    stage: Optional[str], buggy: bool, config: EngineConfig
) -> BuildResult:
    fsm = build_counter(config=config)
    if stage == "partial":
        props = counter_partial_properties()
    else:
        props = counter_properties()
    return fsm, props, "count", None


def _buffer_hi(
    stage: Optional[str], buggy: bool, config: EngineConfig
) -> BuildResult:
    fsm = build_priority_buffer(buggy=buggy, config=config)
    return fsm, priority_buffer_hi_properties(), "hi", None


def _buffer_lo(
    stage: Optional[str], buggy: bool, config: EngineConfig
) -> BuildResult:
    fsm = build_priority_buffer(buggy=buggy, config=config)
    if stage == "augmented":
        props = priority_buffer_lo_augmented_properties()
    else:
        props = priority_buffer_lo_properties()
    return fsm, props, "lo", None


def _queue_wrap(
    stage: Optional[str], buggy: bool, config: EngineConfig
) -> BuildResult:
    fsm = build_circular_queue(config=config)
    stage = stage or "initial"
    if stage == "final":
        props = circular_queue_wrap_properties(stage="extended")
        props.append(circular_queue_wrap_stall_property())
    else:
        props = circular_queue_wrap_properties(stage=stage)
    return fsm, props, "wrap", None


def _queue_full(
    stage: Optional[str], buggy: bool, config: EngineConfig
) -> BuildResult:
    return (
        build_circular_queue(config=config),
        circular_queue_full_properties(),
        "full",
        None,
    )


def _queue_empty(
    stage: Optional[str], buggy: bool, config: EngineConfig
) -> BuildResult:
    return (
        build_circular_queue(config=config),
        circular_queue_empty_properties(),
        "empty",
        None,
    )


def _pipeline(
    stage: Optional[str], buggy: bool, config: EngineConfig
) -> BuildResult:
    fsm = build_pipeline(config=config)
    if stage == "augmented":
        props = pipeline_augmented_properties()
    else:
        props = pipeline_output_properties()
    return fsm, props, "output", "!out_valid"


@dataclass(frozen=True)
class BuiltinTarget:
    """One registered built-in circuit/signal target."""

    name: str
    builder: Callable[..., BuildResult]
    stages: Tuple[str, ...]
    description: str

    def valid_stage(self, stage: Optional[str]) -> bool:
        return stage is None or stage in self.stages


BUILTIN_TARGETS: Dict[str, BuiltinTarget] = {
    target.name: target
    for target in (
        BuiltinTarget("counter", _counter, ("full", "partial"),
                      "mod-5 counter (paper Section 1)"),
        BuiltinTarget("buffer-hi", _buffer_hi, (),
                      "priority buffer, hi-pri count (Circuit 1)"),
        BuiltinTarget("buffer-lo", _buffer_lo, ("initial", "augmented"),
                      "priority buffer, lo-pri count (Circuit 1)"),
        BuiltinTarget("queue-wrap", _queue_wrap,
                      ("initial", "extended", "final"),
                      "circular queue, wrap bit (Circuit 2)"),
        BuiltinTarget("queue-full", _queue_full, (),
                      "circular queue, full signal (Circuit 2)"),
        BuiltinTarget("queue-empty", _queue_empty, (),
                      "circular queue, empty signal (Circuit 2)"),
        BuiltinTarget("pipeline", _pipeline, ("initial", "augmented"),
                      "decode pipeline, output (Circuit 3)"),
    )
}


def build_builtin(
    name: str,
    stage: Optional[str] = None,
    buggy: bool = False,
    *,
    config: Optional[EngineConfig] = None,
) -> BuildResult:
    """Construct ``(fsm, properties, observed, dont_care)`` for a target.

    ``config`` (an :class:`~repro.engine.EngineConfig`) carries every
    engine knob of the built FSM: the transition-relation mode and the
    resource thresholds compiled into the BDD manager's policy.  Raises
    :class:`ValueError` for an unknown target or a stage outside the
    target's stage list, and :class:`~repro.errors.ConfigError` (a
    ``ValueError`` subclass) for an invalid config.
    """
    config = config if config is not None else DEFAULT_CONFIG
    target = BUILTIN_TARGETS.get(name)
    if target is None:
        raise ValueError(f"unknown target {name!r}")
    if not target.valid_stage(stage):
        valid = ", ".join(target.stages) or "none"
        raise ValueError(
            f"invalid stage {stage!r} for target {name!r} "
            f"(valid stages: {valid})"
        )
    config.validate()
    return target.builder(stage, buggy, config)


# ----------------------------------------------------------------------
# Job construction
# ----------------------------------------------------------------------


def builtin_jobs(*, config: Optional[EngineConfig] = None) -> List[CoverageJob]:
    """One job per (builtin target, stage) pair — stage-less targets get a
    single job at their default suite."""
    config = config if config is not None else DEFAULT_CONFIG
    jobs: List[CoverageJob] = []
    for target in BUILTIN_TARGETS.values():
        stages: Tuple[Optional[str], ...] = target.stages or (None,)
        for stage in stages:
            suffix = f"@{stage}" if stage else ""
            jobs.append(
                CoverageJob(
                    name=f"{target.name}{suffix}",
                    kind=KIND_BUILTIN,
                    target=target.name,
                    stage=stage,
                    config=config,
                )
            )
    return jobs


def discover_rml(directory: "str | Path") -> List[Path]:
    """All ``.rml`` files directly under ``directory``, sorted by name."""
    return sorted(Path(directory).glob("*.rml"))


def rml_job(
    path: "str | Path", *, config: Optional[EngineConfig] = None
) -> CoverageJob:
    """A job running one ``.rml`` file (source is read eagerly so the job
    stays self-contained when shipped to a worker process)."""
    config = config if config is not None else DEFAULT_CONFIG
    path = Path(path)
    return CoverageJob(
        name=f"rml:{path.stem}",
        kind=KIND_RML,
        path=str(path),
        source=path.read_text(),
        config=config,
    )


def default_jobs(
    rml_dir: "str | Path | None" = None,
    include_builtins: bool = True,
    *,
    config: Optional[EngineConfig] = None,
) -> List[CoverageJob]:
    """The merged registry: builtin jobs plus discovered ``.rml`` jobs."""
    jobs: List[CoverageJob] = (
        builtin_jobs(config=config) if include_builtins else []
    )
    if rml_dir is not None:
        jobs.extend(
            rml_job(path, config=config) for path in discover_rml(rml_dir)
        )
    return jobs
