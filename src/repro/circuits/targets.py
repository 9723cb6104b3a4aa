"""The registered built-in targets: the paper's circuits with their staged
property suites.

:data:`BUILTIN_TARGETS` names every target; :func:`build_builtin`
constructs ``(fsm, properties, observed, dont_care)`` for a target and
stage.  Target mode (``repro counter --stage full``), ``Analysis.builtin``
and the suite registry all read this table, so none of them needs the
suite layer to resolve a name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..engine import DEFAULT_CONFIG, EngineConfig
from .circular_queue import (
    build_circular_queue,
    circular_queue_empty_properties,
    circular_queue_full_properties,
    circular_queue_wrap_properties,
    circular_queue_wrap_stall_property,
)
from .counter import build_counter, counter_partial_properties, counter_properties
from .pipeline import (
    build_pipeline,
    pipeline_augmented_properties,
    pipeline_output_properties,
)
from .priority_buffer import (
    build_priority_buffer,
    priority_buffer_hi_properties,
    priority_buffer_lo_augmented_properties,
    priority_buffer_lo_properties,
)

__all__ = ["BuildResult", "BuiltinTarget", "BUILTIN_TARGETS", "build_builtin"]

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
    """One registered built-in circuit/signal target.

    ``buggy`` says whether the circuit has a buggy variant (``--buggy``).
    """

    name: str
    builder: Callable[..., BuildResult]
    stages: Tuple[str, ...]
    description: str
    buggy: bool = False

    def valid_stage(self, stage: Optional[str]) -> bool:
        return stage is None or stage in self.stages


BUILTIN_TARGETS: Dict[str, BuiltinTarget] = {
    target.name: target
    for target in (
        BuiltinTarget("counter", _counter, ("full", "partial"),
                      "mod-5 counter (paper Section 1)"),
        BuiltinTarget("buffer-hi", _buffer_hi, (),
                      "priority buffer, hi-pri count (Circuit 1)", buggy=True),
        BuiltinTarget("buffer-lo", _buffer_lo, ("initial", "augmented"),
                      "priority buffer, lo-pri count (Circuit 1)", buggy=True),
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
    :class:`ValueError` for an unknown target, a stage outside the
    target's stage list or ``buggy`` on a target without a buggy variant,
    and :class:`~repro.errors.ConfigError` (a ``ValueError`` subclass) for
    an invalid config.
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
    if buggy and not target.buggy:
        variants = ", ".join(t.name for t in BUILTIN_TARGETS.values() if t.buggy)
        raise ValueError(
            f"target {name!r} has no buggy variant "
            f"(buggy variants: {variants})"
        )
    config.validate()
    return target.builder(stage, buggy, config)
