"""The registered built-in targets: the paper's circuits with their staged
property suites, as ``.rml`` module text.

:data:`BUILTIN_TARGETS` names every target; :func:`builtin_source` renders
a target at a stage as one module — the circuit's model text, one ``SPEC``
per suite property and its ``OBSERVED``/``DONTCARE`` lines.  Everything
that analyses a builtin (target mode, ``Analysis.builtin``, suite jobs,
``repro serve`` ``target`` payloads, ``repro bench``, ``lint --target``)
parses, checks and elaborates that text like any other ``.rml`` model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..ctl.ast import CtlFormula
from ..ctl.printer import ctl_to_str
from .circular_queue import (
    circular_queue_empty_properties,
    circular_queue_full_properties,
    circular_queue_source,
    circular_queue_wrap_properties,
    circular_queue_wrap_stall_property,
)
from .counter import counter_partial_properties, counter_properties, counter_source
from .pipeline import (
    pipeline_augmented_properties,
    pipeline_output_properties,
    pipeline_source,
)
from .priority_buffer import (
    priority_buffer_hi_properties,
    priority_buffer_lo_augmented_properties,
    priority_buffer_lo_properties,
    priority_buffer_source,
)

__all__ = ["BuiltinTarget", "BUILTIN_TARGETS", "builtin_source"]

Suite = Callable[[], List[CtlFormula]]


@dataclass(frozen=True)
class BuiltinTarget:
    """One registered built-in circuit/signal target.

    ``suites`` maps each stage to its property suite, the default stage
    first; a stage-less target has its one suite under ``None``.
    ``buggy_model`` is the circuit's buggy variant (``--buggy``), if it
    has one.
    """

    name: str
    description: str
    model: Callable[[], str]
    suites: Dict[Optional[str], Suite]
    observed: str
    dont_care: Optional[str] = None
    buggy_model: Optional[Callable[[], str]] = None

    @property
    def stages(self) -> Tuple[str, ...]:
        return tuple(stage for stage in self.suites if stage is not None)

    @property
    def buggy(self) -> bool:
        return self.buggy_model is not None


def _queue_wrap_final() -> List[CtlFormula]:
    return circular_queue_wrap_properties(stage="extended") + [
        circular_queue_wrap_stall_property()
    ]


_buggy_buffer = partial(priority_buffer_source, buggy=True)

BUILTIN_TARGETS: Dict[str, BuiltinTarget] = {
    target.name: target
    for target in (
        BuiltinTarget(
            "counter", "mod-5 counter (paper Section 1)", counter_source,
            {"full": counter_properties, "partial": counter_partial_properties},
            "count",
        ),
        BuiltinTarget(
            "buffer-hi", "priority buffer, hi-pri count (Circuit 1)",
            priority_buffer_source, {None: priority_buffer_hi_properties}, "hi",
            buggy_model=_buggy_buffer,
        ),
        BuiltinTarget(
            "buffer-lo", "priority buffer, lo-pri count (Circuit 1)",
            priority_buffer_source,
            {
                "initial": priority_buffer_lo_properties,
                "augmented": priority_buffer_lo_augmented_properties,
            },
            "lo", buggy_model=_buggy_buffer,
        ),
        BuiltinTarget(
            "queue-wrap", "circular queue, wrap bit (Circuit 2)",
            circular_queue_source,
            {
                "initial": circular_queue_wrap_properties,
                "extended": partial(circular_queue_wrap_properties, stage="extended"),
                "final": _queue_wrap_final,
            },
            "wrap",
        ),
        BuiltinTarget(
            "queue-full", "circular queue, full signal (Circuit 2)",
            circular_queue_source, {None: circular_queue_full_properties}, "full",
        ),
        BuiltinTarget(
            "queue-empty", "circular queue, empty signal (Circuit 2)",
            circular_queue_source, {None: circular_queue_empty_properties}, "empty",
        ),
        BuiltinTarget(
            "pipeline", "decode pipeline, output (Circuit 3)", pipeline_source,
            {
                "initial": pipeline_output_properties,
                "augmented": pipeline_augmented_properties,
            },
            "output", dont_care="!out_valid",
        ),
    )
}


def builtin_source(
    name: str, stage: Optional[str] = None, buggy: bool = False
) -> str:
    """The ``.rml`` module text of target ``name`` at ``stage`` (the
    target's default suite when ``None``), its buggy variant when
    ``buggy``.

    Raises :class:`ValueError` for an unknown target, a stage outside the
    target's stage list or ``buggy`` on a target without a buggy variant.
    """
    target = BUILTIN_TARGETS.get(name)
    if target is None:
        raise ValueError(f"unknown target {name!r}")
    if stage is not None and stage not in target.stages:
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
    model = target.buggy_model if buggy else target.model
    suite = target.suites[stage] if stage else next(iter(target.suites.values()))
    lines = [model(), *(f"SPEC {ctl_to_str(spec)};" for spec in suite())]
    lines.append(f"OBSERVED {target.observed};")
    if target.dont_care is not None:
        lines.append(f"DONTCARE {target.dont_care};")
    return "\n".join(lines) + "\n"
