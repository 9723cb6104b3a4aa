"""The paper's evaluation circuits and their staged property suites.

Each circuit is ``.rml`` model text (``counter_source`` and its siblings,
parametric in the circuit's size); ``build_counter`` and its siblings are
that text parsed and elaborated.  :func:`builtin_source` renders a
registered target at a stage as one complete module.

* :mod:`~repro.circuits.counter` — the Section 1 modulo-5 counter.
* :mod:`~repro.circuits.priority_buffer` — Circuit 1, with the planted
  escaped bug and the hole-closing property that reveals it.
* :mod:`~repro.circuits.circular_queue` — Circuit 2, with the three wrap
  suites (initial / extended / +stall property).
* :mod:`~repro.circuits.pipeline` — Circuit 3, with fairness, nested-Until
  staging properties and the hold-period coverage hole.
* :mod:`~repro.circuits.toy` — the explicit graphs of Figures 1-3.
* :mod:`~repro.circuits.targets` — the registered targets of target mode
  (:data:`BUILTIN_TARGETS`, :func:`builtin_source`).
"""

from .circular_queue import (
    DEFAULT_DEPTH,
    build_circular_queue,
    circular_queue_empty_properties,
    circular_queue_full_properties,
    circular_queue_source,
    circular_queue_wrap_properties,
    circular_queue_wrap_stall_property,
)
from .counter import (
    build_counter,
    counter_partial_properties,
    counter_properties,
    counter_source,
)
from .pipeline import (
    HOLD_CYCLES,
    build_pipeline,
    pipeline_augmented_properties,
    pipeline_output_properties,
    pipeline_retention_properties,
    pipeline_source,
)
from .priority_buffer import (
    DEFAULT_CAPACITY,
    build_priority_buffer,
    priority_buffer_hi_properties,
    priority_buffer_lo_augmented_properties,
    priority_buffer_lo_hole_property,
    priority_buffer_lo_properties,
    priority_buffer_source,
)
from .targets import BUILTIN_TARGETS, BuiltinTarget, builtin_source
from .toy import (
    FIGURE1_FORMULA,
    FIGURE2_FORMULA,
    FIGURE3_FORMULA,
    figure1_graph,
    figure2_graph,
    figure3_graph,
)

__all__ = [
    "BUILTIN_TARGETS",
    "BuiltinTarget",
    "builtin_source",
    "build_counter",
    "counter_source",
    "counter_properties",
    "counter_partial_properties",
    "build_priority_buffer",
    "priority_buffer_source",
    "priority_buffer_hi_properties",
    "priority_buffer_lo_properties",
    "priority_buffer_lo_hole_property",
    "priority_buffer_lo_augmented_properties",
    "DEFAULT_CAPACITY",
    "build_circular_queue",
    "circular_queue_source",
    "circular_queue_wrap_properties",
    "circular_queue_wrap_stall_property",
    "circular_queue_full_properties",
    "circular_queue_empty_properties",
    "DEFAULT_DEPTH",
    "build_pipeline",
    "pipeline_source",
    "pipeline_output_properties",
    "pipeline_retention_properties",
    "pipeline_augmented_properties",
    "HOLD_CYCLES",
    "figure1_graph",
    "figure2_graph",
    "figure3_graph",
    "FIGURE1_FORMULA",
    "FIGURE2_FORMULA",
    "FIGURE3_FORMULA",
]
