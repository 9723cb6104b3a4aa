"""Circuit 3 of the paper: the instruction-decode pipeline.

"Circuit 3 is a pipeline in the instruction decode stage of the processor.
The width of the pipeline datapath was abstracted to a single bit.
Properties were verified on this signal to check the correct staging of data
through the pipeline ... These properties generally took the form that an
input to the pipeline will eventually appear at the output given certain
fairness conditions on the stalls. ... Coverage was increased to 100% by
identifying uncovered states and enhancing the set of properties. The
biggest hole in our pipeline control verification was that we ignored the
fact that the pipeline output retains its value for 3 cycles while data is
being processed by a state machine connected to the end of the pipeline."

Design: a 3-stage pipeline with valid/data bits per stage, a ``stall``
input, and — the key element of the narrative — a hold state machine at the
output: whenever a new value reaches stage 3, a 2-bit counter freezes the
pipeline for the arrival cycle plus two more (the output "retains its value
for 3 cycles").  The pipeline advances only when ``!stall`` and the hold
counter is idle.  Fairness: ``!stall`` holds infinitely often; the output
is judged only where it is valid (don't-care ``!out_valid``).

The initial 8-property suite checks staging with the paper's nested-Until
flavour (``AG (p1 -> A[p2 U A[p3 U p4]])``) plus stall retention, but never
mentions the hold counter — leaving the hold-period states uncovered
(the paper measured 74.36%).  The augmented suite adds the retention
properties and reaches 100%.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..ctl.ast import CtlFormula
from ..ctl.parser import parse_ctl
from ..lang import elaborate, parse_module

if TYPE_CHECKING:
    from ..engine import EngineConfig
    from ..fsm.fsm import FSM

__all__ = [
    "build_pipeline",
    "pipeline_source",
    "pipeline_output_properties",
    "pipeline_retention_properties",
    "pipeline_augmented_properties",
    "HOLD_CYCLES",
]

#: The output is retained for this many cycles per arrival (paper: 3).
HOLD_CYCLES = 3


def pipeline_source(stages: int = 3) -> str:
    """The ``stages``-stage pipeline with the output hold state machine, as
    ``.rml`` model text (no SPECs).

    With the default ``stages=3`` (the paper's circuit) the state variables
    are per-stage valid/data bits (``v1,d1,v2,d2,v3,d3``), the 2-bit hold
    counter ``h``, and the free inputs ``in_valid``, ``in_data`` and
    ``stall`` — 11 variables, the same order of magnitude as the paper's
    15-variable final model.  Larger ``stages`` values widen the datapath
    with more ``vK,dK`` pairs (the property suites below are written for
    the 3-stage shape only); the partition benchmark uses widened instances
    to measure mono vs partitioned image costs.

    The pipeline advances only when ``!stall`` and the hold counter is
    idle.  A valid value arriving at the last stage sets the counter to
    ``HOLD_CYCLES - 1`` (= 2), and it then counts down unconditionally (the
    downstream state machine works regardless of pipeline stalls):
    ``0 -> 2 -> 1 -> 0``.
    """
    if stages < 2:
        raise ValueError("the pipeline needs at least 2 stages")
    stage_range = range(1, stages + 1)
    decls = "".join(f"  v{k} : boolean;\n  d{k} : boolean;\n" for k in stage_range)
    nexts = "".join(
        f"  init(v{k}) := 0;\n  init(d{k}) := 0;\n"
        f"  next(v{k}) := case advance : {valid}; TRUE : v{k}; esac;\n"
        f"  next(d{k}) := case advance : {data}; TRUE : d{k}; esac;\n"
        for k, valid, data in zip(
            stage_range,
            ["in_valid"] + [f"v{k}" for k in stage_range],
            ["in_data"] + [f"d{k}" for k in stage_range],
        )
    )
    return f"""\
MODULE pipeline{stages}

VAR
  in_valid : boolean;
  in_data : boolean;
  stall : boolean;
{decls}  h : word[2];

DEFINE
  advance := !stall & h = 0;
  arriving := advance & v{stages - 1};
  output := d{stages};
  out_valid := v{stages};

ASSIGN
{nexts}  init(h) := 0;
  next(h) := case
    arriving : {HOLD_CYCLES - 1};
    h = 2 : 1;
    TRUE : 0;
  esac;

FAIRNESS !stall;
"""


def build_pipeline(
    stages: int = 3,
    *,
    config: Optional[EngineConfig] = None,
) -> FSM:
    """The pipeline of :func:`pipeline_source`, elaborated; ``config``
    carries the engine knobs (transition mode, resource thresholds)."""
    return elaborate(parse_module(pipeline_source(stages)), config=config).fsm


def pipeline_output_properties() -> List[CtlFormula]:
    """The initial 8-property suite for observed signal ``output``.

    Nested-Until staging from stages 1 and 2, next-cycle staging into the
    output, and stall retention — but nothing about the hold counter, so
    the hold-period states are left uncovered.
    """
    props: List[CtlFormula] = []
    for v in (0, 1):
        d = f"d1 = {v}"
        props.append(parse_ctl(
            f"AG (v1 & d1 = {v} -> "
            f"A [v1 & d1 = {v} U A [v2 & d2 = {v} U v3 & output = {v}]])"
        ))
    for v in (0, 1):
        props.append(parse_ctl(
            f"AG (v2 & d2 = {v} -> A [v2 & d2 = {v} U v3 & output = {v}])"
        ))
    for v in (0, 1):
        props.append(parse_ctl(
            f"AG (!stall & h = 0 & v2 & d2 = {v} -> AX (v3 & output = {v}))"
        ))
    for v in (0, 1):
        props.append(parse_ctl(
            f"AG (stall & h = 0 & v3 & output = {v} -> AX output = {v})"
        ))
    return props


def pipeline_retention_properties() -> List[CtlFormula]:
    """The hole-closing properties: the output is retained while the hold
    state machine is busy (the paper's "biggest hole")."""
    props: List[CtlFormula] = []
    for v in (0, 1):
        props.append(parse_ctl(
            f"AG (h != 0 & output = {v} -> AX output = {v})"
        ))
    return props


def pipeline_augmented_properties() -> List[CtlFormula]:
    """Initial suite plus retention: 100% coverage for ``output``."""
    return pipeline_output_properties() + pipeline_retention_properties()
