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
counter is idle.  Fairness: ``!stall`` holds infinitely often.

The initial 8-property suite checks staging with the paper's nested-Until
flavour (``AG (p1 -> A[p2 U A[p3 U p4]])``) plus stall retention, but never
mentions the hold counter — leaving the hold-period states uncovered
(the paper measured 74.36%).  The augmented suite adds the retention
properties and reaches 100%.
"""

from __future__ import annotations

from typing import List, Optional

from ..ctl.ast import CtlFormula
from ..ctl.parser import parse_ctl
from ..engine import EngineConfig
from ..expr.arith import mux
from ..expr.ast import And, Not, Var
from ..expr.parser import parse_expr
from ..fsm.builder import CircuitBuilder
from ..fsm.fsm import FSM

__all__ = [
    "build_pipeline",
    "pipeline_output_properties",
    "pipeline_retention_properties",
    "pipeline_augmented_properties",
    "HOLD_CYCLES",
]

#: The output is retained for this many cycles per arrival (paper: 3).
HOLD_CYCLES = 3


def build_pipeline(
    stages: int = 3,
    *,
    config: Optional[EngineConfig] = None,
) -> FSM:
    """Build the ``stages``-stage pipeline with the output hold state machine.

    With the default ``stages=3`` (the paper's circuit) the state variables
    are per-stage valid/data bits (``v1,d1,v2,d2,v3,d3``), the 2-bit hold
    counter ``h``, and the free inputs ``in_valid``, ``in_data`` and
    ``stall`` — 11 variables, the same order of magnitude as the paper's
    15-variable final model.  Larger ``stages`` values widen the datapath
    with more ``vK,dK`` pairs (the property suites below are written for
    the 3-stage shape only); the partition benchmark uses widened instances
    to measure mono vs partitioned image costs.  ``config`` carries the
    engine knobs (see :meth:`~repro.fsm.builder.CircuitBuilder.build`).
    """
    if stages < 2:
        raise ValueError("the pipeline needs at least 2 stages")
    b = CircuitBuilder(f"pipeline{stages}")
    in_valid = b.input("in_valid")
    in_data = b.input("in_data")
    stall = b.input("stall")

    hold_busy = parse_expr("h != 0")
    advance = And((Not(stall), Not(hold_busy)))

    def staged(valid_src: Var, data_src: Var, valid_dst: str, data_dst: str):
        b.latch(valid_dst, init=False, next_=mux(advance, valid_src, Var(valid_dst)))
        b.latch(data_dst, init=False, next_=mux(advance, data_src, Var(data_dst)))

    prev_v, prev_d = in_valid, in_data
    for k in range(1, stages + 1):
        staged(prev_v, prev_d, f"v{k}", f"d{k}")
        prev_v, prev_d = Var(f"v{k}"), Var(f"d{k}")

    # Hold counter: set to HOLD_CYCLES-1 (= 2) when a new valid value
    # arrives at the last stage, then counts down unconditionally (the
    # downstream state machine processes regardless of pipeline stalls).
    # With the sequence 0 -> 2 -> 1 -> 0 the per-bit logic collapses to:
    #   h0' = 1  iff  h == 2          (the 2 -> 1 step)
    #   h1' = 1  iff  a value arrives (the 0 -> 2 step; arrival implies h=0)
    arriving = And((advance, Var(f"v{stages - 1}")))
    b.latch("h0", init=False, next_=parse_expr("h = 2"))
    b.latch("h1", init=False, next_=arriving)
    b.word("h", ["h0", "h1"])

    b.define("output", f"d{stages}")
    b.define("out_valid", f"v{stages}")
    b.fairness("!stall")
    return b.build(config=config)


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
