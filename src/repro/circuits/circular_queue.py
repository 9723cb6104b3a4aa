"""Circuit 2 of the paper: the circular queue.

"Circuit 2 is a circular queue controlled by a read pointer, a write pointer
and a wrap bit that toggles whenever either pointer wraps around the queue.
It also has stall, clear and reset signals as inputs. Properties were
written to verify the correct operation of the wrap bit, the full and empty
signals. ... The coverage for the full and empty signals was 100%. But
coverage for the wrap bit was 60%. Inspecting the uncovered states, three
additional properties were written which still did not achieve 100%
coverage. We traced the input/state sequences leading to these uncovered
states and found that the value of wrap bit was not checked if the stall
signal was asserted ... A property was added to specify that the wrap bit
remains unchanged for this case and 100% coverage was achieved."

Queue semantics:

* ``reset``/``clear`` zero both pointers and the wrap bit;
* ``stall`` freezes the queue;
* otherwise a push (when not full) advances the write pointer and a pop
  (when not empty) advances the read pointer, each modulo the depth;
* the wrap bit toggles whenever a pointer steps from ``depth-1`` to 0
  (simultaneous wraparounds cancel);
* ``full``/``empty`` are the classic comparator outputs
  (``rd == wr`` with / without the wrap bit).

The property suites reproduce the paper's three stages for observed signal
``wrap``: :func:`circular_queue_wrap_properties` with ``stage="initial"``
(the wraparound-event checks, far from full coverage), ``stage="extended"``
(three more properties — still short), and the stall property
(:func:`circular_queue_wrap_stall_property`) that finally closes the hole,
plus the complete ``full``/``empty`` suites (100% each).
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..ctl.ast import CtlAnd, CtlFormula
from ..ctl.parser import parse_ctl
from ..engine import EngineConfig
from ..expr.arith import increment_mod_bits, mux
from ..expr.ast import FALSE_EXPR, And, Not, Or, Var, Xor
from ..expr.parser import parse_expr
from ..fsm.builder import CircuitBuilder
from ..fsm.fsm import FSM

__all__ = [
    "build_circular_queue",
    "circular_queue_wrap_properties",
    "circular_queue_wrap_stall_property",
    "circular_queue_full_properties",
    "circular_queue_empty_properties",
    "DEFAULT_DEPTH",
]

DEFAULT_DEPTH = 4


def build_circular_queue(
    depth: int = DEFAULT_DEPTH,
    *,
    config: Optional[EngineConfig] = None,
) -> FSM:
    """Build the circular queue with pointer width ``ceil(log2(depth))``.

    ``config`` carries the engine knobs (see
    :meth:`~repro.fsm.builder.CircuitBuilder.build`).
    """
    if depth < 2 or depth & (depth - 1):
        raise ValueError("depth must be a power of two >= 2")
    width = int(math.log2(depth))
    b = CircuitBuilder(f"circular_queue{depth}")
    push = b.input("push")
    pop = b.input("pop")
    stall = b.input("stall")
    clear = b.input("clear")
    reset = b.input("reset")

    rd_bits = [f"rd{i}" for i in range(width)]
    wr_bits = [f"wr{i}" for i in range(width)]

    zero = Or((clear, reset))
    freeze = And((stall, Not(zero)))

    same_ptr = parse_expr("rd = wr")
    full = And((same_ptr, Var("wrap")))
    empty = And((same_ptr, Not(Var("wrap"))))
    do_push = And((push, Not(stall), Not(zero), Not(full)))
    do_pop = And((pop, Not(stall), Not(zero), Not(empty)))

    top = depth - 1
    wr_wraps = And((do_push, parse_expr(f"wr = {top}")))
    rd_wraps = And((do_pop, parse_expr(f"rd = {top}")))

    wr_next = increment_mod_bits(wr_bits, depth)
    rd_next = increment_mod_bits(rd_bits, depth)
    for i, bit in enumerate(wr_bits):
        advanced = mux(do_push, wr_next[i], Var(bit))
        b.latch(bit, init=False, next_=mux(zero, FALSE_EXPR, advanced))
    for i, bit in enumerate(rd_bits):
        advanced = mux(do_pop, rd_next[i], Var(bit))
        b.latch(bit, init=False, next_=mux(zero, FALSE_EXPR, advanced))

    wrap_toggled = Xor(Var("wrap"), Xor(wr_wraps, rd_wraps))
    b.latch("wrap", init=False, next_=mux(zero, FALSE_EXPR, wrap_toggled))

    b.word("rd", rd_bits)
    b.word("wr", wr_bits)
    b.define("full", full)
    b.define("empty", empty)
    return b.build(config=config)


def _bundle(parts: List[CtlFormula]) -> CtlFormula:
    if len(parts) == 1:
        return parts[0]
    return CtlAnd(tuple(parts))


def _ops(depth: int) -> dict:
    """Antecedent fragments shared by the wrap properties."""
    top = depth - 1
    return {
        "idle": "!stall & !clear & !reset",
        "top": top,
    }


def circular_queue_wrap_properties(
    depth: int = DEFAULT_DEPTH, stage: str = "initial"
) -> List[CtlFormula]:
    """The wrap-bit suites of the paper's narrative.

    ``stage="initial"`` — 5 properties: reset, clear, push-wraparound
    toggles, pop-wraparound toggles, simultaneous wraparounds cancel.
    These verify but leave most of the state space uncovered (the paper
    measured 60.08%).

    ``stage="extended"`` — the initial five plus three more written after
    inspecting the holes: non-wraparound pushes and pops preserve the wrap
    bit, and an idle cycle preserves it.  Still short of 100%: no property
    constrains the wrap bit on stalled cycles.
    """
    if stage not in ("initial", "extended"):
        raise ValueError(f"unknown stage {stage!r}")
    frag = _ops(depth)
    idle, top = frag["idle"], frag["top"]
    props: List[CtlFormula] = []
    props.append(parse_ctl("AG (reset -> AX !wrap)"))
    props.append(parse_ctl("AG (clear & !reset -> AX !wrap)"))
    props.append(_bundle([
        parse_ctl(
            f"AG ({idle} & push & wr = {top} & !full & !wrap "
            f"& !(pop & rd = {top} & !empty) -> AX wrap)"
        ),
        parse_ctl(
            f"AG ({idle} & push & wr = {top} & !full & wrap "
            f"& !(pop & rd = {top} & !empty) -> AX !wrap)"
        ),
    ]))
    props.append(_bundle([
        parse_ctl(
            f"AG ({idle} & pop & rd = {top} & !empty & wrap "
            f"& !(push & wr = {top} & !full) -> AX !wrap)"
        ),
        parse_ctl(
            f"AG ({idle} & pop & rd = {top} & !empty & !wrap "
            f"& !(push & wr = {top} & !full) -> AX wrap)"
        ),
    ]))
    # Quiescence in the common (unwrapped) regime: the engineer writes the
    # !wrap side only, which is why half of the wrapped states stay
    # unchecked after this stage.
    props.append(parse_ctl(f"AG ({idle} & !push & !pop & !wrap -> AX !wrap)"))
    if stage == "initial":
        return props

    # The three extended properties, written after inspecting the holes:
    # ordinary (non-wraparound) traffic preserves the wrap bit, and
    # simultaneous wraparounds cancel.  The antecedents still assume the
    # common-case polarities and never mention `stall`, so the full-queue
    # wrapped states (reachable while stalled) remain unchecked.
    props.append(parse_ctl(
        f"AG ({idle} & push & wr != {top} & !full & !wrap "
        f"& !(pop & rd = {top}) -> AX !wrap)"
    ))
    props.append(parse_ctl(
        f"AG ({idle} & pop & rd != {top} & !empty & wrap "
        f"& !(push & wr = {top}) -> AX wrap)"
    ))
    props.append(_bundle([
        parse_ctl(
            f"AG ({idle} & push & wr = {top} & !full "
            f"& pop & rd = {top} & !empty & wrap -> AX wrap)"
        ),
        parse_ctl(
            f"AG ({idle} & push & wr = {top} & !full "
            f"& pop & rd = {top} & !empty & !wrap -> AX !wrap)"
        ),
    ]))
    return props


def circular_queue_wrap_stall_property(depth: int = DEFAULT_DEPTH) -> CtlFormula:
    """The hole-closing property: the wrap bit is unchanged on stalled cycles.

    "A property was added to specify that the wrap bit remains unchanged for
    this case and 100% coverage was achieved."
    """
    return _bundle([
        parse_ctl("AG (stall & !clear & !reset & !wrap -> AX !wrap)"),
        parse_ctl("AG (stall & !clear & !reset & wrap -> AX wrap)"),
    ])


def circular_queue_full_properties(depth: int = DEFAULT_DEPTH) -> List[CtlFormula]:
    """The two full-signal properties (100% coverage for observed ``full``)."""
    top = depth - 1
    return [
        # The queue reports full exactly when the comparator fires; one
        # behavioural check: the final push into the last slot raises full.
        _bundle([
            parse_ctl(
                "AG (!stall & !clear & !reset & push & !pop & !full "
                f"& wr = {top} & rd = 0 & !wrap -> AX full)"
            ),
            parse_ctl(
                "AG (!stall & !clear & !reset & pop & !push & full -> AX !full)"
            ),
        ]),
        # Full is stable when nothing moves, and clears on reset.
        _bundle([
            parse_ctl("AG (stall & !clear & !reset & full -> AX full)"),
            parse_ctl("AG (stall & !clear & !reset & !full -> AX !full)"),
            parse_ctl("AG (!stall & !clear & !reset & !push & !pop & full -> AX full)"),
            parse_ctl(
                "AG (!stall & !clear & !reset & !push & !pop & !full -> AX !full)"
            ),
            parse_ctl("AG (reset -> AX !full)"),
            parse_ctl("AG (clear -> AX !full)"),
            parse_ctl("AG (!stall & !clear & !reset & push & !pop & !full "
                      "-> AX (full -> !empty))"),
        ]),
    ]


def circular_queue_empty_properties(depth: int = DEFAULT_DEPTH) -> List[CtlFormula]:
    """The two empty-signal properties (100% coverage for observed ``empty``)."""
    return [
        _bundle([
            parse_ctl("AG (reset -> AX empty)"),
            parse_ctl("AG (clear -> AX empty)"),
            parse_ctl(
                "AG (!stall & !clear & !reset & push & !pop & empty -> AX !empty)"
            ),
        ]),
        _bundle([
            parse_ctl("AG (stall & !clear & !reset & empty -> AX empty)"),
            parse_ctl("AG (stall & !clear & !reset & !empty -> AX !empty)"),
            parse_ctl(
                "AG (!stall & !clear & !reset & !push & !pop & empty -> AX empty)"
            ),
            parse_ctl(
                "AG (!stall & !clear & !reset & !push & !pop & !empty -> AX !empty)"
            ),
            parse_ctl(
                "AG (!stall & !clear & !reset & pop & !push & full -> AX !empty)"
            ),
        ]),
    ]
