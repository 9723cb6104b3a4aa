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
from typing import TYPE_CHECKING, List, Optional

from ..ctl.ast import CtlAnd, CtlFormula
from ..ctl.parser import parse_ctl
from ..lang import elaborate, parse_module

if TYPE_CHECKING:
    from ..engine import EngineConfig
    from ..fsm.fsm import FSM

__all__ = [
    "build_circular_queue",
    "circular_queue_source",
    "circular_queue_wrap_properties",
    "circular_queue_wrap_stall_property",
    "circular_queue_full_properties",
    "circular_queue_empty_properties",
    "DEFAULT_DEPTH",
]

DEFAULT_DEPTH = 4


def circular_queue_source(depth: int = DEFAULT_DEPTH) -> str:
    """The circular queue as ``.rml`` model text (no SPECs), with pointer
    width ``log2(depth)``."""
    if depth < 2 or depth & (depth - 1):
        raise ValueError("depth must be a power of two >= 2")
    width = int(math.log2(depth))
    top = depth - 1
    return f"""\
MODULE circular_queue{depth}

VAR
  push : boolean;
  pop : boolean;
  stall : boolean;
  clear : boolean;
  reset : boolean;
  wr : word[{width}];
  rd : word[{width}];
  wrap : boolean;

DEFINE
  zero := clear | reset;
  full := rd = wr & wrap;
  empty := rd = wr & !wrap;
  do_push := push & !stall & !zero & !full;
  do_pop := pop & !stall & !zero & !empty;

ASSIGN
  init(wr) := 0;
  next(wr) := case
    zero : 0;
    do_push : wr + 1;
    TRUE : wr;
  esac;
  init(rd) := 0;
  next(rd) := case
    zero : 0;
    do_pop : rd + 1;
    TRUE : rd;
  esac;
  init(wrap) := FALSE;
  next(wrap) := case
    zero : FALSE;
    TRUE : wrap ^ (do_push & wr = {top} ^ do_pop & rd = {top});
  esac;
"""


def build_circular_queue(
    depth: int = DEFAULT_DEPTH,
    *,
    config: Optional[EngineConfig] = None,
) -> FSM:
    """The queue of :func:`circular_queue_source`, elaborated; ``config``
    carries the engine knobs (transition mode, resource thresholds)."""
    return elaborate(parse_module(circular_queue_source(depth)), config=config).fsm


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
