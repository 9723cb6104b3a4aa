"""Circuit 1 of the paper: the priority buffer.

"Circuit 1 is a priority buffer which schedules and stores incoming entries
according to their priorities (high or low). ... Given the number of entries
already in the buffer and the number of incoming entries, the properties
specify the correct number of entries in the buffer at the next clock. ...
we uncovered a missing case: when the buffer is empty and low priority
entries are incoming, the entries should be stored. A simple additional
property was written to cover this case. Verification of this property
failed and actually revealed a bug in the design of the buffer!"

This module reproduces every element of that narrative:

* a parametric buffer holding high- and low-priority entry counts, with
  arrival inputs, a dequeue port and a synchronous clear;
* a **planted bug** (``buggy=True``): incoming low-priority entries are
  dropped when the buffer is completely empty — exactly the paper's escaped
  bug, passing the initial property suite;
* staged property suites: the *initial* low-priority suite (passes on the
  buggy design, leaves the empty-buffer states uncovered), the
  *hole-closing* property (fails on the buggy design, revealing the bug)
  and the *augmented* suite (100% on the fixed design).

Semantics (correct design):

* ``clear`` empties the buffer;
* an incoming high-priority entry is accepted while there is room
  (``hi + lo < capacity``); high priority wins the last slot;
* an incoming low-priority entry is accepted while there is room left
  after the high-priority arrival;
* ``deq`` removes one entry, highest priority first.
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
    "build_priority_buffer",
    "priority_buffer_source",
    "priority_buffer_hi_properties",
    "priority_buffer_lo_properties",
    "priority_buffer_lo_hole_property",
    "priority_buffer_lo_augmented_properties",
    "DEFAULT_CAPACITY",
]

DEFAULT_CAPACITY = 4


def priority_buffer_source(
    capacity: int = DEFAULT_CAPACITY, buggy: bool = False
) -> str:
    """The priority buffer as ``.rml`` model text, no SPECs.

    ``capacity`` bounds the total number of stored entries.  ``buggy``
    plants the paper's escaped bug: a low-priority arrival is dropped
    whenever the buffer is completely empty (the designer's acceptance
    logic short-circuits on the empty condition).
    """
    width = max(1, math.ceil(math.log2(capacity + 1)))
    lo_acc = "in_lo & lo_room"
    if buggy:
        lo_acc += " & !(hi = 0 & lo = 0)"
    return f"""\
MODULE priority_buffer{capacity}{'_buggy' if buggy else ''}

VAR
  in_hi : boolean;
  in_lo : boolean;
  clear : boolean;
  deq : boolean;
  hi : word[{width}];
  lo : word[{width}];

DEFINE
  total := hi + lo;
  room := total < {capacity};
  hi_acc := in_hi & room;
  lo_room := room & !(in_hi & total = {capacity - 1});
  lo_acc := {lo_acc};
  hi_deq := deq & hi > 0;
  lo_deq := deq & (hi = 0 & lo > 0);

ASSIGN
  init(hi) := 0;
  next(hi) := case
    clear : 0;
    hi_acc & !hi_deq : hi + 1;
    hi_deq & !hi_acc : hi - 1;
    TRUE : hi;
  esac;
  init(lo) := 0;
  next(lo) := case
    clear : 0;
    lo_acc & !lo_deq : lo + 1;
    lo_deq & !lo_acc : lo - 1;
    TRUE : lo;
  esac;
"""


def build_priority_buffer(
    capacity: int = DEFAULT_CAPACITY, buggy: bool = False,
    *,
    config: Optional[EngineConfig] = None,
) -> FSM:
    """The buffer of :func:`priority_buffer_source`, elaborated; ``config``
    carries the engine knobs (transition mode, resource thresholds)."""
    text = priority_buffer_source(capacity, buggy)
    return elaborate(parse_module(text), config=config).fsm


def _bundle(parts: List[CtlFormula]) -> CtlFormula:
    """Conjoin per-value cases into one property (``f & g`` is in the
    acceptable subset), matching the paper's per-behaviour property counts."""
    if len(parts) == 1:
        return parts[0]
    return CtlAnd(tuple(parts))


def priority_buffer_hi_properties(
    capacity: int = DEFAULT_CAPACITY,
) -> List[CtlFormula]:
    """The complete high-priority suite (5 properties, 100% coverage).

    One bundled property per behaviour: clear, hold, arrival, dequeue, and
    simultaneous arrival+dequeue.
    """
    props: List[CtlFormula] = []
    props.append(parse_ctl("AG (clear -> AX hi = 0)"))
    props.append(_bundle([
        parse_ctl(
            f"AG (!clear & !in_hi & !deq & hi = {v} -> AX hi = {v})"
        )
        for v in range(capacity + 1)
    ]))
    props.append(_bundle([
        parse_ctl(
            f"AG (!clear & in_hi & !deq & total < {capacity} & hi = {v} "
            f"-> AX hi = {v + 1})"
        )
        for v in range(capacity)
    ] + [
        parse_ctl(
            f"AG (!clear & in_hi & !deq & total = {capacity} & hi = {v} "
            f"-> AX hi = {v})"
        )
        for v in range(capacity + 1)
    ]))
    props.append(_bundle([
        parse_ctl(
            f"AG (!clear & !in_hi & deq & hi = {v} -> AX hi = {v - 1})"
        )
        for v in range(1, capacity + 1)
    ] + [
        parse_ctl("AG (!clear & !in_hi & deq & hi = 0 -> AX hi = 0)"),
    ]))
    props.append(_bundle([
        # Simultaneous arrival + dequeue cancel out while there is room ...
        parse_ctl(
            f"AG (!clear & in_hi & deq & hi = {v} & total < {capacity} "
            f"-> AX hi = {v})"
        )
        for v in range(1, capacity + 1)
    ] + [
        # ... but a full buffer rejects the arrival and only dequeues.
        parse_ctl(
            f"AG (!clear & in_hi & deq & hi = {v} & total = {capacity} "
            f"-> AX hi = {v - 1})"
        )
        for v in range(1, capacity + 1)
    ] + [
        parse_ctl(
            f"AG (!clear & in_hi & deq & hi = 0 & total < {capacity} "
            f"-> AX hi = 1)"
        ),
        parse_ctl(
            f"AG (!clear & in_hi & deq & hi = 0 & total = {capacity} "
            f"-> AX hi = 0)"
        ),
    ]))
    return props


def priority_buffer_lo_properties(
    capacity: int = DEFAULT_CAPACITY,
) -> List[CtlFormula]:
    """The *initial* low-priority suite — the one with the coverage hole.

    Five bundled properties mirroring the high-priority suite, except that
    every antecedent assumes the buffer already holds an entry (``lo >= 1``
    for holds/dequeues, arrival cases starting from ``lo >= 1``), and the
    clear/empty behaviour of ``lo`` is never checked.  The suite **passes on
    the buggy design** — no property constrains what an empty buffer does
    with an incoming low-priority entry — and leaves the ``lo = 0`` region
    of the state space uncovered, which is exactly the hole the estimator
    reports.
    """
    props: List[CtlFormula] = []
    lo_ok = "!(in_hi & total = {last})".format(last=capacity - 1)
    props.append(_bundle([
        parse_ctl(
            f"AG (!clear & !in_lo & !deq & lo = {v} -> AX lo = {v})"
        )
        for v in range(1, capacity + 1)
    ]))
    props.append(_bundle([
        parse_ctl(
            f"AG (!clear & in_lo & !deq & total < {capacity} & {lo_ok} "
            f"& lo = {v} -> AX lo = {v + 1})"
        )
        for v in range(1, capacity)
    ]))
    props.append(_bundle([
        parse_ctl(
            f"AG (!clear & in_lo & !deq & total = {capacity} & lo = {v} "
            f"-> AX lo = {v})"
        )
        for v in range(1, capacity + 1)
    ]))
    props.append(_bundle([
        parse_ctl(
            f"AG (!clear & !in_lo & deq & hi = 0 & lo = {v} -> AX lo = {v - 1})"
        )
        for v in range(1, capacity + 1)
    ]))
    props.append(_bundle([
        parse_ctl(
            f"AG (!clear & !in_lo & deq & hi > 0 & lo = {v} -> AX lo = {v})"
        )
        for v in range(1, capacity + 1)
    ]))
    return props


def priority_buffer_lo_hole_property(capacity: int = DEFAULT_CAPACITY) -> CtlFormula:
    """The paper's hole-closing property: an empty buffer stores an incoming
    low-priority entry.  **Fails on the buggy design**, revealing the bug."""
    return parse_ctl(
        "AG (!clear & hi = 0 & lo = 0 & in_lo & !in_hi & !deq -> AX lo = 1)"
    )


def priority_buffer_lo_augmented_properties(
    capacity: int = DEFAULT_CAPACITY,
) -> List[CtlFormula]:
    """The augmented low-priority suite: 100% coverage on the fixed design.

    Adds the hole-closing property plus the empty-buffer behaviours the
    initial suite ignored (hold at empty, clear, arrival into empty with a
    simultaneous high-priority entry).
    """
    props = priority_buffer_lo_properties(capacity)
    props.append(priority_buffer_lo_hole_property(capacity))
    props.append(_bundle([
        parse_ctl("AG (!clear & !in_lo & lo = 0 -> AX lo = 0)"),
        parse_ctl("AG (clear -> AX lo = 0)"),
        parse_ctl(
            "AG (!clear & hi = 0 & lo = 0 & in_lo & in_hi & !deq -> AX lo = 1)"
        ),
        parse_ctl(
            "AG (!clear & hi > 0 & lo = 0 & in_lo & !in_hi "
            f"& total < {capacity} -> AX lo = 1)"
        ),
        parse_ctl(
            "AG (!clear & hi = 0 & lo = 0 & in_lo & deq -> AX lo = 1)"
        ),
        parse_ctl(
            f"AG (!clear & lo = 0 & in_lo & total = {capacity} -> AX lo = 0)"
        ),
        parse_ctl(
            f"AG (!clear & lo = 0 & in_lo & in_hi & total = {capacity - 1} "
            "& !deq & hi > 0 -> AX lo = 0)"
        ),
    ]))
    return props
