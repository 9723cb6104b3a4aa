"""The paper's introductory example: a modulo-5 counter with stall and reset.

Section 1 of the paper motivates the coverage metric with::

    AG (!stall & !reset & count = C & C < 5  ->  AX count = C + 1)

"the model checker ... ascertains the correctness of the condition on count
only in those states that are immediate successors of states satisfying the
antecedent" — i.e. even a verified suite covers only part of the state
space.  This circuit (parametric in the modulus) is the quickstart example
and the smallest end-to-end demonstration of hole finding.

Reset clears the counter, stall holds it, otherwise it counts modulo N.
Reset takes priority over stall.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional

from ..ctl.ast import CtlFormula
from ..ctl.parser import parse_ctl
from ..lang import elaborate, parse_module

if TYPE_CHECKING:
    from ..engine import EngineConfig
    from ..fsm.fsm import FSM

__all__ = [
    "build_counter",
    "counter_source",
    "counter_properties",
    "counter_partial_properties",
]


def counter_source(modulus: int = 5) -> str:
    """The modulo-``modulus`` counter as ``.rml`` model text, no SPECs.

    ``count`` is a ``ceil(log2(modulus))``-bit word next to the free inputs
    ``stall`` and ``reset``; values ``>= modulus`` are unreachable (and
    therefore outside the coverage space).
    """
    width = max(1, math.ceil(math.log2(modulus)))
    return f"""\
MODULE counter_mod{modulus}

VAR
  stall : boolean;
  reset : boolean;
  count : word[{width}];

ASSIGN
  init(count) := 0;
  next(count) := case
    reset : 0;
    stall : count;
    count = {modulus - 1} : 0;
    TRUE : count + 1;
  esac;
"""


def build_counter(
    modulus: int = 5,
    *,
    config: Optional[EngineConfig] = None,
) -> FSM:
    """The counter of :func:`counter_source`, elaborated; ``config`` carries
    the engine knobs (transition mode, resource thresholds)."""
    return elaborate(parse_module(counter_source(modulus)), config=config).fsm


def counter_properties(modulus: int = 5) -> List[CtlFormula]:
    """The complete suite: increment, stall-hold, and reset behaviour.

    Together these cover 100% of the reachable states for observed signal
    ``count``.
    """
    props: List[CtlFormula] = []
    for value in range(modulus):
        succ = (value + 1) % modulus
        props.append(
            parse_ctl(
                f"AG (!stall & !reset & count = {value} -> AX count = {succ})"
            )
        )
        props.append(
            parse_ctl(f"AG (stall & !reset & count = {value} -> AX count = {value})")
        )
    props.append(parse_ctl("AG (reset -> AX count = 0)"))
    return props


def counter_partial_properties(modulus: int = 5) -> List[CtlFormula]:
    """The paper's intro suite: only the increment properties.

    Verifying these alone leaves every state whose ``count`` value is not
    entered by a plain increment unchecked — the quickstart example uses
    this to demonstrate a coverage hole and its closure.
    """
    props: List[CtlFormula] = []
    for value in range(modulus - 1):
        props.append(
            parse_ctl(
                f"AG (!stall & !reset & count = {value} -> AX count = {value + 1})"
            )
        )
    return props
