"""``repro.lang`` — the textual model description language (``.rml``).

An SMV-inspired contract that decouples model description from library
code: circuits, properties, observed signals, fairness, and don't-cares
all live in one ``.rml`` file, parsed by :func:`parse_module`, validated by
:func:`check_module`, lowered onto the existing
:class:`~repro.fsm.builder.CircuitBuilder` by :func:`elaborate` (which
raises the validator's first finding), and round-tripped by
:func:`module_to_str`.

    >>> from repro.lang import parse_module, elaborate
    >>> model = elaborate(parse_module(
    ...     "MODULE blinker VAR x : boolean; ASSIGN next(x) := !x; "
    ...     "SPEC AG (x | !x); OBSERVED x;"))
    >>> model.fsm.name, model.observed
    ('blinker', ['x'])

Feed ``model.specs``/``model.observed``/``model.dont_care`` to
:class:`~repro.coverage.estimator.CoverageEstimator` for the full
pipeline (see the README quickstart).
"""

from .ast import Module
from .check import check_module
from .elaborate import ElaboratedModel, elaborate
from .parser import discover_rml, load_module, parse_module
from .printer import module_to_str

__all__ = [
    "Module",
    "ElaboratedModel",
    "check_module",
    "elaborate",
    "discover_rml",
    "load_module",
    "parse_module",
    "module_to_str",
]
