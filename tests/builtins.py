"""The builtin targets as elaborated models, for tests that drive the
engine layers below :class:`~repro.analysis.Analysis` directly."""

from repro.circuits import builtin_source
from repro.lang import elaborate, parse_module


def builtin_model(name, stage=None, buggy=False, *, config=None):
    """``(fsm, properties, observed, dont_care)`` of a builtin target at
    a stage: its ``.rml`` text, parsed and elaborated."""
    text = builtin_source(name, stage, buggy)
    model = elaborate(parse_module(text), config=config, text=text)
    return model.fsm, model.specs, model.observed, model.dont_care
