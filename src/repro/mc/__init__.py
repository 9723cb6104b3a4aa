"""Model checking: symbolic CTL checker, explicit oracle, witnesses."""

from .checker import CheckResult, ModelChecker
from .explicit_checker import ExplicitModelChecker
from .witness import format_trace, input_sequence

__all__ = [
    "ModelChecker",
    "CheckResult",
    "ExplicitModelChecker",
    "format_trace",
    "input_sequence",
]
