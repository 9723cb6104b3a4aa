"""The suite job model: one coverage estimation run per job.

A :class:`CoverageJob` is a *description* of work — ``.rml`` model text
(a file's, or a builtin target's from :func:`~repro.circuits.builtin_source`),
a property-stage label, and the :class:`~repro.engine.EngineConfig` to run
under — and its outcome is an :class:`~repro.analysis.AnalysisResult`.
Both are plain picklable values so jobs fan out across a
``ProcessPoolExecutor`` (BDD managers are per-process state, which makes
jobs embarrassingly parallel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..engine import EngineConfig

__all__ = ["CoverageJob"]


@dataclass(frozen=True)
class CoverageJob:
    """One (model text, property stage, engine config) unit of work.

    ``source`` is the module text the worker parses and elaborates, with
    ``path`` as the file name for error messages; properties, observed
    signals and don't-cares come from the text.  ``stage`` labels the
    result (a builtin target's property stage).  ``config`` carries every
    engine knob (transition-relation mode, GC thresholds, cache cap,
    telemetry); all knobs are cost knobs — coverage results are identical
    under any config.
    """

    name: str
    source: str
    stage: Optional[str] = None
    path: Optional[str] = None
    config: EngineConfig = field(default_factory=EngineConfig)

    def describe(self) -> str:
        """The job as the model it runs plus the CLI flags of its config.

        The engine flags are regenerated from
        :meth:`~repro.engine.EngineConfig.to_cli_args`, so re-parsing the
        description yields the job's exact config (see the round-trip test
        in ``tests/suite/test_jobs.py``).
        """
        flags = " ".join(self.config.to_cli_args())
        flags = f" {flags}" if flags else ""
        return (self.path or f"<{self.name}>") + flags
