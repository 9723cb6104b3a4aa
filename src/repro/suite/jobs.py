"""The suite job model: one coverage estimation run per job.

A :class:`CoverageJob` is a *description* of work — model source (a builtin
target name or ``.rml`` text), property stage, observed signals, and the
:class:`~repro.engine.EngineConfig` to run under — and its outcome is an
:class:`~repro.analysis.AnalysisResult`.  Both are plain picklable values so
jobs fan out across a ``ProcessPoolExecutor`` (BDD managers are
per-process state, which makes jobs embarrassingly parallel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..analysis import KIND_RML
from ..engine import EngineConfig

__all__ = ["CoverageJob"]


@dataclass(frozen=True)
class CoverageJob:
    """One (model, property stage, engine config) unit of work.

    ``kind`` selects the model source: ``"builtin"`` re-creates a registered
    circuit (``target`` + ``stage`` + ``buggy``) inside the worker process;
    ``"rml"`` parses and elaborates ``source`` (with ``path`` as the
    file name for error messages).  Observed signals and don't-cares come
    from the target definition or the module text respectively.  ``config``
    carries every engine knob (transition-relation mode, GC thresholds,
    cache cap, telemetry); all knobs are cost knobs — coverage results are
    identical under any config.
    """

    name: str
    kind: str
    target: Optional[str] = None
    stage: Optional[str] = None
    buggy: bool = False
    path: Optional[str] = None
    source: Optional[str] = None
    config: EngineConfig = field(default_factory=EngineConfig)

    def describe(self) -> str:
        """The job as the CLI invocation that reproduces it.

        The engine flags are regenerated from
        :meth:`~repro.engine.EngineConfig.to_cli_args`, so re-parsing the
        description yields the job's exact config (see the round-trip test
        in ``tests/suite/test_jobs.py``).
        """
        flags = " ".join(self.config.to_cli_args())
        flags = f" {flags}" if flags else ""
        if self.kind == KIND_RML:
            return (self.path or f"<rml:{self.name}>") + flags
        stage = f" --stage {self.stage}" if self.stage else ""
        buggy = " --buggy" if self.buggy else ""
        return f"{self.target}{stage}{buggy}{flags}"
