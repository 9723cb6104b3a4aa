"""Suite registry: built-in circuits merged with ``.rml`` files on disk.

The registry turns what can be analysed into suite jobs:

* :func:`builtin_jobs` — one job per target and stage of
  :data:`~repro.circuits.BUILTIN_TARGETS` (the table, and
  :func:`~repro.circuits.build_builtin`, live in :mod:`repro.circuits`
  and are re-exported here).
* :func:`~repro.lang.discover_rml` / :func:`rml_job` — ``.rml`` model
  files found on disk, each carrying its own properties and observed
  signals.
* :func:`default_jobs` — the merged job list a suite run executes: every
  builtin target at every stage, plus every discovered ``.rml`` file.

Engine knobs travel as one :class:`~repro.engine.EngineConfig` value.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple

from ..analysis import KIND_BUILTIN, KIND_RML
from ..circuits import BUILTIN_TARGETS, BuiltinTarget, build_builtin
from ..engine import DEFAULT_CONFIG, EngineConfig
from ..lang import discover_rml
from .jobs import CoverageJob

__all__ = [
    "BuiltinTarget",
    "BUILTIN_TARGETS",
    "build_builtin",
    "discover_rml",
    "rml_job",
    "builtin_jobs",
    "default_jobs",
]

# ----------------------------------------------------------------------
# Job construction
# ----------------------------------------------------------------------


def builtin_jobs(*, config: Optional[EngineConfig] = None) -> List[CoverageJob]:
    """One job per (builtin target, stage) pair — stage-less targets get a
    single job at their default suite."""
    config = config if config is not None else DEFAULT_CONFIG
    jobs: List[CoverageJob] = []
    for target in BUILTIN_TARGETS.values():
        stages: Tuple[Optional[str], ...] = target.stages or (None,)
        for stage in stages:
            suffix = f"@{stage}" if stage else ""
            jobs.append(
                CoverageJob(
                    name=f"{target.name}{suffix}",
                    kind=KIND_BUILTIN,
                    target=target.name,
                    stage=stage,
                    config=config,
                )
            )
    return jobs


def rml_job(
    path: "str | Path", *, config: Optional[EngineConfig] = None
) -> CoverageJob:
    """A job running one ``.rml`` file (source is read eagerly so the job
    stays self-contained when shipped to a worker process)."""
    config = config if config is not None else DEFAULT_CONFIG
    path = Path(path)
    return CoverageJob(
        name=f"rml:{path.stem}",
        kind=KIND_RML,
        path=str(path),
        source=path.read_text(),
        config=config,
    )


def default_jobs(
    rml_dir: "str | Path | None" = None,
    include_builtins: bool = True,
    *,
    config: Optional[EngineConfig] = None,
) -> List[CoverageJob]:
    """The merged registry: builtin jobs plus discovered ``.rml`` jobs."""
    jobs: List[CoverageJob] = (
        builtin_jobs(config=config) if include_builtins else []
    )
    if rml_dir is not None:
        jobs.extend(
            rml_job(path, config=config) for path in discover_rml(rml_dir)
        )
    return jobs
