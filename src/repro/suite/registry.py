"""Suite registry: built-in circuits merged with ``.rml`` files on disk.

The registry turns what can be analysed into suite jobs, each one
``.rml`` text:

* :func:`builtin_job` / :func:`builtin_jobs` — a target at a stage of
  :data:`~repro.circuits.BUILTIN_TARGETS`, as the module text
  :func:`~repro.circuits.builtin_source` renders (the table and the
  renderer live in :mod:`repro.circuits` and are re-exported here).
* :func:`~repro.lang.discover_rml` / :func:`rml_job` — ``.rml`` model
  files found on disk.
* :func:`default_jobs` — the merged job list a suite run executes: every
  builtin target at every stage, plus every discovered ``.rml`` file.

Engine knobs travel as one :class:`~repro.engine.EngineConfig` value.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

from ..circuits import BUILTIN_TARGETS, BuiltinTarget, builtin_source
from ..engine import DEFAULT_CONFIG, EngineConfig
from ..lang import discover_rml
from .jobs import CoverageJob

__all__ = [
    "BuiltinTarget",
    "BUILTIN_TARGETS",
    "builtin_source",
    "discover_rml",
    "rml_job",
    "builtin_job",
    "builtin_jobs",
    "default_jobs",
]

# ----------------------------------------------------------------------
# Job construction
# ----------------------------------------------------------------------


def builtin_job(
    target: str,
    stage: Optional[str] = None,
    buggy: bool = False,
    *,
    config: Optional[EngineConfig] = None,
) -> CoverageJob:
    """A job running a builtin target's module text, named
    ``target@stage``.  Raises :class:`ValueError` as
    :func:`~repro.circuits.builtin_source` does."""
    return CoverageJob(
        name=f"{target}@{stage}" if stage else target,
        source=builtin_source(target, stage, buggy),
        stage=stage,
        config=config if config is not None else DEFAULT_CONFIG,
    )


def builtin_jobs(*, config: Optional[EngineConfig] = None) -> List[CoverageJob]:
    """One job per (builtin target, stage) pair — stage-less targets get a
    single job at their default suite."""
    return [
        builtin_job(target.name, stage, config=config)
        for target in BUILTIN_TARGETS.values()
        for stage in target.stages or (None,)
    ]


def rml_job(
    path: "str | Path", *, config: Optional[EngineConfig] = None
) -> CoverageJob:
    """A job running one ``.rml`` file (source is read eagerly so the job
    stays self-contained when shipped to a worker process)."""
    path = Path(path)
    return CoverageJob(
        name=f"rml:{path.stem}",
        source=path.read_text(),
        path=str(path),
        config=config if config is not None else DEFAULT_CONFIG,
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
