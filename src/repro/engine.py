"""`EngineConfig` — every engine knob in one frozen, serialisable object.

Before this module existed, each engine knob (the transition-relation mode,
the GC threshold) was threaded by hand through six layers: CLI flag →
``CoverageJob`` field → job factories → target builder → circuit builder
→ FSM build → ``ResourcePolicy``.  Adding a knob meant
editing all of them, and none of the values travelled with the results
they shaped.

:class:`EngineConfig` collapses that thread: it is *the* value that moves
through the pipeline, and every transport the pipeline uses has a matching
codec —

* ``from_args`` / ``add_cli_arguments`` / ``to_cli_args`` for argparse
  (the CLI's three subcommands share one parent parser built from it);
* ``to_json`` / ``from_json`` for the suite report
  (``repro-coverage-suite/v2`` embeds one config per job);
* plain dataclass pickling for ``ProcessPoolExecutor`` fan-out.

Adding a knob is now one dataclass field plus its entry in the four codec
methods below — no other layer changes.

The config is deliberately higher-level than
:class:`~repro.bdd.policy.ResourcePolicy`: it exposes the portable,
result-preserving cost knobs a *user* sets, and compiles them to a policy
via :meth:`EngineConfig.policy`.  Code that drives a
:class:`~repro.bdd.manager.BDDManager` directly can still construct a
``ResourcePolicy`` and pass it as ``policy=``.

    >>> cfg = EngineConfig(trans="mono", gc_threshold=50_000)
    >>> cfg.to_cli_args()
    ['--trans', 'mono', '--gc-threshold', '50000']
    >>> EngineConfig.from_json(cfg.to_json()) == cfg
    True
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional

from .errors import ConfigError
from .obs.telemetry import TELEMETRY_LEVELS, TELEMETRY_OFF

__all__ = [
    "EngineConfig",
    "DEFAULT_CONFIG",
    "TRANS_MONO",
    "TRANS_PARTITIONED",
    "TRANS_MODES",
]

#: Execute images through the monolithic transition relation.
TRANS_MONO = "mono"
#: Execute images through the scheduled conjunct chain (the default).
TRANS_PARTITIONED = "partitioned"
#: The valid transition-relation execution modes.
TRANS_MODES = (TRANS_MONO, TRANS_PARTITIONED)

@dataclass(frozen=True)
class EngineConfig:
    """The analysis engine's configuration, as one immutable value.

    Every field is a *cost* knob: any two configs produce byte-identical
    coverage results on the same model; they differ only in how the result
    is computed (image strategy, memory ceiling, cache behaviour).  That
    invariant is what makes it safe to record the config next to the
    result — it documents the run without qualifying the numbers.

    Attributes
    ----------
    trans:
        Transition-relation mode: ``"partitioned"`` (per-latch conjuncts
        with early quantification, the default) or ``"mono"`` (one
        monolithic relation BDD).
    gc_threshold:
        Live-BDD-node threshold for automatic garbage collection.  ``None``
        keeps the engine default; ``0`` disables auto-GC.
    gc_growth:
        Post-collection trigger growth factor (``>= 1.0``); ``1.0`` forces
        a collection at every safe point.  ``None`` keeps the default.
    cache_threshold:
        Combined operation-cache entry cap; ``0`` disables the cap,
        ``None`` keeps the default.
    telemetry:
        Telemetry level: ``"off"`` (default), ``"counters"`` (cumulative
        engine counters in reports), or ``"spans"`` (full phase spans and
        frontier events — what ``--profile`` and ``--trace`` need).
        Purely observational: results are identical at every level.
    """

    trans: str = TRANS_PARTITIONED
    gc_threshold: Optional[int] = None
    gc_growth: Optional[float] = None
    cache_threshold: Optional[int] = None
    telemetry: str = "off"

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> "EngineConfig":
        """Check every knob; raise :class:`~repro.errors.ConfigError` on the
        first invalid one.  Returns ``self`` so calls chain."""
        if self.trans not in TRANS_MODES:
            raise ConfigError(
                f"unknown transition mode {self.trans!r} "
                f"(valid modes: {', '.join(TRANS_MODES)})"
            )
        if self.gc_threshold is not None and self.gc_threshold < 0:
            raise ConfigError("--gc-threshold must be >= 0")
        if self.gc_growth is not None and self.gc_growth < 1.0:
            raise ConfigError("--gc-growth must be >= 1.0")
        if self.cache_threshold is not None and self.cache_threshold < 0:
            raise ConfigError("--cache-threshold must be >= 0")
        if self.telemetry not in TELEMETRY_LEVELS:
            raise ConfigError(
                f"unknown telemetry level {self.telemetry!r} "
                f"(valid levels: {', '.join(TELEMETRY_LEVELS)})"
            )
        return self

    def with_(self, **changes) -> "EngineConfig":
        """A copy with the given fields replaced (a readable ``replace``)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Compilation to the low-level engine object
    # ------------------------------------------------------------------

    def policy(self):
        """The :class:`~repro.bdd.policy.ResourcePolicy` this config
        describes, or ``None`` when every resource knob is at its default
        (letting the BDD manager keep its built-in policy)."""
        if (
            self.gc_threshold is None
            and self.gc_growth is None
            and self.cache_threshold is None
        ):
            return None
        from .bdd.policy import ResourcePolicy

        kwargs: Dict[str, object] = {}
        if self.gc_threshold is not None:
            kwargs["gc_node_threshold"] = self.gc_threshold
        if self.gc_growth is not None:
            kwargs["gc_growth"] = self.gc_growth
        if self.cache_threshold is not None:
            kwargs["cache_entry_threshold"] = self.cache_threshold
        return ResourcePolicy(**kwargs)

    # ------------------------------------------------------------------
    # argparse codec
    # ------------------------------------------------------------------

    @staticmethod
    def add_cli_arguments(parser) -> None:
        """Install the engine flags on ``parser`` (typically a shared
        ``add_help=False`` parent parser reused by every subcommand)."""
        parser.add_argument(
            "--trans", choices=list(TRANS_MODES), default=TRANS_PARTITIONED,
            help=(
                "transition-relation mode: 'partitioned' (per-latch "
                "conjuncts with early quantification, the default) or "
                "'mono' (one monolithic relation BDD); coverage results "
                "are identical, only image-computation cost differs"
            ),
        )
        parser.add_argument(
            "--gc-threshold", type=int, default=None, metavar="NODES",
            help=(
                "live-BDD-node threshold for automatic garbage collection "
                "(0 disables auto-GC; default: the engine's built-in "
                "threshold); a cost/memory knob — coverage results are "
                "identical at any setting"
            ),
        )
        parser.add_argument(
            "--gc-growth", type=float, default=None, metavar="FACTOR",
            help=(
                "post-collection GC trigger growth factor, >= 1.0 "
                "(1.0 collects at every safe point; default: the engine's "
                "built-in factor)"
            ),
        )
        parser.add_argument(
            "--cache-threshold", type=int, default=None, metavar="ENTRIES",
            help=(
                "combined operation-cache entry cap (0 disables the cap; "
                "default: the engine's built-in cap)"
            ),
        )
        parser.add_argument(
            "--telemetry", choices=list(TELEMETRY_LEVELS),
            default=TELEMETRY_OFF, metavar="LEVEL",
            help=(
                "telemetry level: 'off' (default), 'counters' (cumulative "
                "engine counters in JSON reports), or 'spans' (full phase "
                "spans and frontier events); purely observational — "
                "results are identical at every level"
            ),
        )

    @classmethod
    def from_args(cls, args) -> "EngineConfig":
        """Build (and validate) a config from a parsed argparse namespace."""
        return cls(
            trans=getattr(args, "trans", TRANS_PARTITIONED),
            gc_threshold=getattr(args, "gc_threshold", None),
            gc_growth=getattr(args, "gc_growth", None),
            cache_threshold=getattr(args, "cache_threshold", None),
            telemetry=getattr(args, "telemetry", TELEMETRY_OFF),
        )

    def to_cli_args(self) -> List[str]:
        """The flag tokens that re-create this config — only non-default
        knobs appear, so a default config renders to ``[]``.

        Round-trips through the CLI parser: parsing the returned tokens and
        calling :meth:`from_args` yields an equal config.
        """
        args: List[str] = []
        if self.trans != TRANS_PARTITIONED:
            args += ["--trans", self.trans]
        if self.gc_threshold is not None:
            args += ["--gc-threshold", str(self.gc_threshold)]
        if self.gc_growth is not None:
            args += ["--gc-growth", repr(self.gc_growth)]
        if self.cache_threshold is not None:
            args += ["--cache-threshold", str(self.cache_threshold)]
        if self.telemetry != TELEMETRY_OFF:
            args += ["--telemetry", self.telemetry]
        return args

    # ------------------------------------------------------------------
    # JSON codec
    # ------------------------------------------------------------------

    def to_json(self) -> Dict:
        """A JSON-safe dict with every knob explicit (defaults included),
        so a recorded config is self-describing."""
        return {
            "trans": self.trans,
            "gc_threshold": self.gc_threshold,
            "gc_growth": self.gc_growth,
            "cache_threshold": self.cache_threshold,
            "telemetry": self.telemetry,
        }

    def fingerprint(self) -> str:
        """The canonical one-line JSON rendering of this config — the
        request-key hook for :mod:`repro.serve.keys`.

        Sorted keys and compact separators make the string a pure function
        of the config's *value*; because :meth:`to_json` lists every field
        explicitly (defaults included), any future knob automatically
        becomes part of every request key the serving layer computes — no
        serve-side change needed when a field is added here.

            >>> EngineConfig().fingerprint() == EngineConfig().fingerprint()
            True
            >>> EngineConfig(trans="mono").fingerprint() != \\
            ...     EngineConfig().fingerprint()
            True
        """
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, data: Dict) -> "EngineConfig":
        """Inverse of :meth:`to_json`; unknown keys are a
        :class:`~repro.errors.ConfigError` (a config from a future schema
        must not be silently truncated)."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"engine config must be a JSON object, got "
                f"{type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown engine config key(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(**data)


#: The configuration used when none is supplied anywhere.
DEFAULT_CONFIG = EngineConfig()

