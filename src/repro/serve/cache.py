"""Two-tier result cache: bounded in-memory LRU over a disk store.

One :class:`ResultCache` maps ``repro-key/v2`` request keys
(:mod:`repro.serve.keys`) to JSON-safe analysis results.  The memory tier
is a bounded LRU (``max_entries``) of :class:`CacheEntry` values: each
result encoded once, as the bytes of ``json.dumps(result)`` a response
embeds.  The disk tier is one JSON file per key under the cache
directory, written atomically (temp file + ``os.replace``) so a crashed
writer can never leave a half-entry that a reader would trust.

Entry format (``repro-cache-entry/v1``)::

    {
      "schema": "repro-cache-entry/v1",
      "engine": "<repro.__version__ that computed the result>",
      "key":    "<the request key, for self-description>",
      "result": { ...AnalysisResult JSON... }
    }

Entries are *versioned*: a read whose ``schema`` or ``engine`` does not
match the running process is deleted and counted as an invalidation —
an engine upgrade silently empties the cache instead of replaying
results a different engine computed.

Degradation, never failure: any :class:`OSError` while creating the
directory or writing an entry flips the cache to memory-only for the
rest of its life, with one :class:`RuntimeWarning` — a read-only cache
dir slows the service down; it must not take it down.  Per-file read
errors and corrupt JSON are treated as misses (corrupt files are
removed) without degrading the tier.

Hit/miss/eviction counts are kept per instance (:meth:`ResultCache.stats`)
and mirrored into the process-global :mod:`repro.obs.counters` registry
under ``serve.cache.*``, which is how they surface in ``repro-metrics/v1``
documents (``GET /v1/stats``).
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from collections import OrderedDict
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Union

from .._version import __version__
from ..obs.counters import counter_inc

__all__ = ["ENTRY_SCHEMA", "CacheEntry", "ResultCache", "default_cache_dir"]

#: Schema tag of one on-disk cache entry.
ENTRY_SCHEMA = "repro-cache-entry/v1"

#: Default bound on the in-memory LRU tier.
DEFAULT_MAX_ENTRIES = 1024


class CacheEntry(NamedTuple):
    """One result as the memory tier holds it: immutable, encoded once."""

    #: ``json.dumps(result)``, ASCII.
    body: bytes
    #: Whether the result takes a lint block: an ``rml`` analysis that
    #: ran (status ``ok`` or ``fail``), which is what a local run attaches
    #: lint to.  Cached results themselves carry no lint.
    takes_lint: bool

    @classmethod
    def encode(cls, result: Dict) -> "CacheEntry":
        return cls(
            json.dumps(result).encode("ascii"),
            result.get("kind") == "rml"
            and result.get("status") in ("ok", "fail"),
        )


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro`` — the conventional
    per-user cache location the ``--cache-dir`` flag defaults to."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro"


class ResultCache:
    """A content-addressed result store keyed by request digests.

    ``directory=None`` runs memory-only (tests, ephemeral servers);
    otherwise the directory is created on first write.  A result is
    encoded when it is stored and the memory tier keeps only its bytes,
    so nothing a caller holds aliases the cached value: :meth:`get`
    decodes a fresh dict each time, and :meth:`get_entry` hands out the
    immutable entry itself.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        engine_version: str = __version__,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.directory = Path(directory) if directory is not None else None
        self.max_entries = max_entries
        self.engine_version = engine_version
        self._memory: "OrderedDict[str, CacheEntry]" = OrderedDict()
        #: Sum of the memory tier's ``len(entry.body)``.
        self._memory_bytes = 0
        self._degraded = False
        self._counts = {
            "memory_hits": 0,
            "disk_hits": 0,
            "misses": 0,
            "stores": 0,
            "evictions": 0,
            "invalidations": 0,
            "disk_errors": 0,
        }

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict]:
        """The cached result for ``key``, or ``None`` on a miss."""
        entry = self.get_entry(key)
        return None if entry is None else json.loads(entry.body)

    def put(self, key: str, result: Dict) -> CacheEntry:
        """Store ``result`` under ``key`` in both tiers; returns its entry."""
        entry = CacheEntry.encode(result)
        self._remember(key, entry)
        self._disk_put(key, result)
        self._count("stores")
        return entry

    def get_entry(self, key: str) -> Optional[CacheEntry]:
        """The encoded result for ``key``, or ``None`` on a miss."""
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            self._count("memory_hits")
            return entry
        result = self._disk_get(key)
        if result is not None:
            entry = CacheEntry.encode(result)
            self._remember(key, entry)
            self._count("disk_hits")
            return entry
        self._count("misses")
        return None

    @property
    def degraded(self) -> bool:
        """Whether a disk failure has flipped this cache to memory-only."""
        return self._degraded

    def stats(self) -> Dict[str, int]:
        """The instance counters, plus derived ``hits`` and size gauges."""
        out = dict(self._counts)
        out["hits"] = out["memory_hits"] + out["disk_hits"]
        out["memory_entries"] = len(self._memory)
        out["memory_bytes"] = self._memory_bytes
        out["degraded"] = int(self._degraded)
        return out

    # ------------------------------------------------------------------
    # Memory tier
    # ------------------------------------------------------------------

    def _remember(self, key: str, entry: CacheEntry) -> None:
        old = self._memory.pop(key, None)
        if old is not None:
            self._memory_bytes -= len(old.body)
        self._memory[key] = entry
        self._memory_bytes += len(entry.body)
        while len(self._memory) > self.max_entries:
            _, evicted = self._memory.popitem(last=False)
            self._memory_bytes -= len(evicted.body)
            self._count("evictions")

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.json"

    def _disk_get(self, key: str) -> Optional[Dict]:
        if self.directory is None or self._degraded:
            return None
        path = self._path(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError:
            self._count("disk_errors")
            return None
        try:
            entry = json.loads(text)
        except json.JSONDecodeError:
            entry = None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != ENTRY_SCHEMA
            or entry.get("engine") != self.engine_version
            or not isinstance(entry.get("result"), dict)
        ):
            # A different engine's answer (or a torn/corrupt file) is not
            # an answer to this key: drop it so it can be recomputed.
            self._count("invalidations")
            try:
                path.unlink()
            except OSError:
                self._count("disk_errors")
            return None
        return entry["result"]

    def _disk_put(self, key: str, result: Dict) -> None:
        if self.directory is None or self._degraded:
            return
        entry = {
            "schema": ENTRY_SCHEMA,
            "engine": self.engine_version,
            "key": key,
            "result": result,
        }
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=".tmp-", suffix=".json", dir=str(self.directory)
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(entry, handle, indent=2, sort_keys=True)
                    handle.write("\n")
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self._degrade(exc)

    def _degrade(self, exc: OSError) -> None:
        self._count("disk_errors")
        if self._degraded:
            return
        self._degraded = True
        counter_inc("serve.cache.degraded")
        warnings.warn(
            f"repro.serve cache directory {self.directory} is unusable "
            f"({exc}); continuing memory-only — results are unaffected, "
            f"but nothing will persist across restarts",
            RuntimeWarning,
            stacklevel=4,
        )

    def _count(self, name: str) -> None:
        self._counts[name] += 1
        counter_inc(f"serve.cache.{name}")
