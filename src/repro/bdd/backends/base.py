"""The BDD backend interface: node storage + kernels, nothing else.

A *backend* owns the physical side of the ROBDD engine — the node store,
the hash-consing (unique) table, the operation caches, and the iterative
kernel algorithms (``ite``, the binary appliers, quantification, the
relational product, composition, counting).  Everything a backend sees is
an integer: node ids, *levels* (order positions), cache tags.  Variable
names and ids, the variable<->level maps, external root tracking, pinning,
the :class:`~repro.bdd.policy.ResourcePolicy`, and safe-point scheduling
all live one layer up in :class:`~repro.bdd.manager.BDDManager`, which
translates its var-id API onto this level-based one.

The split is the classic separation of algorithm from storage that fast
DD packages get from a compiled kernel: the manager (and with it the
whole model-checking stack) is written once against this interface.  One
backend ships: ``dict`` — tuple-keyed hash consing on Python dicts (see
:mod:`repro.bdd.backends.dict_backend`).

**Contract.**  A backend must produce canonical ROBDDs (same levels, same
cofactor graphs for one function), exact satcounts, and cube enumeration
in the canonical low-first order — coverage verdicts, percentages, and
trace renderings depend on all three (enforced against brute-force truth
tables by ``tests/bdd/test_backend_conformance.py``).  Memoisation is
exact: every computed sub-result is cached until an explicit cache clear,
which is what makes the engine work counters — nodes created, unique
probes, op-cache hits/misses — deterministic enough to gate in the
committed bench baselines.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Pseudo-level assigned to the two terminal nodes; orders after any variable.
TERMINAL_LEVEL = 1 << 30

#: Reserved node ids for the constant functions (shared by every backend).
FALSE = 0
TRUE = 1


class BDDBackend(ABC):
    """Abstract node store + kernel set the manager delegates to.

    All node arguments and results are integer node ids; all variable
    positions are integer *levels*.  Levels passed to quantification,
    counting, and support queries are always sorted ascending (the manager
    guarantees it).  ``compose_generations`` is a plain attribute the
    manager refreshes from its policy; it bounds how many substitution
    generations the compose cache may accumulate before a purge.
    """

    #: Short name of this backend (``"dict"``), shown in the manager's repr.
    name: str = "?"

    #: Compose-cache purge period, installed by the manager from its
    #: :class:`~repro.bdd.policy.ResourcePolicy`.
    compose_generations: int = 8

    # ------------------------------------------------------------------
    # Node store
    # ------------------------------------------------------------------

    @abstractmethod
    def mk(self, level: int, low: int, high: int) -> int:
        """Find-or-create the node ``(level, low, high)`` (the reduce rule)."""

    @abstractmethod
    def find(self, level: int, low: int, high: int) -> Optional[int]:
        """The existing node ``(level, low, high)``, or ``None`` — never
        creates (the manager uses this to root variable literals in GC)."""

    @abstractmethod
    def level_of(self, node: int) -> int:
        """Level of ``node`` (``TERMINAL_LEVEL`` for the terminals)."""

    @abstractmethod
    def low_of(self, node: int) -> int:
        """Low (else) child of ``node``."""

    @abstractmethod
    def high_of(self, node: int) -> int:
        """High (then) child of ``node``."""

    @abstractmethod
    def node_count(self) -> int:
        """Live (non-recycled) nodes, terminals included."""

    @abstractmethod
    def unique_size(self) -> int:
        """Entries in the unique table (live nodes excluding terminals)."""

    @abstractmethod
    def size(self, node: int) -> int:
        """DAG nodes reachable from ``node``, terminals included."""

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------

    @abstractmethod
    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else ``(f & g) | (~f & h)``."""

    @abstractmethod
    def apply_not(self, f: int) -> int:
        """Negation (memoised, involution-seeded)."""

    @abstractmethod
    def apply_and(self, f: int, g: int) -> int:
        """Conjunction (commutativity-normalised cache)."""

    @abstractmethod
    def apply_or(self, f: int, g: int) -> int:
        """Disjunction (commutativity-normalised cache)."""

    @abstractmethod
    def apply_xor(self, f: int, g: int) -> int:
        """Exclusive or."""

    @abstractmethod
    def exists_levels(self, f: int, levels: Sequence[int]) -> int:
        """Existential quantification of the (sorted) ``levels`` out of ``f``."""

    @abstractmethod
    def forall_levels(self, f: int, levels: Sequence[int]) -> int:
        """Universal quantification of the (sorted) ``levels`` out of ``f``."""

    @abstractmethod
    def and_exists_levels(self, f: int, g: int, levels: Sequence[int]) -> int:
        """Relational product ``exists levels . (f & g)`` in one pass."""

    @abstractmethod
    def restrict_levels(self, f: int, assignment: Dict[int, bool]) -> int:
        """Cofactor of ``f`` with every level in ``assignment`` fixed to its
        value, in one pass over ``f``."""

    @abstractmethod
    def compose_levels(self, f: int, by_level: Dict[int, int]) -> int:
        """Simultaneous substitution ``{level -> replacement node}``."""

    @abstractmethod
    def rename_monotone(self, f: int, level_map: Dict[int, int]) -> int:
        """Direct rebuild under an (on ``f``'s support) strictly
        order-preserving level map; the manager checks monotonicity and
        falls back to :meth:`compose_levels` itself when it fails."""

    @abstractmethod
    def satcount_levels(self, f: int, levels: Sequence[int]) -> int:
        """Satisfying assignments of ``f`` over the (sorted) counting
        ``levels``, which must cover ``f``'s support (manager-checked)."""

    @abstractmethod
    def support_levels(self, f: int) -> List[int]:
        """Sorted levels ``f`` structurally depends on."""

    @abstractmethod
    def iter_cube_paths(self, f: int) -> Iterator[List[Tuple[int, bool]]]:
        """Yield one ``[(level, value), ...]`` literal path per cube of
        ``f``, in the canonical low-first DFS order (trace rendering
        depends on this order being deterministic)."""

    @abstractmethod
    def cube_levels(self, assignment: Dict[int, bool]) -> int:
        """The conjunction-of-literals node for ``{level: value}``."""

    # ------------------------------------------------------------------
    # Caches, garbage, reordering support
    # ------------------------------------------------------------------

    @abstractmethod
    def clear_caches(self) -> None:
        """Drop every operation cache."""

    @abstractmethod
    def cache_entry_count(self) -> int:
        """Combined entry count of all operation caches."""

    @abstractmethod
    def collect(self, roots: Iterable[int]) -> int:
        """Mark from ``roots``, sweep everything else, recycle the slots
        into the free list, and (iff anything was freed) drop the op
        caches.  Returns the number of slots freed."""

    @abstractmethod
    def live_count(self, roots: Iterable[int]) -> int:
        """Nodes reachable from ``roots`` (terminals included) — the mark
        phase of :meth:`collect` without the sweep."""

    @abstractmethod
    def level_occupancy(self) -> Dict[int, int]:
        """Live node count per level (reordering's placement signal)."""

    @abstractmethod
    def swap_adjacent_levels(self, upper: int) -> None:
        """Swap levels ``upper`` and ``upper + 1`` rewriting the affected
        nodes *in place*, so node ids keep denoting the same functions.
        The caller (:func:`repro.bdd.reorder.swap_adjacent`) owns the
        variable<->level bookkeeping and invalidates caches after."""

    @abstractmethod
    def invalidate_level_structures(self) -> None:
        """Drop every level-keyed structure (op caches, interned
        quantification profiles) after a reorder changed level meaning."""

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    @abstractmethod
    def counters(self) -> Dict[str, int]:
        """The kernel-side counter block of
        :meth:`~repro.bdd.manager.BDDManager.resource_stats`:
        ``nodes_created``, ``unique_probes``/``unique_hits``, and per-op
        cache ``*_hits``/``*_misses``.  Reading never mutates state."""
