"""A self-contained reduced ordered binary decision diagram (ROBDD) engine.

This module provides the symbolic substrate that the DAC'99 coverage paper
gets from SMV's BDD package: hash-consed nodes, the ``ite`` operator with
memoisation, specialised binary operators, existential/universal
quantification, relational products (``and_exists``), functional composition,
variable renaming, satisfying-assignment counting and enumeration.

The manager is a *facade*: node storage, the unique table, the operation
caches, and every kernel algorithm live behind the
:class:`~repro.bdd.backends.base.BDDBackend` interface (implemented by
:class:`~repro.bdd.backends.dict_backend.DictBackend`).  What remains
here is the engine-facing policy layer — variable naming and the
variable<->level maps, external root tracking for the
:class:`~repro.bdd.function.Function` wrappers, pinning for in-flight
enumerations, the :class:`~repro.bdd.policy.ResourcePolicy` safe points
(:meth:`BDDManager.checkpoint`), and the :meth:`BDDManager.resource_stats`
schema — plus the var-id to level translation in front of every kernel.

Nodes are integers; the two terminals are the reserved node ids ``0``
(FALSE) and ``1`` (TRUE).  Nodes store *levels* rather than variable ids so
that variable reordering can swap adjacent levels in place without
invalidating outstanding node references (see :mod:`repro.bdd.reorder`).
Every kernel is **iterative** (explicit work stacks), so the engine's depth
limit is available memory, not Python's recursion limit.

The user-facing wrapper with operator overloading lives in
:mod:`repro.bdd.function`; this module works on raw node ids and is the
layer the FSM/model-checking code talks to for performance.
"""

from __future__ import annotations

import time
import weakref
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import BDDError
from .backends import BDDBackend, DictBackend
from .backends.base import FALSE, TERMINAL_LEVEL, TRUE
from .policy import DEFAULT_POLICY, ResourcePolicy

__all__ = ["BDDManager", "FALSE", "TRUE", "TERMINAL_LEVEL"]


class BDDManager:
    """Owner of a shared ROBDD node store and its operation caches.

    All functions created through one manager may be freely combined; mixing
    nodes from different managers is an error (checked by the high-level
    :class:`~repro.bdd.function.Function` wrapper).

    Parameters
    ----------
    var_names:
        Optional initial variable names, declared in order (first name gets
        the topmost level).
    policy:
        Resource-management thresholds (automatic GC, cache caps, the
        auto-sift hook).  Defaults to
        :data:`~repro.bdd.policy.DEFAULT_POLICY`.
    """

    def __init__(
        self,
        var_names: Optional[Iterable[str]] = None,
        policy: Optional[ResourcePolicy] = None,
    ):
        self.backend: BDDBackend = DictBackend()

        # Variable bookkeeping.  A "variable" is a stable integer id; its
        # position in the order is a "level".  Initially id == level.
        self._var_names: List[str] = []
        self._name_to_var: Dict[str, int] = {}
        self._var2level: List[int] = []
        self._level2var: List[int] = []

        # Live external references (Function wrappers), for garbage marking.
        # Keyed by wrapper *identity*: Function equality is structural (two
        # wrappers for the same node compare equal), so a WeakSet would
        # collapse equal wrappers into one entry and drop the root when the
        # stored one died — recycling nodes a live wrapper still denotes.
        self._external: Dict[int, "weakref.ref"] = {}
        # Nodes pinned by in-flight enumerations (node -> pin count): cube
        # iterators hold raw node ids across yields, so their roots must
        # survive any GC a consumer triggers between items.
        self._pinned: Dict[int, int] = {}

        # Resource management.
        self.policy: ResourcePolicy = policy if policy is not None else DEFAULT_POLICY
        self.backend.compose_generations = self.policy.compose_generations
        self._gc_trigger = self.policy.gc_node_threshold
        self._reorder_trigger = self.policy.reorder_node_threshold
        self._in_checkpoint = False

        # Manager-side statistics (kernel counters live in the backend).
        self._gc_runs = 0
        self._gc_seconds = 0.0
        self._gc_freed_total = 0
        self._reorder_runs = 0
        self._peak_nodes = 2
        # Relational-product chain shape (and_exists_chain schedules).
        self._chain_runs = 0
        self._chain_steps = 0
        self._chain_max_len = 0

        if var_names is not None:
            for name in var_names:
                self.add_var(name)

    # ------------------------------------------------------------------
    # Variable management
    # ------------------------------------------------------------------

    def add_var(self, name: str) -> int:
        """Declare a new variable at the bottom of the order; return its id."""
        if name in self._name_to_var:
            raise BDDError(f"variable {name!r} already declared")
        var = len(self._var_names)
        self._var_names.append(name)
        self._name_to_var[name] = var
        self._var2level.append(len(self._level2var))
        self._level2var.append(var)
        return var

    def var_id(self, name: str) -> int:
        """Return the variable id for ``name`` (raises if undeclared)."""
        try:
            return self._name_to_var[name]
        except KeyError:
            raise BDDError(f"unknown variable {name!r}") from None

    def var_name(self, var: int) -> str:
        """Return the declared name of variable id ``var``."""
        return self._var_names[var]

    def var_level(self, var: int) -> int:
        """Current level (order position) of variable id ``var``."""
        return self._var2level[var]

    def level_var(self, level: int) -> int:
        """Variable id currently sitting at ``level``."""
        return self._level2var[level]

    @property
    def num_vars(self) -> int:
        """Number of declared variables."""
        return len(self._var_names)

    @property
    def var_names(self) -> List[str]:
        """Names of all declared variables in declaration order."""
        return list(self._var_names)

    def current_order(self) -> List[str]:
        """Variable names from top level to bottom level."""
        return [self._var_names[v] for v in self._level2var]

    def var(self, name: str) -> int:
        """Return the node for the positive literal of variable ``name``."""
        var = self._name_to_var.get(name)
        if var is None:
            var = self.add_var(name)
        return self.backend.mk(self._var2level[var], FALSE, TRUE)

    def nvar(self, name: str) -> int:
        """Return the node for the negative literal of variable ``name``."""
        var = self._name_to_var.get(name)
        if var is None:
            var = self.add_var(name)
        return self.backend.mk(self._var2level[var], TRUE, FALSE)

    # ------------------------------------------------------------------
    # Node primitives (delegated to the backend)
    # ------------------------------------------------------------------

    def _mk(self, level: int, low: int, high: int) -> int:
        """Find-or-create the node ``(level, low, high)`` (the reduce rule)."""
        return self.backend.mk(level, low, high)

    def level_of(self, node: int) -> int:
        """Level of ``node`` (``TERMINAL_LEVEL`` for constants)."""
        return self.backend.level_of(node)

    def low_of(self, node: int) -> int:
        """Low (else) child of ``node``."""
        return self.backend.low_of(node)

    def high_of(self, node: int) -> int:
        """High (then) child of ``node``."""
        return self.backend.high_of(node)

    def node_count(self) -> int:
        """Number of live (non-recycled) nodes including terminals."""
        return self.backend.node_count()

    @property
    def created_nodes(self) -> int:
        """Total number of nodes ever created (a work measure, akin to the
        paper's "BDD nodes" column in Table 2)."""
        return self.backend.created_nodes

    def size(self, node: int) -> int:
        """Number of DAG nodes reachable from ``node`` (including terminals)."""
        return self.backend.size(node)

    # ------------------------------------------------------------------
    # Core operators
    # ------------------------------------------------------------------

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``(f & g) | (~f & h)``, the universal connective."""
        return self.backend.ite(f, g, h)

    def apply_not(self, f: int) -> int:
        """Negation (O(size) without complement edges, memoised)."""
        return self.backend.apply_not(f)

    def apply_and(self, f: int, g: int) -> int:
        """Conjunction with a commutativity-normalised cache."""
        return self.backend.apply_and(f, g)

    def apply_or(self, f: int, g: int) -> int:
        """Disjunction with a commutativity-normalised cache."""
        return self.backend.apply_or(f, g)

    def apply_xor(self, f: int, g: int) -> int:
        """Exclusive or."""
        return self.backend.apply_xor(f, g)

    def apply_iff(self, f: int, g: int) -> int:
        """Equivalence ``f <-> g``."""
        return self.apply_not(self.apply_xor(f, g))

    def apply_implies(self, f: int, g: int) -> int:
        """Implication ``f -> g``."""
        return self.apply_or(self.apply_not(f), g)

    def apply_diff(self, f: int, g: int) -> int:
        """Set difference ``f & ~g`` (reads naturally on state sets)."""
        return self.apply_and(f, self.apply_not(g))

    # ------------------------------------------------------------------
    # Quantification
    # ------------------------------------------------------------------

    def _levels_of(self, variables: Iterable[int]) -> List[int]:
        """Sorted levels of the given variable ids (the backend currency)."""
        return sorted(self._var2level[v] for v in variables)

    def exists(self, f: int, variables: Sequence[int]) -> int:
        """Existential quantification of ``variables`` (ids) out of ``f``."""
        if not variables:
            return f
        return self.backend.exists_levels(f, self._levels_of(variables))

    def forall(self, f: int, variables: Sequence[int]) -> int:
        """Universal quantification of ``variables`` (ids) out of ``f``."""
        if not variables:
            return f
        return self.backend.forall_levels(f, self._levels_of(variables))

    def and_exists(self, f: int, g: int, variables: Sequence[int]) -> int:
        """Relational product ``exists variables . (f & g)`` in one pass.

        This is the workhorse of symbolic image computation; fusing the
        conjunction with the quantification avoids building the (often huge)
        intermediate ``f & g``.
        """
        if not variables:
            return self.apply_and(f, g)
        return self.backend.and_exists_levels(f, g, self._levels_of(variables))

    def and_exists_chain(
        self,
        f: int,
        steps: Sequence[Tuple[int, Sequence[int]]],
    ) -> int:
        """Multi-conjunct relational product executing a quantification schedule.

        Computes ``exists (union of all step variables) . (f & g1 & ... & gk)``
        by folding one conjunct at a time::

            acc = f
            for (g_i, vars_i) in steps:
                acc = exists vars_i . (acc & g_i)

        This is only equal to quantifying everything at the end when the
        schedule is *legal*: a variable listed at step ``i`` must not occur
        in any later conjunct ``g_j`` (``j > i``).  Callers obtain legal
        schedules from :mod:`repro.fsm.partition`, which places each
        variable at its earliest legal step (early quantification).  The
        payoff is that the monolithic ``g1 & ... & gk`` — often the largest
        BDD of a model-checking run — is never built.
        """
        result = f
        executed = 0
        self._chain_runs += 1
        if len(steps) > self._chain_max_len:
            self._chain_max_len = len(steps)
        for conjunct, variables in steps:
            executed += 1
            result = self.and_exists(result, conjunct, variables)
            if result == FALSE:
                break
        self._chain_steps += executed
        return result

    # ------------------------------------------------------------------
    # Cofactor / composition / renaming
    # ------------------------------------------------------------------

    def restrict(self, f: int, var: int, value: bool) -> int:
        """Cofactor of ``f`` with variable id ``var`` fixed to ``value``."""
        return self.cofactor(f, {var: value})

    def cofactor(self, f: int, assignment: Dict[int, bool]) -> int:
        """Cofactor of ``f`` with each variable id in ``assignment`` fixed to
        its value — one pass over ``f``, however many variables are fixed."""
        return self.backend.restrict_levels(
            f, {self._var2level[var]: value for var, value in assignment.items()}
        )

    def compose(self, f: int, var: int, g: int) -> int:
        """Substitute function ``g`` for variable id ``var`` inside ``f``."""
        return self.compose_many(f, {var: g})

    def compose_many(self, f: int, substitution: Dict[int, int]) -> int:
        """Simultaneous substitution ``{var id -> replacement node}``.

        Simultaneity matters: ``compose_many(f, {x: y, y: x})`` swaps the two
        variables, which sequential composition would not.
        """
        if not substitution:
            return f
        by_level = {self._var2level[v]: g for v, g in substitution.items()}
        return self.backend.compose_levels(f, by_level)

    def rename(self, f: int, mapping: Dict[int, int]) -> int:
        """Rename variables of ``f`` according to ``{old var id -> new var id}``.

        Only the *support* of ``f`` matters: when the level map restricted to
        the support is strictly order-preserving (true for the interleaved
        current<->next FSM encoding), a fast direct rebuild is used;
        otherwise this falls back to simultaneous composition, which is
        always correct.
        """
        if not mapping or f <= TRUE:
            return f
        level_map = {
            self._var2level[old]: self._var2level[new]
            for old, new in mapping.items()
        }
        support_levels = sorted(self._var2level[v] for v in self.support(f))
        mapped = [level_map.get(level, level) for level in support_levels]
        monotone = all(mapped[i] < mapped[i + 1] for i in range(len(mapped) - 1))
        if monotone:
            return self.backend.rename_monotone(f, level_map)
        substitution = {
            old: self.backend.mk(self._var2level[new], FALSE, TRUE)
            for old, new in mapping.items()
        }
        return self.compose_many(f, substitution)

    # ------------------------------------------------------------------
    # Satisfying assignments
    # ------------------------------------------------------------------

    def satcount(self, f: int, variables: Optional[Sequence[int]] = None) -> int:
        """Number of satisfying assignments of ``f`` over ``variables``.

        ``variables`` (variable ids) defaults to all declared variables and
        must include the support of ``f``.  Variables skipped on a BDD path
        contribute a factor of two each.  The variable set need not be a
        contiguous block of levels — state variables interleaved with
        next-state variables count correctly.
        """
        if variables is None:
            variables = range(self.num_vars)
        levels = self._levels_of(variables)
        if f == FALSE:
            return 0
        if f == TRUE:
            return 1 << len(levels)
        level_set = set(levels)
        for var in self.support(f):
            if self._var2level[var] not in level_set:
                raise BDDError(
                    f"satcount: function depends on {self._var_names[var]!r} "
                    "which is outside the counting variables"
                )
        return self.backend.satcount_levels(f, levels)

    def support(self, f: int) -> List[int]:
        """Variable ids (sorted by level) that ``f`` structurally depends on."""
        return [
            self._level2var[level] for level in self.backend.support_levels(f)
        ]

    def iter_cubes(self, f: int) -> Iterator[Dict[int, bool]]:
        """Yield the cubes (partial assignments ``{var id: bool}``) of ``f``.

        Each cube corresponds to one path from the root to TRUE; variables
        skipped on the path are omitted (don't-cares).  The root is pinned
        against garbage collection for the iterator's lifetime, so consumers
        may freely interleave other BDD work (which may hit GC safe points)
        with the enumeration.
        """
        if f == FALSE:
            return
        self._pin(f)
        try:
            level2var = self._level2var
            for path in self.backend.iter_cube_paths(f):
                yield {level2var[level]: value for level, value in path}
        finally:
            self._unpin(f)

    def iter_sat(self, f: int, variables: Sequence[int]) -> Iterator[Dict[int, bool]]:
        """Yield complete assignments over ``variables`` satisfying ``f``.

        ``f`` must not depend on variables outside ``variables``.
        """
        var_set = set(variables)
        for var in self.support(f):
            if var not in var_set:
                raise BDDError(
                    f"function depends on {self._var_names[var]!r} which is "
                    "not among the enumeration variables"
                )
        ordered = sorted(variables, key=lambda v: self._var2level[v])
        for cube in self.iter_cubes(f):
            free = [v for v in ordered if v not in cube]
            for bits in range(1 << len(free)):
                assignment = dict(cube)
                for i, v in enumerate(free):
                    assignment[v] = bool((bits >> i) & 1)
                yield assignment

    def pick_sat(self, f: int, variables: Sequence[int]) -> Optional[Dict[int, bool]]:
        """Return one satisfying assignment over ``variables`` or ``None``.

        The result assigns **exactly** the requested ``variables`` (support
        variables outside ``variables`` are projected away): it is the
        restriction to ``variables`` of some full satisfying assignment of
        ``f``, with don't-care variables defaulting to ``False``.
        """
        if f == FALSE:
            return None
        cube = next(self.iter_cubes(f))
        return {v: cube.get(v, False) for v in variables}

    def eval_node(self, f: int, assignment: Dict[int, bool]) -> bool:
        """Evaluate ``f`` under a complete assignment ``{var id: bool}``."""
        backend = self.backend
        node = f
        while node > TRUE:
            var = self._level2var[backend.level_of(node)]
            try:
                value = assignment[var]
            except KeyError:
                raise BDDError(
                    f"assignment missing variable {self._var_names[var]!r}"
                ) from None
            node = backend.high_of(node) if value else backend.low_of(node)
        return node == TRUE

    def cube(self, assignment: Dict[int, bool]) -> int:
        """Build the conjunction-of-literals node for ``{var id: bool}``."""
        return self.backend.cube_levels(
            {self._var2level[var]: value for var, value in assignment.items()}
        )

    # ------------------------------------------------------------------
    # Cache & garbage management
    # ------------------------------------------------------------------

    def register_external(self, obj) -> None:
        """Track a wrapper object whose ``node`` attribute must stay live."""
        external = self._external
        key = id(obj)

        def _drop(_ref, _key=key, _external=external):
            _external.pop(_key, None)

        external[key] = weakref.ref(obj, _drop)

    def _pin(self, node: int) -> None:
        """Protect ``node`` (and its cone) from GC until :meth:`_unpin`."""
        self._pinned[node] = self._pinned.get(node, 0) + 1

    def _unpin(self, node: int) -> None:
        count = self._pinned.get(node, 0) - 1
        if count > 0:
            self._pinned[node] = count
        else:
            self._pinned.pop(node, None)

    def set_policy(self, policy: ResourcePolicy) -> None:
        """Install a new resource policy and re-arm its triggers."""
        self.policy = policy
        self.backend.compose_generations = policy.compose_generations
        self._gc_trigger = policy.gc_node_threshold
        self._reorder_trigger = policy.reorder_node_threshold

    def cache_entry_count(self) -> int:
        """Combined entry count of all operation caches."""
        return self.backend.cache_entry_count()

    def checkpoint(self) -> None:
        """Safe-point hook of the automatic resource manager.

        Called whenever a :class:`~repro.bdd.function.Function` wrapper is
        created — the one moment when every intermediate the caller still
        needs is wrapper-rooted and no raw-node traversal is in flight (the
        manager's own operators never create wrappers mid-computation).
        Runs auto-GC / cache eviction / the opt-in auto-sift hook when the
        policy's thresholds are crossed; cheap (a few integer compares)
        otherwise.
        """
        if self._in_checkpoint:
            return
        count = self._note_peak()
        policy = self.policy
        self._in_checkpoint = True
        try:
            if (
                policy.auto_reorder
                and count >= self._reorder_trigger
                # Reordering rewrites nodes in place; never do it while a
                # cube iterator is walking the graph.
                and not self._pinned
            ):
                from .reorder import sift  # local import: reorder imports us

                sift(self, max_vars=policy.reorder_max_vars or None)
                self._reorder_runs += 1
                live = self.node_count()
                self._reorder_trigger = max(
                    policy.reorder_node_threshold,
                    int(live * policy.reorder_growth) + 1,
                )
                count = live
            if policy.gc_enabled and count >= self._gc_trigger:
                self.collect_garbage()
                live = self.node_count()
                self._gc_trigger = max(
                    policy.gc_node_threshold, int(live * policy.gc_growth)
                )
            elif (
                policy.cache_entry_threshold
                and self.cache_entry_count() >= policy.cache_entry_threshold
            ):
                self.clear_caches()
        finally:
            self._in_checkpoint = False

    def clear_caches(self) -> None:
        """Drop all operation caches (automatically done by GC/reorder)."""
        self.backend.clear_caches()

    def _gc_roots(self, extra_roots: Iterable[int] = ()) -> set:
        """The root set: live wrappers, pins, literals, ``extra_roots``."""
        roots = set(extra_roots)
        for ref in list(self._external.values()):
            obj = ref()
            if obj is not None:
                roots.add(obj.node)
        roots.update(self._pinned)
        backend = self.backend
        for var in range(self.num_vars):
            node = backend.find(self._var2level[var], FALSE, TRUE)
            if node is not None:
                roots.add(node)
        return roots

    def collect_garbage(self, extra_roots: Iterable[int] = ()) -> int:
        """Mark-and-sweep: recycle nodes unreachable from live references.

        Roots are the nodes of all live :class:`Function` wrappers, all
        single-variable nodes, all pinned nodes (in-flight enumerations),
        and ``extra_roots``.  Returns the number of node slots freed.  All
        operation caches are invalidated (unless nothing was freed — a
        no-op sweep just proved every cached operand live).
        """
        started = time.perf_counter()
        self._note_peak()
        freed = self.backend.collect(self._gc_roots(extra_roots))
        self._gc_runs += 1
        self._gc_freed_total += freed
        self._gc_seconds += time.perf_counter() - started
        return freed

    def live_node_count(self, extra_roots: Iterable[int] = ()) -> int:
        """Nodes reachable from live references (terminals included).

        Marks from the same root set as :meth:`collect_garbage` without
        sweeping — the size measure dynamic reordering optimises (the raw
        unique-table size would count dead-but-uncollected nodes and skew
        placement decisions).
        """
        return self.backend.live_count(self._gc_roots(extra_roots))

    # ------------------------------------------------------------------
    # Resource statistics
    # ------------------------------------------------------------------

    @property
    def gc_runs(self) -> int:
        """Number of completed garbage collections (manual + automatic)."""
        return self._gc_runs

    @property
    def gc_seconds(self) -> float:
        """Total wall-clock time spent inside garbage collection."""
        return self._gc_seconds

    def _note_peak(self) -> int:
        """Fold the current node count into the stored high-water mark.

        Called at the manager's own observation points (safe points, GC
        entry).  Returns the current count so callers need not recompute it.
        """
        count = self.backend.node_count()
        if count > self._peak_nodes:
            self._peak_nodes = count
        return count

    @property
    def peak_nodes(self) -> int:
        """High-water mark of the live node count.

        Reading is side-effect free: the returned value folds in the
        current live count without storing it, so stats snapshots (which
        may run at arbitrary moments) never mutate manager state.  The
        stored mark is advanced only at the manager's own observation
        points (:meth:`checkpoint`, :meth:`collect_garbage`).
        """
        count = self.backend.node_count()
        peak = self._peak_nodes
        return count if count > peak else peak

    @property
    def reorder_runs(self) -> int:
        """Number of completed automatic reordering passes."""
        return self._reorder_runs

    @property
    def gc_freed(self) -> int:
        """Total node slots recycled across all collections."""
        return self._gc_freed_total

    def resource_stats(self) -> Dict[str, float]:
        """Every resource and op-level counter as one JSON-friendly dict.

        This is *the* counter schema: :class:`~repro.mc.stats.WorkMeter`
        deltas it across phases, ``repro.obs`` spans snapshot it at span
        boundaries, and ``repro bench`` baselines persist it — the names
        below appear verbatim in suite JSON, trace exports, and
        ``BENCH_*.json`` files (see ``docs/observability.md``).  Reading it
        never mutates manager state.  The kernel counters come from
        :meth:`BDDBackend.counters`.
        """
        kernel = self.backend.counters()
        return {
            # Node-store gauges and totals.
            "nodes_live": self.node_count(),
            "peak_live_nodes": self.peak_nodes,
            "nodes_created": kernel["nodes_created"],
            # Resource-manager activity.
            "gc_runs": self._gc_runs,
            "gc_freed": self._gc_freed_total,
            "gc_seconds": self._gc_seconds,
            "reorder_runs": self._reorder_runs,
            "cache_entries": self.cache_entry_count(),
            # Unique-table (hash-consing) pressure.
            "unique_probes": kernel["unique_probes"],
            "unique_hits": kernel["unique_hits"],
            # Op-cache hits/misses per operation kind.
            "ite_hits": kernel["ite_hits"],
            "ite_misses": kernel["ite_misses"],
            "and_hits": kernel["and_hits"],
            "and_misses": kernel["and_misses"],
            "or_hits": kernel["or_hits"],
            "or_misses": kernel["or_misses"],
            "xor_hits": kernel["xor_hits"],
            "xor_misses": kernel["xor_misses"],
            "not_hits": kernel["not_hits"],
            "not_misses": kernel["not_misses"],
            "quant_hits": kernel["quant_hits"],
            "quant_misses": kernel["quant_misses"],
            "restrict_hits": kernel["restrict_hits"],
            "restrict_misses": kernel["restrict_misses"],
            "relprod_hits": kernel["relprod_hits"],
            "relprod_misses": kernel["relprod_misses"],
            "compose_hits": kernel["compose_hits"],
            "compose_misses": kernel["compose_misses"],
            # Relational-product chain shape (and_exists_chain).
            "chain_runs": self._chain_runs,
            "chain_steps": self._chain_steps,
            "chain_max_len": self._chain_max_len,
        }

    # ------------------------------------------------------------------
    # Debugging helpers
    # ------------------------------------------------------------------

    def to_expr_str(self, f: int, max_nodes: int = 64) -> str:
        """Small human-readable rendering (sum of cubes), for debugging."""
        if f == FALSE:
            return "FALSE"
        if f == TRUE:
            return "TRUE"
        terms = []
        for i, cube in enumerate(self.iter_cubes(f)):
            if i >= max_nodes:
                terms.append("...")
                break
            literals = [
                self._var_names[var] if value else f"!{self._var_names[var]}"
                for var, value in sorted(
                    cube.items(), key=lambda kv: self._var2level[kv[0]]
                )
            ]
            terms.append(" & ".join(literals) if literals else "TRUE")
        return " | ".join(terms)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<BDDManager vars={self.num_vars} nodes={self.node_count()} "
            f"backend={self.backend.name!r} created={self.created_nodes}>"
        )
