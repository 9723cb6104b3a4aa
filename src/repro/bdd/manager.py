"""A self-contained reduced ordered binary decision diagram (ROBDD) engine.

This module provides the symbolic substrate that the DAC'99 coverage paper
gets from SMV's BDD package: hash-consed nodes, the ``ite`` operator with
memoisation, specialised binary operators, existential/universal
quantification, relational products (``and_exists``), functional composition,
variable renaming, satisfying-assignment counting and enumeration.

:class:`BDDManager` is the node store: parallel Python lists for the node
fields, one unique-table dict per level, one dict per operation cache, and
the kernels that work on them.  Around the store it keeps variable naming,
external root tracking for the
:class:`~repro.bdd.function.Function` wrappers, pinning for in-flight
enumerations, the :class:`~repro.bdd.policy.ResourcePolicy` safe points
(:meth:`BDDManager.checkpoint`), and the :meth:`BDDManager.resource_stats`
schema.

Every unique-table and op-cache key is one int of 32-bit fields:
``(low << 32) | high`` in the table of the node's level, ``(f << 32) | g``
in the and, or and xor caches, three fields in the ite, quantification,
relational-product and compose caches (layouts in ``__init__``).  Node ids
and profile ids are list indices, far below 2**32; the topmost field of a
key may be any size (the compose token only ever grows), so every packing
is injective.  CPython's cyclic garbage collector never tracks an int, nor
a dict holding only ints, so its collections never walk the tables — a
tuple key would be a GC-tracked 64-byte object per entry.  Only this
module knows the layout.

Nodes are integers; the two terminals are the reserved node ids ``0``
(FALSE) and ``1`` (TRUE).  The variable order is fixed when the variables
are declared: a variable's id is its level (the first declared is topmost),
so each node stores its variable's id and the kernels compare ids to find
the top variable.  Callers choose the order by declaring in it
(:func:`~repro.fsm.builder.build_fsm` derives it from the next-state logic).  Every
kernel is **iterative** (explicit work stacks), so the engine's depth limit
is available memory, not Python's recursion limit: a 1400-level BDD chain
is as routine as a 14-level one.

The kernels produce canonical ROBDDs, exact satcounts, and cube enumeration
in the canonical low-first order — coverage verdicts, percentages, and
trace renderings depend on all three (checked against brute-force truth
tables by ``tests/bdd/test_backend_conformance.py``).  Memoisation is
exact: every computed sub-result is cached until an explicit cache clear,
which is what makes the work counters — nodes created, unique probes,
op-cache hits/misses — deterministic enough to gate in the committed bench
baselines.

The user-facing wrapper with operator overloading lives in
:mod:`repro.bdd.function`; this module works on raw node ids and is the
layer the FSM/model-checking code talks to for performance.
"""

from __future__ import annotations

import time
import weakref
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import BDDError
from .policy import DEFAULT_POLICY, ResourcePolicy

__all__ = ["BDDManager", "FALSE", "TRUE", "TERMINAL_LEVEL"]

#: Pseudo-level assigned to the two terminal nodes; orders after any variable.
TERMINAL_LEVEL = 1 << 30

#: Reserved node ids for the constant functions.
FALSE = 0
TRUE = 1

#: The compose cache is keyed by a per-substitution token, so entries from
#: finished ``compose_many`` calls can never be hit again; it is purged
#: after this many substitution generations.
COMPOSE_GENERATIONS = 8

# Binary operators; each indexes its own cache and hit/miss counters.
_OP_AND = 0
_OP_OR = 1
_OP_XOR = 2

# Frame phases of the iterative relational product.
_AE_EXPAND = 0
_AE_AFTER_LOW = 1
_AE_AFTER_HIGH = 2
_AE_AFTER_BOTH = 3


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
        Resource-management thresholds (automatic GC, cache caps).
        Defaults to
        :data:`~repro.bdd.policy.DEFAULT_POLICY`.
    """

    def __init__(
        self,
        var_names: Optional[Iterable[str]] = None,
        policy: Optional[ResourcePolicy] = None,
    ):
        # Parallel node arrays; slots 0/1 are the terminals.  The terminal
        # low/high fields are never read but keep the arrays aligned.
        self._level: List[int] = [TERMINAL_LEVEL, TERMINAL_LEVEL]
        self._low: List[int] = [FALSE, TRUE]
        self._high: List[int] = [FALSE, TRUE]
        # Hash-consing tables, one per level (appended by add_var):
        # (low << 32) | high -> node id.
        self._unique: List[Dict[int, int]] = []
        # Recycled node slots (filled by garbage collection).
        self._free: List[int] = []

        # Operation caches, keyed by packed ints (see the module docstring):
        #   ite         (f << 64) | (g << 32) | h
        #   and/or/xor  one dict per _OP_* index: (f << 32) | g, f <= g
        #   not         f
        #   quant       (tag << 64) | (profile << 32) | f, tag 1 for forall
        #   relprod     (profile << 64) | (f << 32) | g, f <= g
        #   compose     (token << 32) | f
        self._ite_cache: Dict[int, int] = {}
        self._bin_caches: List[Dict[int, int]] = [{}, {}, {}]
        self._not_cache: Dict[int, int] = {}
        self._quant_cache: Dict[int, int] = {}
        self._relprod_cache: Dict[int, int] = {}
        self._compose_cache: Dict[int, int] = {}
        self._compose_token = 0
        self._compose_purged_token = 0
        # Registered quantification profiles: canonical tuple of levels -> id.
        self._quant_profiles: Dict[Tuple[int, ...], int] = {}
        self._quant_profile_sets: List[frozenset] = []
        self._quant_profile_max: List[int] = []

        # Kernel counters (see :meth:`resource_stats`).  All of them measure
        # *work*, never results: deterministic for a given operation
        # sequence, monotone, and cheap.
        self._created_nodes = 2
        self._ite_hits = 0
        self._ite_misses = 0
        self._bin_hits = [0, 0, 0]  # indexed by _OP_AND/_OP_OR/_OP_XOR
        self._bin_misses = [0, 0, 0]
        self._not_hits = 0
        self._not_misses = 0
        self._quant_hits = 0
        self._quant_misses = 0
        self._restrict_hits = 0
        self._restrict_misses = 0
        self._relprod_hits = 0
        self._relprod_misses = 0
        self._compose_hits = 0
        self._compose_misses = 0
        # Unique-table (hash-consing) pressure: probes are mk lookups that
        # reached the table (the reduce rule short-circuits before
        # probing); hits found an existing node, so probes - hits equals
        # nodes created.
        self._unique_probes = 0
        self._unique_hits = 0

        # Variable bookkeeping.  A variable's id is its level in the order.
        self._var_names: List[str] = []
        self._name_to_var: Dict[str, int] = {}

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
        self._gc_trigger = self.policy.gc_node_threshold
        self._in_checkpoint = False

        # Resource-manager statistics.
        self._gc_runs = 0
        self._gc_seconds = 0.0
        self._gc_freed_total = 0
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
        self._unique.append({})
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

    @property
    def num_vars(self) -> int:
        """Number of declared variables."""
        return len(self._var_names)

    @property
    def var_names(self) -> List[str]:
        """Names of all declared variables, from the top level down."""
        return list(self._var_names)

    def var(self, name: str) -> int:
        """Return the node for the positive literal of variable ``name``."""
        var = self._name_to_var.get(name)
        if var is None:
            var = self.add_var(name)
        return self._mk(var, FALSE, TRUE)

    def nvar(self, name: str) -> int:
        """Return the node for the negative literal of variable ``name``."""
        var = self._name_to_var.get(name)
        if var is None:
            var = self.add_var(name)
        return self._mk(var, TRUE, FALSE)

    # ------------------------------------------------------------------
    # Node store
    # ------------------------------------------------------------------

    def _mk(self, level: int, low: int, high: int) -> int:
        """Find-or-create the node ``(level, low, high)`` (the reduce rule)."""
        if low == high:
            return low
        key = (low << 32) | high
        table = self._unique[level]
        self._unique_probes += 1
        node = table.get(key)
        if node is not None:
            self._unique_hits += 1
            return node
        if self._free:
            node = self._free.pop()
            self._level[node] = level
            self._low[node] = low
            self._high[node] = high
        else:
            node = len(self._level)
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
        table[key] = node
        self._created_nodes += 1
        return node

    def level_of(self, node: int) -> int:
        """Level of ``node``, which is its variable's id
        (``TERMINAL_LEVEL`` for constants)."""
        return self._level[node]

    def low_of(self, node: int) -> int:
        """Low (else) child of ``node``."""
        return self._low[node]

    def high_of(self, node: int) -> int:
        """High (then) child of ``node``."""
        return self._high[node]

    def node_count(self) -> int:
        """Number of live (non-recycled) nodes including terminals."""
        return len(self._level) - len(self._free)

    @property
    def created_nodes(self) -> int:
        """Total number of nodes ever created (a work measure, akin to the
        paper's "BDD nodes" column in Table 2)."""
        return self._created_nodes

    def size(self, node: int) -> int:
        """Number of DAG nodes reachable from ``node`` (including terminals)."""
        seen = set()
        stack = [node]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            if n > TRUE:
                stack.append(self._low[n])
                stack.append(self._high[n])
        return len(seen)

    # ------------------------------------------------------------------
    # Core operators
    # ------------------------------------------------------------------

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``(f & g) | (~f & h)``, the universal connective."""
        level_arr = self._level
        low_arr = self._low
        high_arr = self._high
        cache = self._ite_cache
        hits = misses = 0
        tasks: List[Tuple[int, int, int, bool]] = [(f, g, h, False)]
        results: List[int] = []
        while tasks:
            f, g, h, combine = tasks.pop()
            if combine:
                high = results.pop()
                low = results.pop()
                level = min(level_arr[f], level_arr[g], level_arr[h])
                result = self._mk(level, low, high)
                cache[(f << 64) | (g << 32) | h] = result
                results.append(result)
                continue
            if f == TRUE:
                results.append(g)
                continue
            if f == FALSE:
                results.append(h)
                continue
            if g == h:
                results.append(g)
                continue
            if g == TRUE and h == FALSE:
                results.append(f)
                continue
            cached = cache.get((f << 64) | (g << 32) | h)
            if cached is not None:
                hits += 1
                results.append(cached)
                continue
            misses += 1
            level = min(level_arr[f], level_arr[g], level_arr[h])
            if level_arr[f] == level:
                f0, f1 = low_arr[f], high_arr[f]
            else:
                f0 = f1 = f
            if level_arr[g] == level:
                g0, g1 = low_arr[g], high_arr[g]
            else:
                g0 = g1 = g
            if level_arr[h] == level:
                h0, h1 = low_arr[h], high_arr[h]
            else:
                h0 = h1 = h
            tasks.append((f, g, h, True))
            tasks.append((f1, g1, h1, False))
            tasks.append((f0, g0, h0, False))
        self._ite_hits += hits
        self._ite_misses += misses
        return results[0]

    def apply_not(self, f: int) -> int:
        """Negation (O(size) without complement edges, memoised)."""
        if f == FALSE:
            return TRUE
        if f == TRUE:
            return FALSE
        cache = self._not_cache
        cached = cache.get(f)
        if cached is not None:
            self._not_hits += 1
            return cached
        level_arr = self._level
        hits = misses = 0
        tasks: List[Tuple[int, bool]] = [(f, False)]
        results: List[int] = []
        while tasks:
            f, combine = tasks.pop()
            if combine:
                high = results.pop()
                low = results.pop()
                result = self._mk(level_arr[f], low, high)
                cache[f] = result
                # Negation is an involution: seed the reverse direction too.
                cache[result] = f
                results.append(result)
                continue
            if f == FALSE:
                results.append(TRUE)
                continue
            if f == TRUE:
                results.append(FALSE)
                continue
            cached = cache.get(f)
            if cached is not None:
                hits += 1
                results.append(cached)
                continue
            misses += 1
            tasks.append((f, True))
            tasks.append((self._high[f], False))
            tasks.append((self._low[f], False))
        self._not_hits += hits
        self._not_misses += misses
        return results[0]

    def _apply_bin(self, op: int, f: int, g: int) -> int:
        """Iterative core shared by the three memoised binary operators."""
        level_arr = self._level
        low_arr = self._low
        high_arr = self._high
        cache = self._bin_caches[op]
        hits = misses = 0
        tasks: List[Tuple[int, int, bool]] = [(f, g, False)]
        results: List[int] = []
        while tasks:
            f, g, combine = tasks.pop()
            if combine:
                high = results.pop()
                low = results.pop()
                lf, lg = level_arr[f], level_arr[g]
                result = self._mk(lf if lf < lg else lg, low, high)
                cache[(f << 32) | g] = result
                results.append(result)
                continue
            # Operator-specific terminal cases (same rules as the classic
            # recursive formulation).
            if op == _OP_AND:
                if f == FALSE or g == FALSE:
                    results.append(FALSE)
                    continue
                if f == TRUE:
                    results.append(g)
                    continue
                if g == TRUE or f == g:
                    results.append(f)
                    continue
            elif op == _OP_OR:
                if f == TRUE or g == TRUE:
                    results.append(TRUE)
                    continue
                if f == FALSE:
                    results.append(g)
                    continue
                if g == FALSE or f == g:
                    results.append(f)
                    continue
            else:  # _OP_XOR
                if f == g:
                    results.append(FALSE)
                    continue
                if f == FALSE:
                    results.append(g)
                    continue
                if g == FALSE:
                    results.append(f)
                    continue
                if f == TRUE:
                    results.append(self.apply_not(g))
                    continue
                if g == TRUE:
                    results.append(self.apply_not(f))
                    continue
            if f > g:  # commutativity-normalised cache
                f, g = g, f
            cached = cache.get((f << 32) | g)
            if cached is not None:
                hits += 1
                results.append(cached)
                continue
            misses += 1
            lf, lg = level_arr[f], level_arr[g]
            level = lf if lf < lg else lg
            if lf == level:
                f0, f1 = low_arr[f], high_arr[f]
            else:
                f0 = f1 = f
            if lg == level:
                g0, g1 = low_arr[g], high_arr[g]
            else:
                g0 = g1 = g
            tasks.append((f, g, True))
            tasks.append((f1, g1, False))
            tasks.append((f0, g0, False))
        self._bin_hits[op] += hits
        self._bin_misses[op] += misses
        return results[0]

    def apply_and(self, f: int, g: int) -> int:
        """Conjunction with a commutativity-normalised cache."""
        return self._apply_bin(_OP_AND, f, g)

    def apply_or(self, f: int, g: int) -> int:
        """Disjunction with a commutativity-normalised cache."""
        return self._apply_bin(_OP_OR, f, g)

    def apply_xor(self, f: int, g: int) -> int:
        """Exclusive or."""
        return self._apply_bin(_OP_XOR, f, g)

    def conjoin(self, nodes: Sequence[int]) -> int:
        """Conjunction of ``nodes`` as a balanced pairwise tree, keeping
        their order.

        When the operands share variables that sit above all the others
        (a pipeline's per-latch cofactors all read the stall input and the
        hold counter), a left fold re-walks the growing product down to
        each new operand; pairing keeps each product small until the last
        few levels of the tree.  No wrapper is created between the
        pairwise ANDs, so no safe point fires mid-tree: the caller keeps
        the operands rooted.
        """
        if not nodes:
            return TRUE
        parts = list(nodes)
        while len(parts) > 1:
            paired = [
                self._apply_bin(_OP_AND, f, g)
                for f, g in zip(parts[0::2], parts[1::2])
            ]
            if len(parts) % 2:
                paired.append(parts[-1])
            parts = paired
        return parts[0]

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

    def _quant_profile(self, variables: Iterable[int]) -> int:
        """Intern the set of ``variables`` (ids) as a small profile id.

        Image computations quantify the same variable sets over and over;
        interning keeps the quantification cache keys small and hashable.
        """
        key = tuple(sorted(variables))
        profile = self._quant_profiles.get(key)
        if profile is None:
            profile = len(self._quant_profile_sets)
            self._quant_profiles[key] = profile
            self._quant_profile_sets.append(frozenset(key))
            self._quant_profile_max.append(max(key) if key else -1)
        return profile

    def _quantify_profile(self, f: int, profile: int, disjunctive: bool) -> int:
        """Iterative quantification core (``exists`` when ``disjunctive``)."""
        level_arr = self._level
        qset = self._quant_profile_sets[profile]
        qmax = self._quant_profile_max[profile]
        cache = self._quant_cache
        # The key's upper fields are fixed for the whole call.
        base = ((0 if disjunctive else 1) << 64) | (profile << 32)
        hits = misses = 0
        tasks: List[Tuple[int, bool]] = [(f, False)]
        results: List[int] = []
        while tasks:
            f, combine = tasks.pop()
            if combine:
                high = results.pop()
                low = results.pop()
                level = level_arr[f]
                if level in qset:
                    if disjunctive:
                        result = self.apply_or(low, high)
                    else:
                        result = self.apply_and(low, high)
                else:
                    result = self._mk(level, low, high)
                cache[base | f] = result
                results.append(result)
                continue
            if f <= TRUE or level_arr[f] > qmax:
                results.append(f)
                continue
            cached = cache.get(base | f)
            if cached is not None:
                hits += 1
                results.append(cached)
                continue
            misses += 1
            tasks.append((f, True))
            tasks.append((self._high[f], False))
            tasks.append((self._low[f], False))
        self._quant_hits += hits
        self._quant_misses += misses
        return results[0]

    def exists(self, f: int, variables: Sequence[int]) -> int:
        """Existential quantification of ``variables`` (ids) out of ``f``."""
        if not variables:
            return f
        profile = self._quant_profile(variables)
        return self._quantify_profile(f, profile, disjunctive=True)

    def forall(self, f: int, variables: Sequence[int]) -> int:
        """Universal quantification of ``variables`` (ids) out of ``f``."""
        if not variables:
            return f
        profile = self._quant_profile(variables)
        return self._quantify_profile(f, profile, disjunctive=False)

    def and_exists(self, f: int, g: int, variables: Sequence[int]) -> int:
        """Relational product ``exists variables . (f & g)`` in one pass.

        This is the workhorse of symbolic image computation; fusing the
        conjunction with the quantification avoids building the (often huge)
        intermediate ``f & g``.
        """
        if not variables:
            return self.apply_and(f, g)
        profile = self._quant_profile(variables)
        level_arr = self._level
        low_arr = self._low
        high_arr = self._high
        qset = self._quant_profile_sets[profile]
        qmax = self._quant_profile_max[profile]
        cache = self._relprod_cache
        base = profile << 64
        # Frames: (phase, a, b, c, d).  EXPAND carries (f, g); AFTER_LOW
        # carries (f, g, f1, g1) — the pending high cofactors, expanded only
        # when the low branch did not already decide the disjunction;
        # AFTER_HIGH carries (f, g, low); AFTER_BOTH carries (f, g).
        hits = misses = 0
        tasks: List[Tuple[int, int, int, int, int]] = [
            (_AE_EXPAND, f, g, 0, 0)
        ]
        results: List[int] = []
        while tasks:
            phase, f, g, c, d = tasks.pop()
            if phase == _AE_EXPAND:
                if f == FALSE or g == FALSE:
                    results.append(FALSE)
                    continue
                if f == TRUE and g == TRUE:
                    results.append(TRUE)
                    continue
                if f == TRUE:
                    results.append(
                        self._quantify_profile(g, profile, disjunctive=True)
                    )
                    continue
                if g == TRUE or f == g:
                    results.append(
                        self._quantify_profile(f, profile, disjunctive=True)
                    )
                    continue
                if level_arr[f] > qmax and level_arr[g] > qmax:
                    results.append(self.apply_and(f, g))
                    continue
                if f > g:
                    f, g = g, f
                cached = cache.get(base | (f << 32) | g)
                if cached is not None:
                    hits += 1
                    results.append(cached)
                    continue
                misses += 1
                lf, lg = level_arr[f], level_arr[g]
                level = lf if lf < lg else lg
                if lf == level:
                    f0, f1 = low_arr[f], high_arr[f]
                else:
                    f0 = f1 = f
                if lg == level:
                    g0, g1 = low_arr[g], high_arr[g]
                else:
                    g0 = g1 = g
                if level in qset:
                    # Quantified level: compute the low branch first and
                    # short-circuit the high branch when it is already TRUE.
                    tasks.append((_AE_AFTER_LOW, f, g, f1, g1))
                    tasks.append((_AE_EXPAND, f0, g0, 0, 0))
                else:
                    tasks.append((_AE_AFTER_BOTH, f, g, 0, 0))
                    tasks.append((_AE_EXPAND, f1, g1, 0, 0))
                    tasks.append((_AE_EXPAND, f0, g0, 0, 0))
            elif phase == _AE_AFTER_LOW:
                low = results.pop()
                if low == TRUE:
                    cache[base | (f << 32) | g] = TRUE
                    results.append(TRUE)
                    continue
                tasks.append((_AE_AFTER_HIGH, f, g, low, 0))
                tasks.append((_AE_EXPAND, c, d, 0, 0))
            elif phase == _AE_AFTER_HIGH:
                high = results.pop()
                result = self.apply_or(c, high)
                cache[base | (f << 32) | g] = result
                results.append(result)
            else:  # _AE_AFTER_BOTH
                high = results.pop()
                low = results.pop()
                lf, lg = level_arr[f], level_arr[g]
                result = self._mk(lf if lf < lg else lg, low, high)
                cache[base | (f << 32) | g] = result
                results.append(result)
        self._relprod_hits += hits
        self._relprod_misses += misses
        return results[0]

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
        if not assignment:
            return f
        level_arr = self._level
        low_arr = self._low
        high_arr = self._high
        bottom = max(assignment)
        # The assignment is fixed for the whole call, so a node's result
        # depends on the node alone: a per-call memo is exact, and no
        # entry of it could be hit by a later call with another cube.
        memo: Dict[int, int] = {}
        hits = misses = 0
        tasks: List[Tuple[int, bool]] = [(f, False)]
        results: List[int] = []
        while tasks:
            f, combine = tasks.pop()
            if combine:
                high = results.pop()
                low = results.pop()
                result = self._mk(level_arr[f], low, high)
                memo[f] = result
                results.append(result)
                continue
            # A fixed variable is replaced by its chosen child, which
            # needs no frame of its own.
            value = assignment.get(level_arr[f])
            while value is not None:
                f = high_arr[f] if value else low_arr[f]
                value = assignment.get(level_arr[f])
            if f <= TRUE or level_arr[f] > bottom:
                results.append(f)
                continue
            cached = memo.get(f)
            if cached is not None:
                hits += 1
                results.append(cached)
                continue
            misses += 1
            tasks.append((f, True))
            tasks.append((high_arr[f], False))
            tasks.append((low_arr[f], False))
        self._restrict_hits += hits
        self._restrict_misses += misses
        return results[0]

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
        # A fresh token keys this substitution in the (shared) compose
        # cache.  Entries of previous tokens can never be hit again; purge
        # them once COMPOSE_GENERATIONS generations have accumulated.
        self._compose_token += 1
        if self._compose_token - self._compose_purged_token >= COMPOSE_GENERATIONS:
            self._compose_cache.clear()
            self._compose_purged_token = self._compose_token
        level_arr = self._level
        max_level = max(substitution)
        base = self._compose_token << 32
        cache = self._compose_cache
        hits = misses = 0
        tasks: List[Tuple[int, bool]] = [(f, False)]
        results: List[int] = []
        while tasks:
            f, combine = tasks.pop()
            if combine:
                high = results.pop()
                low = results.pop()
                level = level_arr[f]
                replacement = substitution.get(level)
                if replacement is None:
                    replacement = self._mk(level, FALSE, TRUE)
                result = self.ite(replacement, high, low)
                cache[base | f] = result
                results.append(result)
                continue
            if f <= TRUE or level_arr[f] > max_level:
                results.append(f)
                continue
            cached = cache.get(base | f)
            if cached is not None:
                hits += 1
                results.append(cached)
                continue
            misses += 1
            tasks.append((f, True))
            tasks.append((self._high[f], False))
            tasks.append((self._low[f], False))
        self._compose_hits += hits
        self._compose_misses += misses
        return results[0]

    def rename(self, f: int, mapping: Dict[int, int]) -> int:
        """Rename variables of ``f`` according to ``{old var id -> new var id}``.

        Only the *support* of ``f`` matters: when the mapping restricted to
        the support is strictly order-preserving (true for the interleaved
        current<->next FSM encoding), a fast direct rebuild is used;
        otherwise this falls back to simultaneous composition, which is
        always correct.
        """
        if not mapping or f <= TRUE:
            return f
        mapped = [mapping.get(var, var) for var in self.support(f)]
        if not all(mapped[i] < mapped[i + 1] for i in range(len(mapped) - 1)):
            substitution = {
                old: self._mk(new, FALSE, TRUE) for old, new in mapping.items()
            }
            return self.compose_many(f, substitution)
        level_arr = self._level
        cache: Dict[int, int] = {}
        tasks: List[Tuple[int, bool]] = [(f, False)]
        results: List[int] = []
        while tasks:
            f, combine = tasks.pop()
            if combine:
                high = results.pop()
                low = results.pop()
                level = level_arr[f]
                result = self._mk(mapping.get(level, level), low, high)
                cache[f] = result
                results.append(result)
                continue
            if f <= TRUE:
                results.append(f)
                continue
            cached = cache.get(f)
            if cached is not None:
                results.append(cached)
                continue
            tasks.append((f, True))
            tasks.append((self._high[f], False))
            tasks.append((self._low[f], False))
        return results[0]

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
        levels = sorted(variables)
        if f == FALSE:
            return 0
        if f == TRUE:
            return 1 << len(levels)
        rank = {lvl: i for i, lvl in enumerate(levels)}
        for level in self.support(f):
            if level not in rank:
                raise BDDError(
                    f"satcount: function depends on {self._var_names[level]!r} "
                    "which is outside the counting variables"
                )
        n = len(rank)
        level_arr = self._level
        low_arr = self._low
        high_arr = self._high
        memo: Dict[int, int] = {FALSE: 0, TRUE: 1}
        # Counts are over the counting-levels at ranks >= rank(level(node));
        # a child skipping ranks contributes a factor of two per skipped rank.
        tasks: List[Tuple[int, bool]] = [(f, False)]
        while tasks:
            node, combine = tasks.pop()
            if combine:
                r = rank[level_arr[node]]
                low, high = low_arr[node], high_arr[node]
                low_rank = rank[level_arr[low]] if low > TRUE else n
                high_rank = rank[level_arr[high]] if high > TRUE else n
                memo[node] = (memo[low] << (low_rank - r - 1)) + (
                    memo[high] << (high_rank - r - 1)
                )
                continue
            if node in memo:
                continue
            tasks.append((node, True))
            tasks.append((high_arr[node], False))
            tasks.append((low_arr[node], False))
        return memo[f] << rank[level_arr[f]]

    def support(self, f: int) -> List[int]:
        """Variable ids (sorted, i.e. by level) that ``f`` structurally
        depends on."""
        seen = set()
        levels = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            levels.add(self._level[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        return sorted(levels)

    def iter_cubes(self, f: int) -> Iterator[Dict[int, bool]]:
        """Yield the cubes (partial assignments ``{var id: bool}``) of ``f``.

        Each cube corresponds to one path from the root to TRUE; variables
        skipped on the path are omitted (don't-cares).  Cubes come in the
        canonical low-first DFS order (trace rendering depends on it).  The
        root is pinned against garbage collection for the iterator's
        lifetime, so consumers may freely interleave other BDD work (which
        may hit GC safe points) with the enumeration.
        """
        if f == FALSE:
            return
        self._pin(f)
        try:
            path: List[Tuple[int, bool]] = []
            # Each entry: (node, path length to truncate to, level of the
            # literal to append first — or -1 for the root).  Low branches
            # are pushed last so they are explored first.
            stack: List[Tuple[int, int, int, bool]] = [(f, 0, -1, False)]
            while stack:
                node, plen, level, value = stack.pop()
                del path[plen:]
                if level >= 0:
                    path.append((level, value))
                if node == FALSE:
                    continue
                if node == TRUE:
                    yield dict(path)
                    continue
                lvl = self._level[node]
                depth = len(path)
                stack.append((self._high[node], depth, lvl, True))
                stack.append((self._low[node], depth, lvl, False))
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
        ordered = sorted(variables)
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
        node = f
        while node > TRUE:
            var = self._level[node]
            try:
                value = assignment[var]
            except KeyError:
                raise BDDError(
                    f"assignment missing variable {self._var_names[var]!r}"
                ) from None
            node = self._high[node] if value else self._low[node]
        return node == TRUE

    def cube(self, assignment: Dict[int, bool]) -> int:
        """Build the conjunction-of-literals node for ``{var id: bool}``."""
        result = TRUE
        for level in sorted(assignment, reverse=True):
            if assignment[level]:
                result = self._mk(level, FALSE, result)
            else:
                result = self._mk(level, result, FALSE)
        return result

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

    def cache_entry_count(self) -> int:
        """Combined entry count of all operation caches."""
        return (
            len(self._ite_cache)
            + sum(len(cache) for cache in self._bin_caches)
            + len(self._not_cache)
            + len(self._quant_cache)
            + len(self._relprod_cache)
            + len(self._compose_cache)
        )

    def checkpoint(self) -> None:
        """Safe-point hook of the automatic resource manager.

        Called whenever a :class:`~repro.bdd.function.Function` wrapper is
        created — the one moment when every intermediate the caller still
        needs is wrapper-rooted and no raw-node traversal is in flight (the
        manager's own operators never create wrappers mid-computation).
        Runs auto-GC / cache eviction when the policy's thresholds are
        crossed; cheap (a few integer compares) otherwise.
        """
        if self._in_checkpoint:
            return
        count = self._note_peak()
        policy = self.policy
        self._in_checkpoint = True
        try:
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
        """Drop all operation caches (automatically done by GC)."""
        self._ite_cache.clear()
        for cache in self._bin_caches:
            cache.clear()
        self._not_cache.clear()
        self._quant_cache.clear()
        self._relprod_cache.clear()
        self._compose_cache.clear()
        self._compose_purged_token = self._compose_token

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
        roots = set(extra_roots)
        for ref in list(self._external.values()):
            obj = ref()
            if obj is not None:
                roots.add(obj.node)
        roots.update(self._pinned)
        for table in self._unique:
            node = table.get((FALSE << 32) | TRUE)
            if node is not None:
                roots.add(node)
        marked = {FALSE, TRUE}
        stack = [r for r in roots if r > TRUE]
        while stack:
            node = stack.pop()
            if node in marked:
                continue
            marked.add(node)
            stack.append(self._low[node])
            stack.append(self._high[node])
        free = self._free
        freed = 0
        for table in self._unique:
            # A dense GC schedule frees few nodes: skip the levels that lost
            # none with one scan in C instead of a comprehension.
            if marked.issuperset(table.values()):
                continue
            dead_keys = [key for key, node in table.items() if node not in marked]
            for key in dead_keys:
                free.append(table.pop(key))
            freed += len(dead_keys)
        if freed:
            # Cache entries may reference recycled slots — drop them.  When
            # the sweep freed nothing, every cached operand/result was just
            # proven live, so the caches stay valid and are kept: this is
            # what makes dense GC schedules (the stress suite collects at
            # every safe point) affordable — repeated no-op collections do
            # not forfeit memoisation.
            self.clear_caches()
        self._gc_runs += 1
        self._gc_freed_total += freed
        self._gc_seconds += time.perf_counter() - started
        return freed

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
        count = self.node_count()
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
        count = self.node_count()
        peak = self._peak_nodes
        return count if count > peak else peak

    @property
    def gc_freed(self) -> int:
        """Total node slots recycled across all collections."""
        return self._gc_freed_total

    def resource_stats(self) -> Dict[str, float]:
        """Every resource and op-level counter as one JSON-friendly dict.

        This is *the* counter schema: ``repro.obs`` spans snapshot it at
        span boundaries (the one place phase costs are metered), and
        ``repro bench`` baselines persist it — the names
        below appear verbatim in suite JSON, trace exports, and
        ``BENCH_*.json`` files (see ``docs/observability.md``).  Reading it
        never mutates manager state.
        """
        return {
            # Node-store gauges and totals.
            "nodes_live": self.node_count(),
            "peak_live_nodes": self.peak_nodes,
            "nodes_created": self._created_nodes,
            # Resource-manager activity.
            "gc_runs": self._gc_runs,
            "gc_freed": self._gc_freed_total,
            "gc_seconds": self._gc_seconds,
            "cache_entries": self.cache_entry_count(),
            # Unique-table (hash-consing) pressure.
            "unique_probes": self._unique_probes,
            "unique_hits": self._unique_hits,
            # Op-cache hits/misses per operation kind.
            "ite_hits": self._ite_hits,
            "ite_misses": self._ite_misses,
            "and_hits": self._bin_hits[_OP_AND],
            "and_misses": self._bin_misses[_OP_AND],
            "or_hits": self._bin_hits[_OP_OR],
            "or_misses": self._bin_misses[_OP_OR],
            "xor_hits": self._bin_hits[_OP_XOR],
            "xor_misses": self._bin_misses[_OP_XOR],
            "not_hits": self._not_hits,
            "not_misses": self._not_misses,
            "quant_hits": self._quant_hits,
            "quant_misses": self._quant_misses,
            "restrict_hits": self._restrict_hits,
            "restrict_misses": self._restrict_misses,
            "relprod_hits": self._relprod_hits,
            "relprod_misses": self._relprod_misses,
            "compose_hits": self._compose_hits,
            "compose_misses": self._compose_misses,
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
                for var, value in sorted(cube.items())
            ]
            terms.append(" & ".join(literals) if literals else "TRUE")
        return " | ".join(terms)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<BDDManager vars={self.num_vars} nodes={self.node_count()} "
            f"created={self.created_nodes}>"
        )
