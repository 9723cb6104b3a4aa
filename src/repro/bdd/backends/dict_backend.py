"""The ``dict`` backend: tuple-keyed hash consing on Python dicts.

This is the historical engine of this repository, verbatim: parallel
Python lists for the node fields, a ``(level, low, high) -> node`` dict as
the unique table, and one dict per operation cache.  It is the engine's
only node store; the conformance suite checks it against brute-force truth
tables.

Every traversal is **iterative** (explicit work stacks), so the kernel's
depth limit is available memory, not Python's recursion limit: a
1400-level BDD chain is as routine as a 14-level one.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .base import FALSE, TERMINAL_LEVEL, TRUE, BDDBackend

# Tags used to keep the shared binary-op cache collision free.
_OP_AND = 0
_OP_OR = 1
_OP_XOR = 2

# Frame phases of the iterative relational product.
_AE_EXPAND = 0
_AE_AFTER_LOW = 1
_AE_AFTER_HIGH = 2
_AE_AFTER_BOTH = 3


class DictBackend(BDDBackend):
    """Node store + kernels on Python dicts and lists."""

    name = "dict"

    def __init__(self):
        # Parallel node arrays; slots 0/1 are the terminals.  The terminal
        # low/high fields are never read but keep the arrays aligned.
        self._level: List[int] = [TERMINAL_LEVEL, TERMINAL_LEVEL]
        self._low: List[int] = [FALSE, TRUE]
        self._high: List[int] = [FALSE, TRUE]
        # Hash-consing table: (level, low, high) -> node id.
        self._unique: Dict[Tuple[int, int, int], int] = {}
        # Recycled node slots (filled by collect).
        self._free: List[int] = []

        # Operation caches.
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._bin_cache: Dict[Tuple[int, int, int], int] = {}
        self._not_cache: Dict[int, int] = {}
        self._quant_cache: Dict[Tuple[int, int, int], int] = {}
        self._relprod_cache: Dict[Tuple[int, int, int], int] = {}
        self._compose_cache: Dict[Tuple[int, int], int] = {}
        self._compose_token = 0
        self._compose_purged_token = 0
        self._compose_max_level = -1
        # Registered quantification profiles: canonical tuple of levels -> id.
        self._quant_profiles: Dict[Tuple[int, ...], int] = {}
        self._quant_profile_sets: List[frozenset] = []
        self._quant_profile_max: List[int] = []

        # Kernel counters (see :meth:`counters`).  All of them measure
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

    # ------------------------------------------------------------------
    # Node store
    # ------------------------------------------------------------------

    def mk(self, level: int, low: int, high: int) -> int:
        """Find-or-create the node ``(level, low, high)`` (the reduce rule)."""
        if low == high:
            return low
        key = (level, low, high)
        self._unique_probes += 1
        node = self._unique.get(key)
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
        self._unique[key] = node
        self._created_nodes += 1
        return node

    def find(self, level: int, low: int, high: int) -> Optional[int]:
        return self._unique.get((level, low, high))

    def level_of(self, node: int) -> int:
        return self._level[node]

    def low_of(self, node: int) -> int:
        return self._low[node]

    def high_of(self, node: int) -> int:
        return self._high[node]

    def node_count(self) -> int:
        return len(self._level) - len(self._free)

    def unique_size(self) -> int:
        return len(self._unique)

    @property
    def created_nodes(self) -> int:
        return self._created_nodes

    def size(self, node: int) -> int:
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
                result = self.mk(level, low, high)
                cache[(f, g, h)] = result
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
            cached = cache.get((f, g, h))
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
                result = self.mk(level_arr[f], low, high)
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
        cache = self._bin_cache
        hits = misses = 0
        tasks: List[Tuple[int, int, bool]] = [(f, g, False)]
        results: List[int] = []
        while tasks:
            f, g, combine = tasks.pop()
            if combine:
                high = results.pop()
                low = results.pop()
                lf, lg = level_arr[f], level_arr[g]
                result = self.mk(lf if lf < lg else lg, low, high)
                cache[(op, f, g)] = result
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
            cached = cache.get((op, f, g))
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
        return self._apply_bin(_OP_AND, f, g)

    def apply_or(self, f: int, g: int) -> int:
        return self._apply_bin(_OP_OR, f, g)

    def apply_xor(self, f: int, g: int) -> int:
        return self._apply_bin(_OP_XOR, f, g)

    # ------------------------------------------------------------------
    # Quantification
    # ------------------------------------------------------------------

    def _quant_profile(self, levels: Sequence[int]) -> int:
        """Intern a (sorted) level set to quantify as a small profile id.

        Image computations quantify the same variable sets over and over;
        interning keeps the quantification cache keys small and hashable.
        Profiles are expressed in levels and therefore invalidated
        (cleared) by reordering.
        """
        key = tuple(levels)
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
        tag = 0 if disjunctive else 1
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
                    result = self.mk(level, low, high)
                cache[(tag, f, profile)] = result
                results.append(result)
                continue
            if f <= TRUE or level_arr[f] > qmax:
                results.append(f)
                continue
            cached = cache.get((tag, f, profile))
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

    def _exists_profile(self, f: int, profile: int) -> int:
        return self._quantify_profile(f, profile, disjunctive=True)

    def exists_levels(self, f: int, levels: Sequence[int]) -> int:
        if not levels:
            return f
        return self._exists_profile(f, self._quant_profile(levels))

    def forall_levels(self, f: int, levels: Sequence[int]) -> int:
        if not levels:
            return f
        return self._quantify_profile(
            f, self._quant_profile(levels), disjunctive=False
        )

    def and_exists_levels(self, f: int, g: int, levels: Sequence[int]) -> int:
        if not levels:
            return self.apply_and(f, g)
        return self._and_exists_profile(f, g, self._quant_profile(levels))

    def _and_exists_profile(self, f: int, g: int, profile: int) -> int:
        level_arr = self._level
        low_arr = self._low
        high_arr = self._high
        qset = self._quant_profile_sets[profile]
        qmax = self._quant_profile_max[profile]
        cache = self._relprod_cache
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
                    results.append(self._exists_profile(g, profile))
                    continue
                if g == TRUE or f == g:
                    results.append(self._exists_profile(f, profile))
                    continue
                if level_arr[f] > qmax and level_arr[g] > qmax:
                    results.append(self.apply_and(f, g))
                    continue
                if f > g:
                    f, g = g, f
                cached = cache.get((f, g, profile))
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
                    cache[(f, g, profile)] = TRUE
                    results.append(TRUE)
                    continue
                tasks.append((_AE_AFTER_HIGH, f, g, low, 0))
                tasks.append((_AE_EXPAND, c, d, 0, 0))
            elif phase == _AE_AFTER_HIGH:
                high = results.pop()
                result = self.apply_or(c, high)
                cache[(f, g, profile)] = result
                results.append(result)
            else:  # _AE_AFTER_BOTH
                high = results.pop()
                low = results.pop()
                lf, lg = level_arr[f], level_arr[g]
                result = self.mk(lf if lf < lg else lg, low, high)
                cache[(f, g, profile)] = result
                results.append(result)
        self._relprod_hits += hits
        self._relprod_misses += misses
        return results[0]

    # ------------------------------------------------------------------
    # Cofactor / composition / renaming
    # ------------------------------------------------------------------

    def restrict_levels(self, f: int, assignment: Dict[int, bool]) -> int:
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
                result = self.mk(level_arr[f], low, high)
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

    def compose_levels(self, f: int, by_level: Dict[int, int]) -> int:
        if not by_level:
            return f
        # A fresh token keys this substitution in the (shared) compose
        # cache.  Entries of previous tokens can never be hit again; purge
        # them once enough generations have accumulated
        # (policy.compose_generations, installed by the manager).
        self._compose_token += 1
        if (
            self._compose_token - self._compose_purged_token
            >= self.compose_generations
        ):
            self._compose_cache.clear()
            self._compose_purged_token = self._compose_token
        self._compose_max_level = max(by_level)
        return self._compose_rec(f, by_level)

    def _compose_rec(self, f: int, by_level: Dict[int, int]) -> int:
        level_arr = self._level
        max_level = self._compose_max_level
        token = self._compose_token
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
                replacement = by_level.get(level)
                if replacement is None:
                    replacement = self.mk(level, FALSE, TRUE)
                result = self.ite(replacement, high, low)
                cache[(token, f)] = result
                results.append(result)
                continue
            if f <= TRUE or level_arr[f] > max_level:
                results.append(f)
                continue
            cached = cache.get((token, f))
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

    def rename_monotone(self, f: int, level_map: Dict[int, int]) -> int:
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
                result = self.mk(level_map.get(level, level), low, high)
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

    def satcount_levels(self, f: int, levels: Sequence[int]) -> int:
        rank = {lvl: i for i, lvl in enumerate(levels)}
        n = len(rank)
        if f == FALSE:
            return 0
        if f == TRUE:
            return 1 << n
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
        return memo[f] << rank[self._level[f]]

    def support_levels(self, f: int) -> List[int]:
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

    def iter_cube_paths(self, f: int) -> Iterator[List[Tuple[int, bool]]]:
        if f == FALSE:
            return
        path: List[Tuple[int, bool]] = []
        # Each entry: (node, path length to truncate to, literal to append
        # first — or -1 for the root).  Low branches are pushed last so
        # they are explored first, matching the historical recursive
        # enumeration order (trace rendering depends on it).
        stack: List[Tuple[int, int, int, bool]] = [(f, 0, -1, False)]
        while stack:
            node, plen, level, value = stack.pop()
            del path[plen:]
            if level >= 0:
                path.append((level, value))
            if node == FALSE:
                continue
            if node == TRUE:
                yield list(path)
                continue
            lvl = self._level[node]
            depth = len(path)
            stack.append((self._high[node], depth, lvl, True))
            stack.append((self._low[node], depth, lvl, False))

    def cube_levels(self, assignment: Dict[int, bool]) -> int:
        result = TRUE
        for level in sorted(assignment, reverse=True):
            if assignment[level]:
                result = self.mk(level, FALSE, result)
            else:
                result = self.mk(level, result, FALSE)
        return result

    # ------------------------------------------------------------------
    # Caches, garbage, reordering support
    # ------------------------------------------------------------------

    def clear_caches(self) -> None:
        self._ite_cache.clear()
        self._bin_cache.clear()
        self._not_cache.clear()
        self._quant_cache.clear()
        self._relprod_cache.clear()
        self._compose_cache.clear()
        self._compose_purged_token = self._compose_token

    def cache_entry_count(self) -> int:
        return (
            len(self._ite_cache)
            + len(self._bin_cache)
            + len(self._not_cache)
            + len(self._quant_cache)
            + len(self._relprod_cache)
            + len(self._compose_cache)
        )

    def _mark(self, roots: Iterable[int]) -> set:
        marked = {FALSE, TRUE}
        stack = [r for r in roots if r > TRUE]
        while stack:
            node = stack.pop()
            if node in marked:
                continue
            marked.add(node)
            stack.append(self._low[node])
            stack.append(self._high[node])
        return marked

    def collect(self, roots: Iterable[int]) -> int:
        marked = self._mark(roots)
        freed = 0
        dead_keys = [
            key for key, node in self._unique.items() if node not in marked
        ]
        for key in dead_keys:
            node = self._unique.pop(key)
            self._free.append(node)
            freed += 1
        if freed:
            # Cache entries may reference recycled slots — drop them.  When
            # the sweep freed nothing, every cached operand/result was just
            # proven live, so the caches stay valid and are kept: this is
            # what makes dense GC schedules (the stress suite collects at
            # every safe point) affordable — repeated no-op collections do
            # not forfeit memoisation.
            self.clear_caches()
        return freed

    def live_count(self, roots: Iterable[int]) -> int:
        return len(self._mark(roots))

    def level_occupancy(self) -> Dict[int, int]:
        occupancy: Dict[int, int] = {}
        for (lvl, _low, _high) in self._unique:
            occupancy[lvl] = occupancy.get(lvl, 0) + 1
        return occupancy

    def swap_adjacent_levels(self, upper: int) -> None:
        lower = upper + 1

        # Partition the two levels' nodes.  Everything is re-inserted below.
        upper_nodes: List[int] = []
        lower_nodes: List[int] = []
        for (lvl, _low, _high), node in list(self._unique.items()):
            if lvl == upper:
                upper_nodes.append(node)
                del self._unique[(lvl, _low, _high)]
            elif lvl == lower:
                lower_nodes.append(node)
                del self._unique[(lvl, _low, _high)]

        # Phase 1: old upper-level nodes that do NOT depend on the lower
        # variable simply sink one level (same children, same function).
        dependent: List[int] = []
        for node in upper_nodes:
            low, high = self._low[node], self._high[node]
            if self._level[low] == lower or self._level[high] == lower:
                dependent.append(node)
            else:
                self._level[node] = lower
                self._unique[(lower, low, high)] = node

        # Phase 2: old lower-level nodes float up (their children are
        # strictly below both levels, so they are well-formed at the upper
        # level).
        for node in lower_nodes:
            self._level[node] = upper
            self._unique[(upper, self._low[node], self._high[node])] = node

        # Phase 3: rewrite the dependent nodes.  With x the old upper
        # variable and y the old lower one, f = x?(y?f11:f10):(y?f01:f00)
        # becomes f = y?(x?f11:f01):(x?f10:f00) where x now lives at the
        # lower level.  After phase 2, a child at level `upper` is
        # necessarily an old lower-level node (original children of upper
        # nodes were at levels >= lower, and only old lower nodes were
        # floated up).
        for node in dependent:
            f0, f1 = self._low[node], self._high[node]
            if self._level[f0] == upper:
                f00, f01 = self._low[f0], self._high[f0]
            else:
                f00 = f01 = f0
            if self._level[f1] == upper:
                f10, f11 = self._low[f1], self._high[f1]
            else:
                f10 = f11 = f1
            new_low = self.mk(lower, f00, f10)
            new_high = self.mk(lower, f01, f11)
            self._level[node] = upper
            self._low[node] = new_low
            self._high[node] = new_high
            self._unique[(upper, new_low, new_high)] = node

    def invalidate_level_structures(self) -> None:
        self.clear_caches()
        self._quant_profiles.clear()
        self._quant_profile_sets.clear()
        self._quant_profile_max.clear()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {
            "nodes_created": self._created_nodes,
            "unique_probes": self._unique_probes,
            "unique_hits": self._unique_hits,
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
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DictBackend nodes={self.node_count()} "
            f"created={self._created_nodes}>"
        )
