"""Dynamic variable reordering: adjacent-level swap and Rudell sifting.

The coverage experiments in this repository use a fixed interleaved order
(chosen by the FSM builder), but a credible BDD engine offers reordering, and
the ordering ablation bench (`benchmarks/test_bench_ordering.py`) uses it to
quantify how much the interleaved order matters.

The implementation follows the classic unique-table formulation: swapping
levels ``i`` and ``i+1`` rewrites the nodes at level ``i`` in place, so node
ids (and therefore every outstanding :class:`~repro.bdd.function.Function`)
remain valid across reordering.
"""

from __future__ import annotations

from typing import List, Optional

from .manager import BDDManager


def swap_adjacent(manager: BDDManager, level: int) -> None:
    """Swap the variables at ``level`` and ``level + 1`` in place.

    All node ids keep denoting the same Boolean function.  The manager
    rewrites the affected nodes (the three-phase sink/float/rewrite sweep),
    swaps its variable<->level maps, and invalidates the operation caches
    and quantification profiles.
    """
    if level + 1 >= manager.num_vars:
        raise IndexError(f"cannot swap level {level}: no level below it")
    manager._swap_levels(level)


def move_var_to_level(manager: BDDManager, var: int, target_level: int) -> None:
    """Move variable id ``var`` to ``target_level`` via adjacent swaps."""
    while manager.var_level(var) > target_level:
        swap_adjacent(manager, manager.var_level(var) - 1)
    while manager.var_level(var) < target_level:
        swap_adjacent(manager, manager.var_level(var))


def set_order(manager: BDDManager, names: List[str]) -> None:
    """Reorder so that ``names`` run from the top level downwards.

    ``names`` must be a permutation of all declared variable names.
    """
    declared = set(manager.var_names)
    if set(names) != declared or len(names) != len(declared):
        raise ValueError("set_order requires a permutation of all variables")
    for target_level, name in enumerate(names):
        move_var_to_level(manager, manager.var_id(name), target_level)


def sift(
    manager: BDDManager,
    max_growth: float = 1.2,
    max_vars: Optional[int] = None,
) -> int:
    """Rudell's sifting: greedily move each variable to its best level.

    Variables are processed from the most populated level downwards.  Each
    variable is swapped through every position; it settles where the *live*
    BDD is smallest.  ``max_growth`` aborts a directional sweep early when
    the live size exceeds ``max_growth`` times its size at the sweep start.
    ``max_vars`` sifts only that many variables (the most populated ones) —
    a full pass is O(vars² · live), which the automatic reorder hook cannot
    afford on wide managers; sifting the heaviest few captures most of the
    win (CUDD's ``siftMaxVar`` plays the same role).

    Sizes are measured with :meth:`BDDManager.live_node_count` — nodes
    reachable from live references — after an up-front garbage collection.
    The raw unique-table size would also count dead nodes (accumulated
    garbage from earlier operations plus the dead halves of the swaps the
    sweep itself performs), which skews placement decisions toward whatever
    order happened to leave the most garbage behind.

    Returns the net change in live size (negative is an improvement).
    """
    m = manager
    # Drop accumulated garbage first so the sweep starts from (and measures
    # against) the real live structure, not historical leftovers.
    m.collect_garbage()
    start_size = m.live_node_count()
    nlevels = m.num_vars
    # Order variables by how many nodes currently sit at their level.
    occupancy = m._level_occupancy()
    todo = sorted(range(m.num_vars), key=lambda v: -occupancy.get(m.var_level(v), 0))
    if max_vars is not None:
        todo = todo[: max(0, max_vars)]

    for var in todo:
        # Reclaim the previous variable's sweep garbage: swap_adjacent
        # rewrites every node of the two levels it swaps, dead ones
        # included, so letting dead nodes accumulate across sweeps turns
        # sifting quadratic in practice.
        m.collect_garbage()
        best_size = m.live_node_count()
        sweep_limit = best_size * max_growth
        original_level = m.var_level(var)
        best_level = original_level

        def measure() -> int:
            # Keep the unique tables (every allocated node but the two
            # terminals) near the live size mid-sweep too — one long
            # sweep over a big level strands enough garbage to dominate
            # the later swaps through it otherwise.
            if m.node_count() - 2 > 2 * best_size + 256:
                m.collect_garbage()
            return m.live_node_count()

        # Sweep down to the bottom.
        while m.var_level(var) < nlevels - 1:
            swap_adjacent(m, m.var_level(var))
            size = measure()
            if size < best_size:
                best_size, best_level = size, m.var_level(var)
            if size > sweep_limit:
                break
        # Sweep up to the top.
        while m.var_level(var) > 0:
            swap_adjacent(m, m.var_level(var) - 1)
            size = measure()
            if size < best_size:
                best_size, best_level = size, m.var_level(var)
            if size > sweep_limit:
                break
        # Settle at the best position seen.
        move_var_to_level(m, var, best_level)

    # The sweeps themselves strand dead nodes in the unique table; reclaim
    # them so the table reflects the chosen order.
    m.collect_garbage()
    return m.live_node_count() - start_size
