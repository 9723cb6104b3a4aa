"""Variable-ordering ablation (a design choice DESIGN.md calls out).

The FSM builder interleaves current/next copies of each state variable —
the standard choice for keeping transition relations small.  This bench
quantifies the decision on the circular queue by comparing the transition
relation size under the interleaved order against a blocked order (all
current variables, then all next variables).  The variable order is fixed
when a manager declares its variables, so the blocked relation is rebuilt
in a fresh manager declared in that order.
"""

from repro.bdd import FALSE, TRUE, BDDManager
from repro.circuits import build_circular_queue
from repro.fsm import NEXT_SUFFIX

from .conftest import emit


def _copy(source, root, target):
    """Rebuild ``root`` of ``source`` in ``target``, bottom-up, matching
    variables by name (``target`` may declare them in another order)."""
    copies = {FALSE: FALSE, TRUE: TRUE}

    def copy(node):
        if node not in copies:
            literal = target.var(source.var_name(source.level_of(node)))
            high = target.apply_and(literal, copy(source.high_of(node)))
            low = target.apply_and(target.apply_not(literal), copy(source.low_of(node)))
            copies[node] = target.apply_or(high, low)
        return copies[node]

    return copy(root)


def _transition_sizes():
    fsm = build_circular_queue()
    interleaved = fsm.transition.size()

    blocked_order = fsm.state_vars + [v + NEXT_SUFFIX for v in fsm.state_vars]
    blocked = BDDManager(blocked_order)
    relation = _copy(fsm.manager, fsm.transition.node, blocked)
    assert blocked.var_names == blocked_order  # no variable left undeclared
    return interleaved, blocked.size(relation)


def test_ordering_interleaved_vs_blocked(benchmark):
    interleaved, blocked = benchmark(_transition_sizes)
    emit(
        "Ordering ablation (circular queue transition relation)",
        [f"interleaved order: {interleaved} nodes",
         f"blocked order:     {blocked} nodes"],
    )
    # The interleaved order must beat the blocked order.
    assert interleaved <= blocked
