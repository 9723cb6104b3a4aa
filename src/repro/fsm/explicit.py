"""Explicit-state models: enumeration, toy graphs, symbolic bridges.

Two purposes:

1. **Ground truth.** The Definition-3 mutation oracle and the explicit CTL
   checker run on an :class:`ExplicitModel` — a plain adjacency-list Kripke
   structure — giving an independent semantics against which the symbolic
   pipeline is validated (the paper's Correctness Theorem, checked
   empirically).

2. **The paper's figures.** Figures 1-3 are small hand-drawn state graphs;
   :class:`ExplicitGraph` lets tests and benchmarks write them down
   literally (named states, labels, edges) and bridge them into the
   symbolic engine via :meth:`ExplicitGraph.to_fsm`.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..bdd import BDDManager, Function
from ..errors import ModelError
from ..expr.ast import Expr
from ..expr.bitvector import resolve_words
from ..expr.evaluator import evaluate
from .fsm import FSM, NEXT_SUFFIX

__all__ = ["ExplicitModel", "ExplicitGraph", "enumerate_model"]

State = Tuple[bool, ...]


class ExplicitModel:
    """An explicit Kripke structure over integer state indices.

    Attributes
    ----------
    n:
        Number of states.
    successors / predecessors:
        Adjacency lists (every state of a total relation has successors).
    initial:
        Indices of initial states.
    signal_values:
        Per-state signal valuations: ``signal_values[i][name] -> bool``.
    """

    def __init__(
        self,
        successors: List[List[int]],
        initial: Set[int],
        signal_values: List[Dict[str, bool]],
        words=None,
        state_names: Optional[List[str]] = None,
    ):
        self.n = len(successors)
        self.successors = successors
        self.initial = set(initial)
        self.signal_values = signal_values
        self.words = dict(words) if words else {}
        self.state_names = state_names or [str(i) for i in range(self.n)]
        self.predecessors: List[List[int]] = [[] for _ in range(self.n)]
        for src, outs in enumerate(successors):
            for dst in outs:
                self.predecessors[dst].append(src)

    def eval_atom(
        self, expr: Expr, state: int, overrides: Optional[Dict[str, List[bool]]] = None
    ) -> bool:
        """Evaluate a propositional atom at ``state``.

        ``overrides`` maps signal names to per-state value vectors; the
        mutation oracle uses it to install the flipped shadow signal ``q'``
        without copying the whole labelling.
        """
        env = self.signal_values[state]
        if overrides:
            env = dict(env)
            for name, vector in overrides.items():
                env[name] = vector[state]
        return evaluate(expr, env, self.words)

    def states_satisfying(
        self, expr: Expr, overrides: Optional[Dict[str, List[bool]]] = None
    ) -> Set[int]:
        """All state indices at which ``expr`` evaluates true."""
        return {
            i for i in range(self.n) if self.eval_atom(expr, i, overrides)
        }

    def signal_vector(self, name: str) -> List[bool]:
        """The labelling of signal ``name`` as a per-state vector.

        Raises :class:`~repro.errors.ModelError` for a name absent from the
        labelling — silently defaulting unknown names to all-False would
        hand callers (e.g. the mutation oracle) a phantom signal that is
        false everywhere, and every result downstream would be garbage.
        """
        if self.n and any(name not in self.signal_values[i] for i in range(self.n)):
            known = sorted(self.signal_values[0])
            raise ModelError(
                f"unknown signal {name!r} in explicit model; known signals: "
                f"{known[:12]}{'...' if len(known) > 12 else ''}"
                + (
                    f" (did you mean one of the bits of word {name!r}: "
                    f"{self.words[name]}?)"
                    if name in self.words
                    else ""
                )
            )
        return [bool(self.signal_values[i][name]) for i in range(self.n)]


class ExplicitGraph:
    """A hand-written state graph (the paper's figure style).

    States are named; labels are the signals true in the state.  Build with
    :meth:`state` and :meth:`edge`, then use :meth:`to_model` for explicit
    algorithms or :meth:`to_fsm` to push the same graph through the
    symbolic engine.
    """

    def __init__(self, name: str = "graph", signals: Iterable[str] = ()):
        self.name = name
        self._names: List[str] = []
        self._index: Dict[str, int] = {}
        self._labels: Dict[str, Set[str]] = {}
        self._initial: Set[str] = set()
        self._edges: List[Tuple[str, str]] = []
        # Declared signal universe; labels add to it.  Declaring signals up
        # front lets a signal exist while being true in no state.
        self._declared_signals: Set[str] = set(signals)

    def state(
        self, name: str, labels: Iterable[str] = (), initial: bool = False
    ) -> str:
        """Add a state with the given true signals; returns the name."""
        if name in self._index:
            raise ModelError(f"duplicate state {name!r}")
        self._index[name] = len(self._names)
        self._names.append(name)
        self._labels[name] = set(labels)
        if initial:
            self._initial.add(name)
        return name

    def edge(self, src: str, dst: str) -> None:
        """Add a transition ``src -> dst``."""
        for name in (src, dst):
            if name not in self._index:
                raise ModelError(f"unknown state {name!r}")
        self._edges.append((src, dst))

    def self_loop_terminal_states(self) -> None:
        """Add self-loops on states without successors (totalise the relation).

        CTL semantics require a total transition relation; figures usually
        leave final states implicit, so call this after drawing the graph.
        """
        with_succ = {src for src, _ in self._edges}
        for name in self._names:
            if name not in with_succ:
                self._edges.append((name, name))

    @property
    def signal_names(self) -> FrozenSet[str]:
        out: Set[str] = set(self._declared_signals)
        for labels in self._labels.values():
            out.update(labels)
        return frozenset(out)

    def to_model(self) -> ExplicitModel:
        """Materialise as an :class:`ExplicitModel`."""
        if not self._initial:
            raise ModelError(f"graph {self.name!r} has no initial state")
        n = len(self._names)
        succ: List[List[int]] = [[] for _ in range(n)]
        for src, dst in self._edges:
            succ[self._index[src]].append(self._index[dst])
        for i, outs in enumerate(succ):
            if not outs:
                raise ModelError(
                    f"state {self._names[i]!r} has no successor; call "
                    "self_loop_terminal_states() to totalise the relation"
                )
        signals = sorted(self.signal_names)
        values = [
            {s: (s in self._labels[name]) for s in signals}
            for name in self._names
        ]
        return ExplicitModel(
            succ,
            {self._index[s] for s in self._initial},
            values,
            state_names=list(self._names),
        )

    # ------------------------------------------------------------------
    # Symbolic bridge
    # ------------------------------------------------------------------

    def encoding_width(self) -> int:
        """Bits needed to encode the state index."""
        return max(1, math.ceil(math.log2(max(2, len(self._names)))))

    def state_bits(self, name: str) -> Dict[str, bool]:
        """The binary encoding of a named state as ``{bit var: value}``."""
        index = self._index[name]
        width = self.encoding_width()
        return {f"s{i}": bool((index >> i) & 1) for i in range(width)}

    def to_fsm(self) -> FSM:
        """Encode the graph as a symbolic FSM (state index in binary), in a
        BDD manager of its own.

        State variables are ``s0..s{k-1}``; every labelled signal becomes a
        defined proposition (the union of its states' cubes).  Unused binary
        codes are unreachable, so they never enter the coverage space.

        The relation is built edge-by-edge as a single BDD, so graph FSMs
        always run in monolithic mode — there is no per-latch functional
        structure to partition.  The mono/partitioned cross-check tests use
        this as the partition-free reference semantics.
        """
        if not self._initial:
            raise ModelError(f"graph {self.name!r} has no initial state")
        manager = BDDManager()
        width = self.encoding_width()
        state_vars = [f"s{i}" for i in range(width)]
        for var in state_vars:
            manager.add_var(var)
            manager.add_var(var + NEXT_SUFFIX)

        def cube(name: str, next_copy: bool) -> Function:
            bits = self.state_bits(name)
            raw = {
                manager.var_id(var + (NEXT_SUFFIX if next_copy else "")): value
                for var, value in bits.items()
            }
            return Function(manager, manager.cube(raw))

        transition = Function.false(manager)
        for src, dst in self._edges:
            transition = transition | (cube(src, False) & cube(dst, True))
        init = Function.false(manager)
        for name in self._initial:
            init = init | cube(name, False)

        signals: Dict[str, Function] = {}
        for var in state_vars:
            signals[var] = Function.var(manager, var)
        for signal in sorted(self.signal_names):
            acc = Function.false(manager)
            for name in self._names:
                if signal in self._labels[name]:
                    acc = acc | cube(name, False)
            signals[signal] = acc

        return FSM(
            manager=manager,
            name=self.name,
            state_vars=state_vars,
            inputs=[],
            transition=transition,
            trans_mode="mono",
            init=init,
            signals=signals,
        )

    def states_to_set(self, fsm: FSM, names: Iterable[str]) -> Function:
        """The symbolic state set for the given named states of this graph."""
        out = Function.false(fsm.manager)
        for name in names:
            raw = {
                fsm.current_ids[var]: value
                for var, value in self.state_bits(name).items()
            }
            out = out | Function(fsm.manager, fsm.manager.cube(raw))
        return out

    def set_to_states(self, fsm: FSM, states: Function) -> Set[str]:
        """Decode a symbolic state set back to graph state names."""
        width = self.encoding_width()
        out: Set[str] = set()
        for assignment in fsm.iter_states(states):
            index = sum(
                (1 << i) for i in range(width) if assignment.get(f"s{i}", False)
            )
            if index < len(self._names):
                out.add(self._names[index])
        return out


def enumerate_model(fsm: FSM, limit: int = 200_000) -> ExplicitModel:
    """Enumerate the reachable states of a functional FSM explicitly.

    Requires the FSM to carry next-state expressions (every elaborated
    ``.rml`` model, compiled by :func:`~repro.fsm.builder.build_fsm`,
    does).  Successor states are the
    latch updates crossed with every input valuation.  Raises
    :class:`ModelError` past ``limit`` states — this path exists for
    oracle validation on small instances, not for scale.
    """
    if fsm.latch_next_exprs is None or fsm.signal_exprs is None:
        raise ModelError(
            "explicit enumeration needs next-state expressions; this FSM "
            "was built from a raw relation"
        )
    latches = fsm.latches
    inputs = fsm.inputs
    order = fsm.state_vars
    known = frozenset(fsm.signals)

    next_exprs = {
        latch: resolve_words(expr, fsm.words, known)
        for latch, expr in fsm.latch_next_exprs.items()
    }
    define_exprs = {
        name: resolve_words(expr, fsm.words, known)
        for name, expr in fsm.signal_exprs.items()
        if name not in set(order)
    }

    def full_env(state: Dict[str, bool]) -> Dict[str, bool]:
        """State variables plus all defined signals, resolved in dependency
        order (defines may reference other defines)."""
        env = dict(state)
        pending = dict(define_exprs)
        while pending:
            progressed = False
            for name in list(pending):
                try:
                    env[name] = evaluate(pending[name], env, fsm.words)
                except Exception:
                    continue
                del pending[name]
                progressed = True
            if not progressed:
                raise ModelError(
                    f"cannot resolve defines {sorted(pending)} for {fsm.name!r}"
                )
        return env

    def successors_of(state: Dict[str, bool]) -> List[Dict[str, bool]]:
        env = full_env(state)
        latch_next = {
            latch: evaluate(next_exprs[latch], env, fsm.words)
            for latch in latches
        }
        out = []
        for bits in itertools.product([False, True], repeat=len(inputs)):
            succ = dict(latch_next)
            succ.update(zip(inputs, bits))
            out.append(succ)
        return out

    initial_states = [
        dict(assignment)
        for assignment in _iter_init(fsm)
    ]

    index: Dict[State, int] = {}
    states: List[Dict[str, bool]] = []
    succ_lists: List[List[int]] = []
    queue: List[int] = []

    def intern(state: Dict[str, bool]) -> int:
        key = tuple(bool(state[v]) for v in order)
        found = index.get(key)
        if found is not None:
            return found
        if len(states) >= limit:
            raise ModelError(
                f"explicit enumeration exceeded {limit} states for {fsm.name!r}"
            )
        idx = len(states)
        index[key] = idx
        states.append({v: bool(state[v]) for v in order})
        succ_lists.append([])
        queue.append(idx)
        return idx

    initial = {intern(s) for s in initial_states}
    cursor = 0
    while cursor < len(queue):
        idx = queue[cursor]
        cursor += 1
        for succ in successors_of(states[idx]):
            succ_lists[idx].append(intern(succ))

    # Label every state with every signal (defines evaluated via exprs).
    signal_values: List[Dict[str, bool]] = [full_env(state) for state in states]

    return ExplicitModel(succ_lists, initial, signal_values, words=fsm.words)


def _iter_init(fsm: FSM):
    """Iterate initial states as name->bool dicts."""
    yield from fsm.iter_states(fsm.init)
