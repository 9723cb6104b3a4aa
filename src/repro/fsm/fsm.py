"""The symbolic Kripke structure — Definition 1 of the paper.

An :class:`FSM` is the 4-tuple ``<S, TM, P, SI>``:

* ``S`` — the state space: all valuations of the *state variables*.  As in
  SMV, free circuit inputs are folded into the state (each input becomes a
  state variable with an unconstrained next value), so the paper's formulas
  over inputs like ``stall``/``reset`` are plain state predicates.
* ``TM`` — the transition relation, a BDD over current and next variables.
* ``P`` — the signals: named atomic propositions, each a BDD over the
  current variables (latches/inputs name themselves; ``define``d outputs
  are arbitrary functions).
* ``SI`` — the initial state set.

Current and next copies of each variable are interleaved in the BDD order
(``v0, v0#next, v1, v1#next, ...``), the standard choice that keeps
transition relations small and makes current<->next renaming a fast
monotone rebuild.

Construction goes through :func:`~repro.fsm.builder.build_fsm` (the
elaborator's back end) or :func:`~repro.fsm.explicit.ExplicitGraph.to_fsm`
(for explicit state graphs); this class only assumes a relation, not
functional next-state logic.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence

from ..bdd import BDDManager, Function
from ..errors import ModelError
from ..expr.ast import (
    And as EAnd,
    Const,
    Expr,
    Iff as EIff,
    Implies as EImplies,
    Not as ENot,
    Or as EOr,
    Var,
    Xor as EXor,
)
from ..expr.bitvector import WordTable, resolve_words
from ..obs.telemetry import Telemetry
from .partition import (
    TRANS_MONO,
    TRANS_PARTITIONED,
    TransitionPartition,
    validate_trans_mode,
)

__all__ = ["FSM", "NEXT_SUFFIX"]

#: Suffix appended to a state variable name to name its next-state copy.
NEXT_SUFFIX = "#next"


def _symbolize(
    manager: BDDManager, expr: Expr, atom: Callable[[str], Function]
) -> Function:
    """Translate a word-free expression into a BDD, using ``atom`` for the
    state set of each signal name."""
    if isinstance(expr, Const):
        return Function.true(manager) if expr.value else Function.false(manager)
    if isinstance(expr, Var):
        return atom(expr.name)
    if isinstance(expr, ENot):
        return ~_symbolize(manager, expr.operand, atom)
    if isinstance(expr, EAnd):
        out = Function.true(manager)
        for arg in expr.args:
            out = out & _symbolize(manager, arg, atom)
        return out
    if isinstance(expr, EOr):
        out = Function.false(manager)
        for arg in expr.args:
            out = out | _symbolize(manager, arg, atom)
        return out
    if isinstance(expr, EXor):
        return _symbolize(manager, expr.lhs, atom) ^ _symbolize(
            manager, expr.rhs, atom
        )
    if isinstance(expr, EIff):
        return _symbolize(manager, expr.lhs, atom).iff(
            _symbolize(manager, expr.rhs, atom)
        )
    if isinstance(expr, EImplies):
        return _symbolize(manager, expr.lhs, atom).implies(
            _symbolize(manager, expr.rhs, atom)
        )
    raise TypeError(f"unknown expression node {type(expr).__name__}")


class FSM:
    """A finite state machine in symbolic (BDD) representation.

    Parameters
    ----------
    manager:
        The BDD manager holding every function of this machine.
    name:
        Human-readable machine name (used in reports).
    state_vars:
        Names of the state variables in declaration order.  For each name
        ``v`` the manager must have variables ``v`` and ``v#next``.
    inputs:
        The subset of ``state_vars`` that are free inputs (unconstrained
        next value).  Informational — the transition relation already
        encodes this.
    transition:
        The monolithic transition relation over current and next variables.
        May be omitted when ``partition`` is given (partitioned mode never
        needs it; it is conjoined lazily on first access).
    partition:
        Optional :class:`~repro.fsm.partition.TransitionPartition` — the
        per-latch relation conjuncts with early-quantification schedules.
        Required for ``trans_mode="partitioned"``.
    trans_mode:
        How images are executed: ``"partitioned"`` (the default when a
        partition is available) runs the scheduled ``and_exists`` chain;
        ``"mono"`` uses the single relation BDD.
    init:
        The initial state set over current variables.
    signals:
        Atomic propositions: name -> BDD over current variables.  Must
        include every state variable under its own name.
    signal_exprs:
        Optional expression-level definitions of the signals (needed for
        explicit-state enumeration of functional circuits).
    words:
        Bit-vector table: word name -> LSB-first bit signal names.
    fairness:
        Fairness constraints as state sets; a fair path satisfies each one
        infinitely often (paper Section 4.3).
    latch_next_exprs:
        Optional next-state expression for every non-input state variable
        (enables explicit enumeration; relation-built FSMs leave it None).
    """

    def __init__(
        self,
        manager: BDDManager,
        name: str,
        state_vars: Sequence[str],
        inputs: Sequence[str],
        *,
        transition: Optional[Function] = None,
        init: Function,
        signals: Dict[str, Function],
        signal_exprs: Optional[Dict[str, Expr]] = None,
        words: Optional[WordTable] = None,
        fairness: Optional[List[Function]] = None,
        latch_next_exprs: Optional[Dict[str, Expr]] = None,
        partition: Optional[TransitionPartition] = None,
        trans_mode: Optional[str] = None,
    ):
        self.manager = manager
        #: The telemetry this machine meters its phases with.  Every FSM
        #: (including explicit-graph test fixtures) gets its own at level
        #: "off", so checker and estimator costs are always measured;
        #: :class:`~repro.analysis.Analysis` installs the run's recorder.
        #: Never affects results — spans only read state.
        self.telemetry = Telemetry("off", manager)
        self.name = name
        self.state_vars = list(state_vars)
        self.inputs = list(inputs)
        self.latches = [v for v in self.state_vars if v not in set(inputs)]
        if transition is None and partition is None:
            raise ModelError(
                f"FSM {name!r} needs a transition relation or a partition"
            )
        self._transition = transition
        self.partition = partition
        if trans_mode is None:
            trans_mode = TRANS_PARTITIONED if partition is not None else TRANS_MONO
        validate_trans_mode(trans_mode)
        if trans_mode == TRANS_PARTITIONED and partition is None:
            raise ModelError(
                f"FSM {name!r}: partitioned mode requires a partition"
            )
        self.trans_mode = trans_mode
        self.init = init
        self.signals = dict(signals)
        self.signal_exprs = dict(signal_exprs) if signal_exprs else None
        self.words: WordTable = dict(words) if words else {}
        self.fairness = list(fairness) if fairness else []
        self.latch_next_exprs = (
            dict(latch_next_exprs) if latch_next_exprs else None
        )

        self.current_ids: Dict[str, int] = {
            v: manager.var_id(v) for v in self.state_vars
        }
        self.next_ids: Dict[str, int] = {
            v: manager.var_id(v + NEXT_SUFFIX) for v in self.state_vars
        }
        self._cur_list = [self.current_ids[v] for v in self.state_vars]
        self._next_list = [self.next_ids[v] for v in self.state_vars]
        self._cur_to_next = {
            self.current_ids[v]: self.next_ids[v] for v in self.state_vars
        }
        self._next_to_cur = {
            self.next_ids[v]: self.current_ids[v] for v in self.state_vars
        }
        self._reachable: Optional[Function] = None
        self._rings: Optional[List[Function]] = None

        missing = [v for v in self.state_vars if v not in self.signals]
        if missing:
            raise ModelError(f"state variables missing from signals: {missing}")

    # ------------------------------------------------------------------
    # Constructors for common shapes
    # ------------------------------------------------------------------

    @property
    def transition(self) -> Function:
        """The monolithic transition relation.

        In partitioned mode this is conjoined lazily from the partition on
        first access — building it is exactly the cost partitioned image
        execution avoids, so hot paths never touch this property unless
        ``trans_mode == "mono"``.
        """
        if self._transition is None:
            with self.telemetry.span("build-trans", mode="mono"):
                self._transition = self.partition.monolithic()
        return self._transition

    @property
    def current_var_ids(self) -> List[int]:
        """Variable ids of the current-state variables (declaration order)."""
        return list(self._cur_list)

    @property
    def next_var_ids(self) -> List[int]:
        """Variable ids of the next-state variables (declaration order)."""
        return list(self._next_list)

    def true_set(self) -> Function:
        """The full state space as a set."""
        return Function.true(self.manager)

    def empty_set(self) -> Function:
        """The empty state set."""
        return Function.false(self.manager)

    # ------------------------------------------------------------------
    # Signal / expression symbolisation
    # ------------------------------------------------------------------

    def signal(self, name: str) -> Function:
        """The atomic proposition ``name`` as a state set."""
        try:
            return self.signals[name]
        except KeyError:
            raise ModelError(
                f"unknown signal {name!r} in FSM {self.name!r}; "
                f"known: {sorted(self.signals)[:12]}..."
            ) from None

    def symbolize(self, expr: Expr, flip: frozenset = frozenset()) -> Function:
        """Translate an expression over signals into a state-set BDD.

        ``flip`` is a set of signal names whose *labelling* is negated — the
        heart of ``depend(b)`` (Table 1): ``T(b[q -> !q])`` is
        ``symbolize(b, flip={q})``.  Flipping applies to occurrences of the
        signal in the expression, not inside other signals' definitions
        (Definition 2 changes exactly one labelling function).
        """
        lowered = resolve_words(expr, self.words, frozenset(self.signals))

        def atom(name: str) -> Function:
            base = self.signal(name)
            return ~base if name in flip else base

        return _symbolize(self.manager, lowered, atom)

    # ------------------------------------------------------------------
    # Image operators (paper: forward / reachable)
    # ------------------------------------------------------------------

    def image(self, states: Function) -> Function:
        """One-step forward image — the paper's ``forward(S0)``.

        Partitioned mode runs the early-quantification ``and_exists`` chain
        over the per-latch conjuncts; mono mode the single relational
        product against the monolithic relation.  Both compute the same
        set, and BDD canonicity makes the results the same node.
        """
        if self.trans_mode == TRANS_PARTITIONED:
            over_next = self.partition.relprod(states, self._cur_list)
        else:
            over_next = self.transition.and_exists(states, self._cur_list)
        return over_next.rename(self._next_to_cur)

    forward = image

    def preimage(self, states: Function) -> Function:
        """One-step backward image (states with some successor in ``states``).

        Partitioning pays off most here: each conjunct mentions exactly one
        next-state variable, so every chain step retires one quantified
        variable immediately (free-input next copies never even enter the
        product — they are quantified out of the renamed set up front).
        """
        over_next = states.rename(self._cur_to_next)
        if self.trans_mode == TRANS_PARTITIONED:
            return self.partition.relprod(over_next, self._next_list)
        return self.transition.and_exists(over_next, self._next_list)

    def reachable_from(self, start: Function) -> Function:
        """The paper's ``reachable(S0)``: all states reachable from ``start``
        in zero or more steps (includes ``start``)."""
        reached = start
        frontier = start
        while not frontier.is_false():
            new = self.image(frontier).diff(reached)
            reached = reached | new
            frontier = new
        return reached

    def reachable(self) -> Function:
        """All states reachable from the initial set (cached)."""
        if self._reachable is None:
            self._compute_rings()
        return self._reachable

    def rings(self) -> List[Function]:
        """Breadth-first onion rings from the initial states (cached).

        ``rings()[k]`` is the set of states first reached in exactly ``k``
        steps; used for shortest-path trace generation (paper Section 3).
        """
        if self._rings is None:
            self._compute_rings()
        return list(self._rings)

    def _compute_rings(self) -> None:
        telemetry = self.telemetry
        with telemetry.span("reachability", machine=self.name):
            sample = telemetry.spans_enabled
            rings = [self.init]
            reached = self.init
            frontier = self.init
            if sample:
                # Frontier samples use only read-only queries (satcount,
                # node size): no BDD nodes, no cache traffic — the run
                # stays byte-identical with telemetry off.
                telemetry.event(
                    "frontier",
                    iteration=0,
                    frontier_states=self.count_states(frontier),
                    reached_nodes=reached.size(),
                )
            while not frontier.is_false():
                new = self.image(frontier).diff(reached)
                if new.is_false():
                    break
                rings.append(new)
                reached = reached | new
                frontier = new
                if sample:
                    telemetry.event(
                        "frontier",
                        iteration=len(rings) - 1,
                        frontier_states=self.count_states(frontier),
                        reached_nodes=reached.size(),
                    )
            self._reachable = reached
            self._rings = rings

    # ------------------------------------------------------------------
    # Counting / enumeration
    # ------------------------------------------------------------------

    def count_states(self, states: Function) -> int:
        """Number of states in the set (over the state variables)."""
        return states.satcount(self._cur_list)

    def iter_states(self, states: Function) -> Iterator[Dict[str, bool]]:
        """Iterate the states of a set as ``{state var name: value}`` dicts."""
        id_to_name = {self.current_ids[v]: v for v in self.state_vars}
        for assignment in states.iter_sat(self._cur_list):
            yield {id_to_name[i]: val for i, val in assignment.items()}

    def state_cube(self, assignment: Dict[str, bool]) -> Function:
        """The singleton state set for a complete state assignment."""
        missing = [v for v in self.state_vars if v not in assignment]
        if missing:
            raise ModelError(f"state assignment missing variables: {missing}")
        raw = {self.current_ids[v]: bool(assignment[v]) for v in self.state_vars}
        return Function(self.manager, self.manager.cube(raw))

    def format_state(self, state: Dict[str, bool]) -> str:
        """Human-readable one-line rendering of a (possibly partial) state.

        Word bits are recomposed into integers; variables absent from the
        assignment are omitted rather than defaulted.
        """
        parts: List[str] = []
        shown = set()
        for word, bits in sorted(self.words.items()):
            if all(b in state for b in bits):
                value = sum((1 << i) for i, b in enumerate(bits) if state[b])
                parts.append(f"{word}={value}")
                shown.update(bits)
        for var in self.state_vars:
            if var not in shown and var in state:
                parts.append(f"{var}={int(bool(state[var]))}")
        return " ".join(parts)

    # ------------------------------------------------------------------
    # Trace generation (paper Section 3, last paragraph)
    # ------------------------------------------------------------------

    def shortest_trace(self, target: Function) -> Optional[List[Dict[str, bool]]]:
        """Shortest path (as full state assignments) from an initial state to
        ``target``, via breadth-first rings walked backwards.

        Each backward step picks a predecessor of the current state in the
        previous ring (:meth:`_predecessors`).  Returns ``None`` when the
        target is unreachable.  The input portion of each state is the
        stimulus that drives the circuit along the trace (the "input
        sequence" the paper prints for uncovered states).
        """
        rings = self.rings()
        hit_index = None
        for k, ring in enumerate(rings):
            if ring.intersects(target):
                hit_index = k
                break
        if hit_index is None:
            return None
        # Pick a state in the intersection, then walk backwards ring by ring.
        current = self._pick(rings[hit_index] & target)
        path = [current]
        for k in range(hit_index - 1, -1, -1):
            current = self._pick(self._predecessors(current, rings[k]))
            path.append(current)
        path.reverse()
        return path

    def _predecessors(self, state: Dict[str, bool], within: Function) -> Function:
        """The states of ``within`` with a transition into ``state``.

        ``state`` fixes every next-state variable, so its preimage is the
        relation's cofactor ``T[next := state]``: no relational product and
        no rename.  Partitioned mode cofactors each conjunct at its own
        next-state variables; mono mode cofactors the one relation in a
        single pass (fixing one variable at a time rebuilds it once per
        variable).  The cofactors and then the ring are conjoined as one
        balanced tree (:meth:`~repro.bdd.manager.BDDManager.conjoin`): the
        ring constrains every stage at once, so joining it last keeps it
        out of the small per-stage products.  The result is the same BDD
        as ``preimage(state_cube(state)) & within``, so traces pick the
        same states.
        """
        at_next = {self.next_ids[v]: bool(state[v]) for v in self.state_vars}
        if self.trans_mode == TRANS_PARTITIONED:
            cofactors = self.partition.cofactors(at_next)
        else:
            cofactors = [self.transition.cofactor(at_next)]
        nodes = [cofactor.node for cofactor in cofactors]
        nodes.append(within.node)
        return Function(self.manager, self.manager.conjoin(nodes))

    def _pick(self, states: Function) -> Dict[str, bool]:
        # pick_sat assigns exactly the requested variables, so the result
        # maps cleanly back to state-variable names.
        assignment = states.pick_sat(self._cur_list)
        if assignment is None:  # pragma: no cover - callers guarantee non-empty
            raise ModelError("internal error: picking from an empty state set")
        id_to_name = {self.current_ids[v]: v for v in self.state_vars}
        return {id_to_name[i]: val for i, val in assignment.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<FSM {self.name!r} vars={len(self.state_vars)} "
            f"inputs={len(self.inputs)} signals={len(self.signals)} "
            f"trans={self.trans_mode}>"
        )
