"""Circuit construction API: latches, free inputs, defines, words, fairness.

:class:`CircuitBuilder` is the back end of the ``.rml`` elaborator
(:func:`repro.lang.elaborate`), which lowers every model the library
analyses onto it, and stays public for hand-built circuits: circuits are
described as Mealy machines (latches with next-state expressions, free
primary inputs, combinational ``define`` outputs), and
:meth:`CircuitBuilder.build` compiles them into the symbolic Kripke form of
:class:`~repro.fsm.fsm.FSM` the same way SMV does — inputs become
unconstrained state variables.

Example::

    b = CircuitBuilder("counter")
    b.input("stall")
    b.input("reset")
    b.word_latch("count", width=3, init=0,
                 next_=mux_tree_for_counter(...))
    b.define("at_top", "count = 4")
    fsm = b.build()
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..bdd import BDDManager, Function
from ..engine import DEFAULT_CONFIG, EngineConfig
from ..errors import ModelError
from ..expr.ast import And, Expr, Iff, Implies, Not, Or, Var, Xor
from ..expr.bitvector import WordTable, int_to_bits, resolve_words
from ..expr.parser import parse_expr
from .fsm import FSM, NEXT_SUFFIX, _symbolize
from .partition import TRANS_MONO, TransitionPartition

__all__ = ["CircuitBuilder"]

ExprLike = Union[str, Expr]


def _to_expr(value: ExprLike) -> Expr:
    if isinstance(value, str):
        return parse_expr(value)
    if isinstance(value, Expr):
        return value
    raise TypeError(f"expected expression or string, got {type(value).__name__}")


def _leaves(expr: Expr) -> Iterator[str]:
    """The signal names of a word-free expression, depth first and left to
    right, repeats included."""
    if isinstance(expr, Var):
        yield expr.name
    elif isinstance(expr, Not):
        yield from _leaves(expr.operand)
    elif isinstance(expr, (And, Or)):
        for arg in expr.args:
            yield from _leaves(arg)
    elif isinstance(expr, (Xor, Iff, Implies)):
        yield from _leaves(expr.lhs)
        yield from _leaves(expr.rhs)


def _variable_order(
    state_vars: Sequence[str],
    latch_next: Dict[str, Expr],
    defines: Dict[str, Expr],
    fairness: Sequence[Expr],
    words: WordTable,
) -> List[str]:
    """The BDD order of ``state_vars``, top to bottom, derived from the logic.

    ``latch_next`` (in latch declaration order), ``defines`` and
    ``fairness`` hold word-free expressions.

    * Each latch's next-state expression is walked depth first, left to
      right, resolving DEFINEs through.  A state variable is placed at its
      first visit and the latch after its fan-in, so shared controls sit
      above the stages they steer and each conjunct's support stays close.
    * Words that meet in one next-state function (with the latch's own
      word), DEFINE or FAIRNESS expression form a group.  The first visit
      of any of its bits places the whole group, bits interleaved by index
      (``a0, b0, a1, b1, ...``): ``a = b`` is linear in the width that way
      and exponential with the words blocked (McMillan, *Symbolic Model
      Checking*, 1993).
    * Variables the walk never reaches follow in declaration order.

    Only ordered collections decide placement, so the order is a pure
    function of the model, whatever the hash seed.
    """
    state = set(state_vars)
    # Bit -> (word, index); the first word declaring a bit owns it.
    bit_word: Dict[str, Tuple[str, int]] = {}
    for word, bits in words.items():
        for index, bit in enumerate(bits):
            if bit in state:
                bit_word.setdefault(bit, (word, index))

    cone_words: Dict[str, List[str]] = {}

    def words_in(expr: Expr) -> List[str]:
        found: Dict[str, None] = {}
        for name in _leaves(expr):
            if name in bit_word:
                found[bit_word[name][0]] = None
            elif name in defines:
                if name not in cone_words:
                    cone_words[name] = []  # cuts a cycle; build() reports it
                    cone_words[name] = words_in(defines[name])
                found.update(dict.fromkeys(cone_words[name]))
        return list(found)

    parent: Dict[str, str] = {}

    def find(word: str) -> str:
        while word in parent:
            word = parent[word]
        return word

    def join(met: List[str]) -> None:
        for other in met[1:]:
            root, other_root = find(met[0]), find(other)
            if root != other_root:
                parent[other_root] = root

    for latch, expr in latch_next.items():
        own = [bit_word[latch][0]] if latch in bit_word else []
        join(own + words_in(expr))
    for expr in [*defines.values(), *fairness]:
        join(words_in(expr))

    rank = {word: position for position, word in enumerate(words)}
    group_bits: Dict[str, List[str]] = {}
    for bit, (word, index) in sorted(
        bit_word.items(), key=lambda item: (item[1][1], rank[item[1][0]])
    ):
        group_bits.setdefault(find(word), []).append(bit)

    placed: Dict[str, None] = {}
    walked = set()

    def place(var: str) -> None:
        owner = bit_word.get(var)
        for bit in group_bits[find(owner[0])] if owner else [var]:
            placed.setdefault(bit)

    def walk(expr: Expr) -> None:
        for name in _leaves(expr):
            if name in defines:
                if name not in walked:
                    walked.add(name)
                    walk(defines[name])
            elif name in state and name not in placed:
                place(name)

    for latch, expr in latch_next.items():
        walk(expr)
        place(latch)
    for var in state_vars:
        place(var)
    return list(placed)


class CircuitBuilder:
    """Accumulates a circuit description and compiles it to an :class:`FSM`."""

    def __init__(self, name: str):
        self.name = name
        self._inputs: List[str] = []
        self._latches: List[str] = []
        self._latch_init: Dict[str, bool] = {}
        self._latch_next: Dict[str, Expr] = {}
        self._defines: Dict[str, Expr] = {}
        self._words: WordTable = {}
        self._fairness: List[Expr] = []

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def _check_fresh(self, name: str) -> None:
        if not name or not name[0].isalpha() and name[0] != "_":
            raise ModelError(f"invalid signal name {name!r}")
        if NEXT_SUFFIX in name:
            raise ModelError(f"{NEXT_SUFFIX!r} is reserved: {name!r}")
        taken = set(self._inputs) | set(self._latches) | set(self._defines) | set(
            self._words
        )
        if name in taken:
            raise ModelError(f"duplicate signal name {name!r}")

    def input(self, name: str) -> Var:
        """Declare a free primary input; returns its :class:`Var` for reuse."""
        self._check_fresh(name)
        self._inputs.append(name)
        return Var(name)

    def latch(self, name: str, init: bool, next_: ExprLike) -> Var:
        """Declare a single-bit latch with reset value and next-state logic."""
        self._check_fresh(name)
        self._latches.append(name)
        self._latch_init[name] = bool(init)
        self._latch_next[name] = _to_expr(next_)
        return Var(name)

    def word_latch(
        self,
        name: str,
        width: int,
        init: int,
        next_: Sequence[ExprLike],
    ) -> List[str]:
        """Declare a ``width``-bit register as latches ``name0..name{w-1}``.

        ``next_`` gives the next-state expression of each bit, LSB first
        (see :mod:`repro.expr.arith` for increment/mux builders).  The word
        ``name`` is registered so properties can compare it directly
        (``name < 5``).  Returns the bit names.
        """
        if width < 1:
            raise ModelError(f"word {name!r} needs width >= 1")
        if len(next_) != width:
            raise ModelError(
                f"word {name!r}: {len(next_)} next expressions for width {width}"
            )
        self._check_fresh(name)
        init_bits = int_to_bits(init, width)
        bit_names = [f"{name}{i}" for i in range(width)]
        for bit, init_bit, nxt in zip(bit_names, init_bits, next_):
            self.latch(bit, init_bit, nxt)
        self._words[name] = bit_names
        return bit_names

    def word_input(self, name: str, width: int) -> List[str]:
        """Declare a ``width``-bit free input word ``name0..name{w-1}``."""
        self._check_fresh(name)
        bit_names = [f"{name}{i}" for i in range(width)]
        for bit in bit_names:
            self.input(bit)
        self._words[name] = bit_names
        return bit_names

    def define(self, name: str, expr: ExprLike) -> Var:
        """Declare a combinational signal (a named proposition)."""
        self._check_fresh(name)
        self._defines[name] = _to_expr(expr)
        return Var(name)

    def fairness(self, expr: ExprLike) -> None:
        """Add a fairness constraint (must hold infinitely often on fair paths)."""
        self._fairness.append(_to_expr(expr))

    def word(self, name: str, bits: Sequence[str]) -> None:
        """Register an alias word over existing bit signals (LSB first)."""
        if name in self._words:
            raise ModelError(f"duplicate word {name!r}")
        self._words[name] = list(bits)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def declared_signals(self) -> frozenset:
        """Every name declared so far: inputs, latches, defines, and words.

        Useful for validating externally supplied names (observed signals,
        don't-cares) against the circuit before :meth:`build` — the module
        elaborator (:mod:`repro.lang.elaborate`) uses this to turn unknown
        references into source-located errors instead of late build
        failures.
        """
        return (
            frozenset(self._inputs)
            | frozenset(self._latches)
            | frozenset(self._defines)
            | frozenset(self._words)
        )

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def build(
        self,
        manager: Optional[BDDManager] = None,
        *,
        config: Optional[EngineConfig] = None,
    ) -> FSM:
        """Compile the accumulated description into an :class:`FSM`.

        Declares the BDD variables in an order derived from the logic
        (see :func:`_variable_order`: shared controls above the latches
        they steer, the bits of words that meet interleaved by index),
        each ``v#next`` right below its ``v``; ``FSM.state_vars`` keeps
        declaration order.  Then resolves ``define`` chains (rejecting
        cycles), builds one transition-relation conjunct per latch and
        the initial set as one cube, and symbolises fairness.

        ``config`` (an :class:`~repro.engine.EngineConfig`) carries every
        engine knob: its ``trans`` mode selects the image-execution mode of
        the resulting FSM — ``"partitioned"`` (default) keeps the per-latch
        conjuncts separate behind an early-quantification schedule,
        ``"mono"`` conjoins them into the classic monolithic relation up
        front; both machines compute identical sets (see
        ``tests/fsm/test_trans_equivalence.py``) — and its resource knobs
        compile to the manager's :class:`~repro.bdd.policy.ResourcePolicy`.
        When a ``manager`` is supplied and a resource knob is set, that
        policy is installed on it.
        """
        config = config if config is not None else DEFAULT_CONFIG
        trans = config.trans
        policy = config.policy()
        if manager is None:
            manager = BDDManager(policy=policy)
        elif policy is not None:
            manager.set_policy(policy)
        state_vars = self._latches + self._inputs
        if not state_vars:
            raise ModelError(f"circuit {self.name!r} has no state variables")
        known = frozenset(state_vars) | frozenset(self._defines)

        def lower(expr: Expr) -> Expr:
            return resolve_words(expr, self._words, known)

        defines = {name: lower(expr) for name, expr in self._defines.items()}
        latch_next = {latch: lower(expr) for latch, expr in self._latch_next.items()}
        fairness_exprs = [lower(e) for e in self._fairness]
        for var in _variable_order(
            state_vars, latch_next, defines, fairness_exprs, self._words
        ):
            manager.add_var(var)
            manager.add_var(var + NEXT_SUFFIX)

        # Resolve define chains to functions of state variables only.
        signals: Dict[str, Function] = {}
        signal_exprs: Dict[str, Expr] = {}
        for var in state_vars:
            signals[var] = Function.var(manager, var)
            signal_exprs[var] = Var(var)
        resolving: set = set()

        def signal_fn(name: str) -> Function:
            if name in signals:
                return signals[name]
            if name not in self._defines:
                raise ModelError(
                    f"circuit {self.name!r}: unknown signal {name!r}"
                )
            if name in resolving:
                raise ModelError(
                    f"circuit {self.name!r}: combinational cycle through {name!r}"
                )
            resolving.add(name)
            fn = symbolize(defines[name])
            resolving.discard(name)
            signals[name] = fn
            return fn

        def symbolize(lowered: Expr) -> Function:
            return _symbolize(manager, lowered, signal_fn)

        for name in self._defines:
            signal_fn(name)
            signal_exprs[name] = self._defines[name]

        # Transition relation: one conjunct per latch (``latch' <-> f``);
        # free inputs contribute no conjunct (their next value is
        # unconstrained).  The partition keeps the conjuncts separate;
        # mono mode conjoins them here, eagerly.
        conjuncts: List[Function] = []
        for latch, expr in latch_next.items():
            next_var = Function.var(manager, latch + NEXT_SUFFIX)
            conjuncts.append(next_var.iff(symbolize(expr)))
        partition = (
            TransitionPartition(conjuncts, labels=list(self._latches))
            if conjuncts
            else None
        )
        transition: Optional[Function] = None
        if partition is None:
            transition = Function.true(manager)  # no latches: inputs only
        elif trans == TRANS_MONO:
            transition = partition.monolithic()

        # One cube, not a fold of literals: conjoining each latch's literal
        # into the running product rebuilds it per latch (~n²/2 nodes).
        init = Function(manager, manager.cube(
            {manager.var_id(latch): self._latch_init[latch] for latch in self._latches}
        ))

        fairness = [symbolize(e) for e in fairness_exprs]

        return FSM(
            manager=manager,
            name=self.name,
            state_vars=state_vars,
            inputs=self._inputs,
            transition=transition,
            partition=partition,
            trans_mode=trans if partition is not None else TRANS_MONO,
            init=init,
            signals=signals,
            signal_exprs=signal_exprs,
            words=self._words,
            fairness=fairness,
            latch_next_exprs=dict(self._latch_next),
        )

