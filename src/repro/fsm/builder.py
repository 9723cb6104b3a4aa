"""Compile a validated ``.rml`` module's logic into an :class:`FSM`.

:func:`build_fsm` is the back end of the ``.rml`` elaborator
(:func:`repro.lang.elaborate`), its only caller: every model the library
analyses reaches it as the bit-level pieces of a module the validator
accepted — latches with reset values and next-state expressions, free
inputs, combinational ``DEFINE`` signals, the word table and the fairness
constraints.  It compiles them into the symbolic Kripke form of
:class:`~repro.fsm.fsm.FSM` the same way SMV does: inputs become
unconstrained state variables.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..bdd import BDDManager, Function
from ..engine import DEFAULT_CONFIG, EngineConfig
from ..expr.ast import And, Expr, Iff, Implies, Not, Or, Var, Xor
from ..expr.bitvector import WordTable, resolve_words
from .fsm import FSM, NEXT_SUFFIX, _symbolize
from .partition import TRANS_MONO, TransitionPartition

__all__ = ["build_fsm"]


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
                    cone_words[name] = []  # cuts a cycle; RML003 rejects it
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


def _define_fn(
    manager: BDDManager,
    name: str,
    defines: Dict[str, Expr],
    signals: Dict[str, Function],
) -> Function:
    """The state set of signal ``name``, resolving ``DEFINE``s depth first.

    A define met for the first time is symbolised (and stored in
    ``signals``) at the point its name is read.  A plain function rather
    than a pair of closures that call each other: a closure cycle would
    hold ``signals``, and through it the manager, until a cyclic
    collection.
    """
    fn = signals.get(name)
    if fn is None:
        fn = _symbolize(
            manager,
            defines[name],
            lambda atom: _define_fn(manager, atom, defines, signals),
        )
        signals[name] = fn
    return fn


def build_fsm(
    name: str,
    latches: Dict[str, Tuple[bool, Expr]],
    inputs: Sequence[str],
    defines: Dict[str, Expr],
    words: WordTable,
    fairness: Sequence[Expr],
    *,
    config: Optional[EngineConfig] = None,
) -> FSM:
    """Compile a validated module's bit-level logic into an :class:`FSM`.

    ``latches`` maps each latch bit, in declaration order, to its reset
    value and next-state expression; ``inputs`` lists the free input bits;
    ``defines`` maps each combinational signal to its expression, in
    declaration order; ``words`` maps each word to its LSB-first bit
    names; ``fairness`` holds the fairness constraints.  Expressions may
    compare words (``count = 4``).  The names are assumed resolved and
    acyclic: :func:`repro.lang.check.check_module` has checked them.

    Declares the BDD variables in an order derived from the logic (see
    :func:`_variable_order`: shared controls above the latches they
    steer, the bits of words that meet interleaved by index), each
    ``v#next`` right below its ``v``; ``FSM.state_vars`` keeps declaration
    order, latches first.  Then resolves ``DEFINE``s depth first in
    declaration order, builds one transition-relation conjunct per latch
    and the initial set as one cube, and symbolises fairness.

    ``config`` (an :class:`~repro.engine.EngineConfig`) carries every
    engine knob: its ``trans`` mode selects the image-execution mode of
    the resulting FSM — ``"partitioned"`` (default) keeps the per-latch
    conjuncts separate behind an early-quantification schedule,
    ``"mono"`` conjoins them into the classic monolithic relation up
    front; both machines compute identical sets (see
    ``tests/fsm/test_trans_equivalence.py``) — and its resource knobs
    compile to the new manager's :class:`~repro.bdd.policy.ResourcePolicy`.
    """
    config = config if config is not None else DEFAULT_CONFIG
    manager = BDDManager(policy=config.policy())
    state_vars = [*latches, *inputs]
    known = frozenset(state_vars) | frozenset(defines)
    lowered = {
        define: resolve_words(expr, words, known) for define, expr in defines.items()
    }
    latch_next = {
        latch: resolve_words(next_, words, known)
        for latch, (_init, next_) in latches.items()
    }
    fairness_exprs = [resolve_words(expr, words, known) for expr in fairness]
    for var in _variable_order(
        state_vars, latch_next, lowered, fairness_exprs, words
    ):
        manager.add_var(var)
        manager.add_var(var + NEXT_SUFFIX)

    signals: Dict[str, Function] = {
        var: Function.var(manager, var) for var in state_vars
    }
    for define in lowered:
        _define_fn(manager, define, lowered, signals)
    atom = signals.__getitem__

    # Transition relation: one conjunct per latch (``latch' <-> f``);
    # free inputs contribute no conjunct (their next value is
    # unconstrained).  The partition keeps the conjuncts separate;
    # mono mode conjoins them here, eagerly.
    conjuncts = [
        Function.var(manager, latch + NEXT_SUFFIX).iff(
            _symbolize(manager, expr, atom)
        )
        for latch, expr in latch_next.items()
    ]
    partition = (
        TransitionPartition(conjuncts, labels=list(latches)) if conjuncts else None
    )
    transition: Optional[Function] = None
    if partition is None:
        transition = Function.true(manager)  # no latches: inputs only
    elif config.trans == TRANS_MONO:
        transition = partition.monolithic()

    # One cube, not a fold of literals: conjoining each latch's literal
    # into the running product rebuilds it per latch (~n²/2 nodes).
    init = Function(manager, manager.cube(
        {manager.var_id(latch): reset for latch, (reset, _next) in latches.items()}
    ))

    return FSM(
        manager=manager,
        name=name,
        state_vars=state_vars,
        inputs=inputs,
        transition=transition,
        partition=partition,
        trans_mode=config.trans if partition is not None else TRANS_MONO,
        init=init,
        signals=signals,
        signal_exprs={**{var: Var(var) for var in state_vars}, **defines},
        words=words,
        fairness=[_symbolize(manager, expr, atom) for expr in fairness_exprs],
        latch_next_exprs={latch: next_ for latch, (_init, next_) in latches.items()},
    )
