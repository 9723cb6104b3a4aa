"""Three-valued constant folding over expressions and word values.

The folder evaluates an :class:`~repro.expr.ast.Expr` against an *env*
of facts known to hold in every reachable state (``name -> bool`` for
boolean latches, ``name -> int`` for word latches), returning ``True``,
``False``, or ``None`` for "not statically determined".  DEFINE bodies
are expanded transparently (with a cycle guard), and word comparisons
are width-aware: ``count <= 15`` on a 4-bit ``count`` folds to ``True``
no matter what the latch does, which is exactly the shape RML006 flags.

``constant_env`` computes the env itself as a *greatest* fixpoint:
start by optimistically assuming every latch holds its reset value
forever, then strike any latch whose next-state logic can leave that
value under the surviving assumptions.  At the fixpoint the facts are
mutually consistent — the initial state satisfies them and every
transition preserves them — so they are sound for all reachable states,
and mutually-reinforcing constant latches (``next(a) := b`` with
``next(b) := a``, both reset to 0) are caught.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple, Union

from ..expr.ast import (
    And,
    Const,
    Expr,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    WordCmp,
    Xor,
)
from ..lang.ast import Case, Module, WordConst, WordOffset, WordRef, WordSum
from ..lang.symbols import KIND_DEFINE, KIND_LATCH, SymbolTable

__all__ = [
    "ConstEnv",
    "fold_expr",
    "fold_word",
    "cmp_constant_by_width",
    "constant_env",
]

#: Facts known in every reachable state: bool for boolean signals,
#: int for word registers.
ConstEnv = Dict[str, Union[bool, int]]


def cmp_constant_by_width(
    op: str, rhs: int, width: int
) -> Optional[bool]:
    """The comparison's outcome if ``width`` alone decides it.

    An unsigned ``width``-bit word ranges over ``0 .. 2**width - 1``;
    comparisons against literals outside (or at the edge of) that range
    are constant regardless of the register's behaviour.
    """
    top = (1 << width) - 1
    if op == "==":
        return False if rhs > top else None
    if op == "!=":
        return True if rhs > top else None
    if op == "<":
        if rhs == 0:
            return False
        return True if rhs > top else None
    if op == "<=":
        return True if rhs >= top else None
    if op == ">":
        return False if rhs >= top else None
    if op == ">=":
        if rhs == 0:
            return True
        return False if rhs > top else None
    return None


def _apply_cmp(op: str, lhs: int, rhs: int) -> Optional[bool]:
    if op == "==":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    return None


def fold_word(
    name: str,
    table: SymbolTable,
    env: ConstEnv,
    _guard: FrozenSet[str] = frozenset(),
) -> Optional[int]:
    """The constant value of word signal ``name`` under ``env``, if any."""
    if name in _guard:
        return None
    if name in env:
        return int(env[name])
    symbol = table.symbols.get(name)
    if symbol is None or symbol.kind != KIND_DEFINE:
        return None
    define = next(
        (d for d in table.module.defines if d.name == name), None
    )
    if define is None or not isinstance(define.value, WordSum):
        return None
    guard = _guard | {name}
    lhs = fold_word(define.value.lhs, table, env, guard)
    rhs = fold_word(define.value.rhs, table, env, guard)
    if lhs is None or rhs is None:
        return None
    return lhs + rhs  # word sums widen by one bit: no wraparound


def fold_expr(
    expr: Expr,
    table: SymbolTable,
    env: ConstEnv,
    _guard: FrozenSet[str] = frozenset(),
) -> Optional[bool]:
    """Three-valued evaluation of ``expr`` under ``env``."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return _fold_name(expr.name, table, env, _guard)
    if isinstance(expr, Not):
        inner = fold_expr(expr.operand, table, env, _guard)
        return None if inner is None else not inner
    if isinstance(expr, And):
        result: Optional[bool] = True
        for arg in expr.args:
            value = fold_expr(arg, table, env, _guard)
            if value is False:
                return False
            if value is None:
                result = None
        return result
    if isinstance(expr, Or):
        result = False
        for arg in expr.args:
            value = fold_expr(arg, table, env, _guard)
            if value is True:
                return True
            if value is None:
                result = None
        return result
    if isinstance(expr, Xor):
        lhs = fold_expr(expr.lhs, table, env, _guard)
        rhs = fold_expr(expr.rhs, table, env, _guard)
        if lhs is None or rhs is None:
            return None
        return lhs != rhs
    if isinstance(expr, Iff):
        lhs = fold_expr(expr.lhs, table, env, _guard)
        rhs = fold_expr(expr.rhs, table, env, _guard)
        if lhs is None or rhs is None:
            return None
        return lhs == rhs
    if isinstance(expr, Implies):
        lhs = fold_expr(expr.lhs, table, env, _guard)
        if lhs is False:
            return True
        rhs = fold_expr(expr.rhs, table, env, _guard)
        if lhs is True:
            return rhs
        return True if rhs is True else None
    if isinstance(expr, WordCmp):
        return _fold_cmp(expr, table, env, _guard)
    return None


def _fold_name(
    name: str,
    table: SymbolTable,
    env: ConstEnv,
    guard: FrozenSet[str],
) -> Optional[bool]:
    if name in guard:
        return None
    if name in env and isinstance(env[name], bool):
        return bool(env[name])
    symbol = table.symbols.get(name)
    if symbol is not None and symbol.kind == KIND_DEFINE and not symbol.is_word:
        define = next(
            (d for d in table.module.defines if d.name == name), None
        )
        if define is not None and isinstance(define.value, Expr):
            return fold_expr(define.value, table, env, guard | {name})
        return None
    # Implicit bit of a constant word: bit i of its parent's value.
    owner = table.bit_owner.get(name)
    if owner is not None and name not in table.symbols:
        value = fold_word(owner, table, env, guard)
        if value is not None:
            bit = int(name[len(owner):])
            return bool((value >> bit) & 1)
    return None


def _fold_cmp(
    expr: WordCmp,
    table: SymbolTable,
    env: ConstEnv,
    guard: FrozenSet[str],
) -> Optional[bool]:
    width = table.width_of(expr.lhs)
    lhs_value = fold_word(expr.lhs, table, env, guard)
    if lhs_value is None and width == 1:
        as_bool = _fold_name(expr.lhs, table, env, guard)
        if as_bool is not None:
            lhs_value = int(as_bool)
    if isinstance(expr.rhs, str):
        rhs_value = fold_word(expr.rhs, table, env, guard)
        if lhs_value is not None and rhs_value is not None:
            return _apply_cmp(expr.op, lhs_value, rhs_value)
        return None
    if lhs_value is not None:
        return _apply_cmp(expr.op, lhs_value, int(expr.rhs))
    if width is not None:
        return cmp_constant_by_width(expr.op, int(expr.rhs), width)
    return None


def _init_value(module: Module, name: str, is_word: bool) -> Union[bool, int]:
    init = next((i for i in module.inits if i.target == name), None)
    if is_word:
        return int(init.value) if init is not None else 0
    return bool(init.value) if init is not None else False


def _latch_stays_constant(
    assign_value,
    latch: str,
    table: SymbolTable,
    env: ConstEnv,
) -> bool:
    """True when, under ``env``, the latch's next value always folds to
    the value ``env`` assumes for it (self-holds fold via ``env[latch]``
    itself, so they need no special case)."""
    assumed = env[latch]
    arms: Tuple = (
        tuple((arm.condition, arm.value) for arm in assign_value.arms)
        if isinstance(assign_value, Case)
        else ((Const(True), assign_value),)
    )
    for condition, value in arms:
        if fold_expr(condition, table, env) is False:
            continue  # statically dead arm cannot fire
        if isinstance(assumed, bool):
            if not isinstance(value, Expr):
                return False
            if fold_expr(value, table, env) is not assumed:
                return False
        else:
            if isinstance(value, WordConst):
                folded: Optional[int] = value.value
            elif isinstance(value, WordRef):
                folded = fold_word(value.name, table, env)
            elif isinstance(value, WordOffset):
                base = fold_word(value.name, table, env)
                width = table.width_of(value.name) or 1
                folded = (
                    (base + value.offset) % (1 << width)
                    if base is not None
                    else None
                )
            else:
                folded = None
            if folded != assumed:
                return False
    return True


def constant_env(module: Module, table: SymbolTable) -> ConstEnv:
    """Latches provably stuck at their reset value, as a fact env.

    Greatest-fixpoint refinement: assume every latch constant at init,
    then repeatedly strike latches whose next-state logic can escape
    under the surviving assumptions, until stable.
    """
    values = {a.target: a.value for a in module.nexts}
    env: ConstEnv = {}
    for symbol in table.symbols.values():
        if symbol.kind == KIND_LATCH:
            env[symbol.name] = _init_value(
                module, symbol.name, symbol.is_word
            )
    changed = True
    while changed:
        changed = False
        for latch in sorted(env):
            if not _latch_stays_constant(values[latch], latch, table, env):
                del env[latch]
                changed = True
    return env
