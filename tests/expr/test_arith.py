"""Property-based tests for the RTL arithmetic builders against integers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EvaluationError
from repro.expr import evaluate, int_to_bits
from repro.expr.arith import add_const_bits, add_words_bits, const_bits, mux
from repro.expr.ast import Var

WIDTH = 4
BITS = [f"b{i}" for i in range(WIDTH)]


def env_for(value, extra=None):
    env = {name: bit for name, bit in zip(BITS, int_to_bits(value, WIDTH))}
    if extra:
        env.update(extra)
    return env


def eval_word(exprs, env):
    return sum((1 << i) for i, e in enumerate(exprs) if evaluate(e, env))


class TestMux:
    def test_select_true(self):
        m = mux(Var("s"), Var("a"), Var("b"))
        assert evaluate(m, {"s": True, "a": True, "b": False}) is True
        assert evaluate(m, {"s": True, "a": False, "b": True}) is False

    def test_select_false(self):
        m = mux(Var("s"), Var("a"), Var("b"))
        assert evaluate(m, {"s": False, "a": True, "b": False}) is False
        assert evaluate(m, {"s": False, "a": False, "b": True}) is True


class TestConstBits:
    def test_round_trip(self):
        for value in range(8):
            exprs = const_bits(value, 3)
            assert eval_word(exprs, {}) == value

    def test_overflow_rejected(self):
        with pytest.raises(EvaluationError):
            const_bits(8, 3)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 15), st.integers(0, 31))
def test_add_const(value, constant):
    exprs = add_const_bits(BITS, constant)
    assert eval_word(exprs, env_for(value)) == (value + constant) % 16


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15))
def test_add_words(a, b):
    a_bits = [f"a{i}" for i in range(WIDTH)]
    b_bits = [f"c{i}" for i in range(WIDTH)]
    env = {n: v for n, v in zip(a_bits, int_to_bits(a, WIDTH))}
    env.update({n: v for n, v in zip(b_bits, int_to_bits(b, WIDTH))})
    exprs = add_words_bits(a_bits, b_bits)
    assert len(exprs) == WIDTH + 1  # no overflow
    assert eval_word(exprs, env) == a + b
