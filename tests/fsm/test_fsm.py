"""Tests for FSM image operators, reachability, traces, and formatting."""

import pytest

from repro.errors import ModelError
from repro.expr import parse_expr

from ..builtins import rml_fsm


def build_chain(length=4):
    """A one-hot-ish chain: counter that saturates at `length`."""
    import math

    width = max(1, math.ceil(math.log2(length + 1)))
    return rml_fsm(f"""
MODULE chain
VAR
  p : word[{width}];
ASSIGN
  init(p) := 0;
  next(p) := case
    p = {length} : p;
    TRUE : p + 1;
  esac;
""")


class TestImageOperators:
    def test_image_preimage_adjoint(self):
        fsm = build_chain(3)
        one = fsm.symbolize(parse_expr("p = 1"))
        two = fsm.symbolize(parse_expr("p = 2"))
        assert fsm.image(one) == two
        assert fsm.preimage(two) == one

    def test_image_of_empty_is_empty(self):
        fsm = build_chain(3)
        assert fsm.image(fsm.empty_set()).is_false()

    def test_forward_alias(self):
        fsm = build_chain(3)
        s = fsm.symbolize(parse_expr("p = 0"))
        assert fsm.forward(s) == fsm.image(s)


class TestReachability:
    def test_reachable_counts(self):
        fsm = build_chain(3)
        assert fsm.count_states(fsm.reachable()) == 4  # 0..3

    def test_reachable_from_midpoint(self):
        fsm = build_chain(3)
        two = fsm.symbolize(parse_expr("p = 2"))
        reach = fsm.reachable_from(two)
        # From 2: {2, 3} (saturating).
        assert fsm.count_states(reach) == 2
        assert two.subseteq(reach)

    def test_reachable_from_includes_start_even_without_selfloop(self):
        fsm = build_chain(3)
        zero = fsm.symbolize(parse_expr("p = 0"))
        assert zero.subseteq(fsm.reachable_from(zero))

    def test_rings_partition_reachable(self):
        fsm = build_chain(3)
        rings = fsm.rings()
        union = fsm.empty_set()
        for i, ring in enumerate(rings):
            for j in range(i):
                assert not ring.intersects(rings[j]), "rings must be disjoint"
            union = union | ring
        assert union == fsm.reachable()

    def test_ring_k_is_distance_k(self):
        fsm = build_chain(3)
        rings = fsm.rings()
        for value, ring in enumerate(rings):
            assert ring == fsm.symbolize(parse_expr(f"p = {value}"))


class TestTraces:
    def test_shortest_trace_length(self):
        fsm = build_chain(3)
        target = fsm.symbolize(parse_expr("p = 3"))
        trace = fsm.shortest_trace(target)
        assert trace is not None
        assert len(trace) == 4  # 0 -> 1 -> 2 -> 3
        values = [sum((1 << i) for i in range(2) if s[f"p{i}"]) for s in trace]
        assert values == [0, 1, 2, 3]

    def test_trace_to_unreachable_is_none(self):
        fsm = build_chain(3)
        # Need a wider word to express 5; use raw cube: p=5 needs 3 bits, so
        # instead pick an unreachable-but-encodable value via state_cube.
        unreachable = fsm.state_cube({"p0": False, "p1": False}) & fsm.symbolize(
            parse_expr("p = 2")
        )
        assert unreachable.is_false()
        assert fsm.shortest_trace(unreachable) is None

    def test_trace_steps_follow_transition(self):
        fsm = build_chain(3)
        target = fsm.symbolize(parse_expr("p = 2"))
        trace = fsm.shortest_trace(target)
        for a, b in zip(trace, trace[1:]):
            step = fsm.image(fsm.state_cube(a))
            assert fsm.state_cube(b).subseteq(step)


class TestStateHelpers:
    def test_state_cube_roundtrip(self):
        fsm = build_chain(3)
        cube = fsm.state_cube({"p0": True, "p1": False})
        states = list(fsm.iter_states(cube))
        assert states == [{"p0": True, "p1": False}]

    def test_state_cube_missing_var_rejected(self):
        fsm = build_chain(3)
        with pytest.raises(ModelError):
            fsm.state_cube({"p0": True})

    def test_format_state_recomposes_words(self):
        fsm = build_chain(3)
        text = fsm.format_state({"p0": True, "p1": True})
        assert "p=3" in text

    def test_unknown_signal_raises(self):
        fsm = build_chain(3)
        with pytest.raises(ModelError):
            fsm.signal("nope")

    def test_count_states(self):
        fsm = build_chain(3)
        assert fsm.count_states(fsm.true_set()) == 4
        assert fsm.count_states(fsm.empty_set()) == 0


class TestSymbolizeFlip:
    def test_flip_negates_signal_occurrences(self):
        fsm = build_chain(3)
        b = parse_expr("p0 & p1")
        flipped = fsm.symbolize(b, flip=frozenset({"p0"}))
        assert flipped == fsm.symbolize(parse_expr("!p0 & p1"))

    def test_flip_does_not_touch_other_signals(self):
        fsm = build_chain(3)
        b = parse_expr("p1")
        assert fsm.symbolize(b, flip=frozenset({"p0"})) == fsm.signal("p1")
