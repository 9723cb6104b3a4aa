"""Tests for explicit models, toy graphs, and the explicit<->symbolic bridge."""

import pytest

from repro.errors import ModelError
from repro.expr import parse_expr
from repro.fsm import ExplicitGraph, enumerate_model

from ..builtins import rml_fsm


def diamond_graph():
    g = ExplicitGraph("diamond")
    g.state("s0", labels={"p"}, initial=True)
    g.state("s1", labels={"p"})
    g.state("s2", labels={"q"})
    g.state("s3", labels={"p", "q"})
    g.edge("s0", "s1")
    g.edge("s0", "s2")
    g.edge("s1", "s3")
    g.edge("s2", "s3")
    g.self_loop_terminal_states()
    return g


class TestExplicitGraph:
    def test_duplicate_state_rejected(self):
        g = ExplicitGraph()
        g.state("a")
        with pytest.raises(ModelError):
            g.state("a")

    def test_edge_to_unknown_state_rejected(self):
        g = ExplicitGraph()
        g.state("a")
        with pytest.raises(ModelError):
            g.edge("a", "b")

    def test_model_requires_initial(self):
        g = ExplicitGraph()
        g.state("a")
        g.edge("a", "a")
        with pytest.raises(ModelError):
            g.to_model()

    def test_model_requires_total_relation(self):
        g = ExplicitGraph()
        g.state("a", initial=True)
        with pytest.raises(ModelError):
            g.to_model()

    def test_self_loop_totalises(self):
        g = ExplicitGraph()
        g.state("a", initial=True)
        g.self_loop_terminal_states()
        model = g.to_model()
        assert model.successors[0] == [0]

    def test_model_structure(self):
        model = diamond_graph().to_model()
        assert model.n == 4
        assert model.initial == {0}
        assert sorted(model.successors[0]) == [1, 2]
        # s3 has a self-loop added by self_loop_terminal_states().
        assert sorted(model.predecessors[3]) == [1, 2, 3]

    def test_states_satisfying(self):
        model = diamond_graph().to_model()
        p_states = model.states_satisfying(parse_expr("p"))
        assert p_states == {0, 1, 3}
        pq = model.states_satisfying(parse_expr("p & q"))
        assert pq == {3}

    def test_eval_atom_with_override(self):
        model = diamond_graph().to_model()
        q_prime = model.signal_vector("q")
        q_prime[2] = not q_prime[2]
        assert model.eval_atom(
            parse_expr("q'"), 2, overrides={"q'": q_prime}
        ) is False
        assert model.eval_atom(
            parse_expr("q'"), 3, overrides={"q'": q_prime}
        ) is True


class TestSymbolicBridge:
    def test_fsm_reachability_matches_graph(self):
        g = diamond_graph()
        fsm = g.to_fsm()
        reach_names = g.set_to_states(fsm, fsm.reachable())
        assert reach_names == {"s0", "s1", "s2", "s3"}

    def test_signals_match_labels(self):
        g = diamond_graph()
        fsm = g.to_fsm()
        p_states = g.set_to_states(fsm, fsm.signal("p"))
        assert p_states == {"s0", "s1", "s3"}

    def test_image_matches_edges(self):
        g = diamond_graph()
        fsm = g.to_fsm()
        s0 = g.states_to_set(fsm, ["s0"])
        succ = g.set_to_states(fsm, fsm.image(s0))
        assert succ == {"s1", "s2"}

    def test_roundtrip_states_to_set(self):
        g = diamond_graph()
        fsm = g.to_fsm()
        subset = g.states_to_set(fsm, ["s1", "s3"])
        assert g.set_to_states(fsm, subset) == {"s1", "s3"}

    def test_unused_encodings_unreachable(self):
        g = ExplicitGraph("three")
        g.state("a", initial=True)
        g.state("b")
        g.state("c")
        g.edge("a", "b")
        g.edge("b", "c")
        g.edge("c", "a")
        fsm = g.to_fsm()
        # 2-bit encoding has 4 codes; only 3 states reachable.
        assert fsm.count_states(fsm.reachable()) == 3


class TestEnumerateModel:
    def build_counter(self):
        return rml_fsm("""
MODULE mod3
VAR
  stall : boolean;
  c : word[2];
ASSIGN
  init(c) := 0;
  next(c) := case
    stall : c;
    c = 2 : 0;
    TRUE : c + 1;
  esac;
DEFINE
  top := c = 2;
""")

    def test_enumeration_matches_symbolic_reachability(self):
        fsm = self.build_counter()
        model = enumerate_model(fsm)
        assert model.n == fsm.count_states(fsm.reachable())

    def test_initial_states(self):
        fsm = self.build_counter()
        model = enumerate_model(fsm)
        # c=0 with stall free -> 2 initial states
        assert len(model.initial) == 2

    def test_defines_labelled(self):
        fsm = self.build_counter()
        model = enumerate_model(fsm)
        top = model.states_satisfying(parse_expr("top"))
        c2 = model.states_satisfying(parse_expr("c = 2"))
        assert top == c2
        assert len(top) == 2  # stall free

    def test_successor_structure_matches_symbolic_image(self):
        fsm = self.build_counter()
        model = enumerate_model(fsm)
        # For every explicit state, the symbolic image of its cube must be
        # exactly its successor set.
        for i in range(model.n):
            state = {v: model.signal_values[i][v] for v in fsm.state_vars}
            symbolic = fsm.image(fsm.state_cube(state))
            explicit = set()
            for j in model.successors[i]:
                explicit.add(tuple(model.signal_values[j][v] for v in fsm.state_vars))
            symbolic_states = {
                tuple(s[v] for v in fsm.state_vars)
                for s in fsm.iter_states(symbolic)
            }
            assert symbolic_states == explicit

    def test_limit_enforced(self):
        fsm = self.build_counter()
        with pytest.raises(ModelError):
            enumerate_model(fsm, limit=2)

    def test_relation_fsm_rejected(self):
        g = diamond_graph()
        fsm = g.to_fsm()
        with pytest.raises(ModelError):
            enumerate_model(fsm)
