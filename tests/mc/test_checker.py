"""Unit tests for the symbolic CTL model checker on known structures."""


from repro.ctl import parse_ctl
from repro.fsm import ExplicitGraph
from repro.mc import ModelChecker

from ..builtins import rml_fsm

#: A mod-3 counter that holds its count while ``stall`` is high.
STALL_COUNTER_RML = """
MODULE counter
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
"""


def chain_graph():
    """s0 -> s1 -> s2 -> s3 (self-loop), labels: p on s0-s2, q on s3."""
    g = ExplicitGraph("chain")
    g.state("s0", labels={"p"}, initial=True)
    g.state("s1", labels={"p"})
    g.state("s2", labels={"p"})
    g.state("s3", labels={"q"})
    g.edge("s0", "s1")
    g.edge("s1", "s2")
    g.edge("s2", "s3")
    g.self_loop_terminal_states()
    return g


def branch_graph():
    """s0 branches to a q-path and a !q lasso."""
    g = ExplicitGraph("branch")
    g.state("s0", labels={"p"}, initial=True)
    g.state("s1", labels={"p"})
    g.state("s2", labels={"q"})
    g.state("s3", labels=set())
    g.edge("s0", "s1")
    g.edge("s1", "s2")
    g.edge("s0", "s3")
    g.edge("s3", "s3")
    g.self_loop_terminal_states()
    return g


class TestBasicOperators:
    def test_atom_sat(self):
        g = chain_graph()
        fsm = g.to_fsm()
        mc = ModelChecker(fsm)
        sat = mc.sat(parse_ctl("p"))
        assert g.set_to_states(fsm, sat) == {"s0", "s1", "s2"}

    def test_ax(self):
        g = chain_graph()
        fsm = g.to_fsm()
        mc = ModelChecker(fsm)
        sat = mc.sat(parse_ctl("AX p"))
        # Successors: s0->s1(p), s1->s2(p), s2->s3(!p), s3->s3(!p)
        assert g.set_to_states(fsm, sat) >= {"s0", "s1"}
        assert "s2" not in g.set_to_states(fsm, sat)

    def test_ag(self):
        g = chain_graph()
        fsm = g.to_fsm()
        mc = ModelChecker(fsm)
        sat = mc.sat(parse_ctl("AG q"))
        assert g.set_to_states(fsm, sat) == {"s3"}

    def test_af(self):
        g = chain_graph()
        fsm = g.to_fsm()
        mc = ModelChecker(fsm)
        assert mc.holds(parse_ctl("AF q"))

    def test_af_fails_on_branch(self):
        g = branch_graph()
        fsm = g.to_fsm()
        mc = ModelChecker(fsm)
        # The s3 lasso never reaches q.
        assert not mc.holds(parse_ctl("AF q"))

    def test_au(self):
        g = chain_graph()
        fsm = g.to_fsm()
        mc = ModelChecker(fsm)
        assert mc.holds(parse_ctl("A [p U q]"))

    def test_au_fails_when_p_drops(self):
        g = branch_graph()
        fsm = g.to_fsm()
        mc = ModelChecker(fsm)
        assert not mc.holds(parse_ctl("A [p U q]"))

    def test_ef_eg_ex(self):
        g = branch_graph()
        fsm = g.to_fsm()
        mc = ModelChecker(fsm)
        assert mc.holds(parse_ctl("EF q"))
        assert mc.holds(parse_ctl("EG !q"))
        assert mc.holds(parse_ctl("EX p"))

    def test_eu(self):
        g = branch_graph()
        fsm = g.to_fsm()
        mc = ModelChecker(fsm)
        assert mc.holds(parse_ctl("E [p U q]"))

    def test_nested_temporal(self):
        g = chain_graph()
        fsm = g.to_fsm()
        mc = ModelChecker(fsm)
        assert mc.holds(parse_ctl("AX AX AX q"))
        assert mc.holds(parse_ctl("AG (q -> AX q)"))


class TestVacuityAndEdgeCases:
    def test_true_false(self):
        fsm = chain_graph().to_fsm()
        mc = ModelChecker(fsm)
        assert mc.holds(parse_ctl("true"))
        assert not mc.holds(parse_ctl("false"))
        assert mc.holds(parse_ctl("AG true"))

    def test_implication_vacuous(self):
        fsm = chain_graph().to_fsm()
        mc = ModelChecker(fsm)
        assert mc.holds(parse_ctl("AG (q & p -> AX false)"))  # q&p empty

    def test_memoization_shares_subformulas(self):
        fsm = chain_graph().to_fsm()
        mc = ModelChecker(fsm)
        f = parse_ctl("AG (p -> AX p | AX q)")
        first = mc.sat(f)
        nodes_before = fsm.manager.created_nodes
        second = mc.sat(f)
        assert first == second
        assert fsm.manager.created_nodes == nodes_before  # pure cache hit

    def test_memoize_disabled(self):
        fsm = chain_graph().to_fsm()
        mc = ModelChecker(fsm, memoize=False)
        f = parse_ctl("AF q")
        assert mc.sat(f) == mc.sat(f)
        assert not mc._sat_cache


class TestCheckResult:
    def test_passing_check(self):
        fsm = chain_graph().to_fsm()
        mc = ModelChecker(fsm)
        result = mc.check(parse_ctl("AF q"))
        assert result.holds
        assert result.counterexample is None
        assert result.stats.seconds >= 0

    def test_failing_ag_has_trace(self):
        g = chain_graph()
        fsm = g.to_fsm()
        mc = ModelChecker(fsm)
        result = mc.check(parse_ctl("AG p"))
        assert not result.holds
        assert result.counterexample is not None
        # Trace must end in the !p state (s3) and start at the initial state.
        last = result.counterexample[-1]
        assert g.set_to_states(
            fsm, fsm.state_cube(last)
        ) == {"s3"}
        assert len(result.counterexample) == 4

    def test_failing_non_ag_reports_initial_state(self):
        fsm = branch_graph().to_fsm()
        mc = ModelChecker(fsm)
        result = mc.check(parse_ctl("AX q"))
        assert not result.holds
        assert len(result.counterexample) == 1

    def test_check_all(self):
        fsm = chain_graph().to_fsm()
        mc = ModelChecker(fsm)
        results = mc.check_all([parse_ctl("AF q"), parse_ctl("AG p")])
        assert [r.holds for r in results] == [True, False]


class TestOnCircuit:
    def build(self):
        return rml_fsm(STALL_COUNTER_RML)

    def test_counter_increments(self):
        fsm = self.build()
        mc = ModelChecker(fsm)
        assert mc.holds(parse_ctl("AG (!stall & c = 0 -> AX c = 1)"))
        assert mc.holds(parse_ctl("AG (!stall & c = 2 -> AX c = 0)"))
        assert mc.holds(parse_ctl("AG (stall & c = 1 -> AX c = 1)"))
        assert not mc.holds(parse_ctl("AG (c = 0 -> AX c = 1)"))  # stall!

    def test_counter_never_three(self):
        fsm = self.build()
        mc = ModelChecker(fsm)
        assert mc.holds(parse_ctl("AG c != 3"))

    def test_counter_af_needs_fairness(self):
        fsm = self.build()
        mc = ModelChecker(fsm)
        # Without fairness the counter can stall forever.
        assert not mc.holds(parse_ctl("AF c = 2"))


class TestFairness:
    def build_fair_counter(self):
        return rml_fsm(STALL_COUNTER_RML + "FAIRNESS !stall;\n")

    def test_af_holds_under_fairness(self):
        fsm = self.build_fair_counter()
        mc = ModelChecker(fsm)
        assert mc.holds(parse_ctl("AF c = 2"))

    def test_fairness_can_be_ignored(self):
        fsm = self.build_fair_counter()
        mc = ModelChecker(fsm, use_fairness=False)
        assert not mc.holds(parse_ctl("AF c = 2"))

    def test_fair_states_all_here(self):
        fsm = self.build_fair_counter()
        mc = ModelChecker(fsm)
        # Every state can continue with infinitely many !stall steps.
        assert mc.fair_states().is_true()

    def test_eg_fair_excludes_unfair_lassos(self):
        # A graph where the only way to satisfy EG p is an unfair loop.
        g = ExplicitGraph("unfair")
        g.state("a", labels={"p"}, initial=True)
        g.state("b", labels={"p", "f"})
        g.edge("a", "a")       # p-loop but never fair
        g.edge("a", "b")
        g.edge("b", "b")       # fair p-loop
        fsm = g.to_fsm()
        fsm.fairness = [fsm.signal("f")]
        mc = ModelChecker(fsm)
        sat = mc.sat(parse_ctl("EG p"))
        assert g.set_to_states(fsm, sat) == {"a", "b"}
        # Now make b not-p: a's only fair continuation leaves p.
        g2 = ExplicitGraph("unfair2")
        g2.state("a", labels={"p"}, initial=True)
        g2.state("b", labels={"f"})
        g2.edge("a", "a")
        g2.edge("a", "b")
        g2.edge("b", "b")
        fsm2 = g2.to_fsm()
        fsm2.fairness = [fsm2.signal("f")]
        mc2 = ModelChecker(fsm2)
        sat2 = mc2.sat(parse_ctl("EG p"))
        assert g2.set_to_states(fsm2, sat2) == set()
