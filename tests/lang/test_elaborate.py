"""Tests for module elaboration (repro.lang.elaborate)."""

import pytest

from repro.coverage import CoverageEstimator
from repro.errors import ParseError
from repro.lang import elaborate, parse_module
from repro.mc import ModelChecker

COUNTER = """
MODULE counter_mod5
VAR
  stall : boolean;
  reset : boolean;
  count : word[3];
ASSIGN
  init(count) := 0;
  next(count) := case
    reset : 0;
    stall : count;
    count = 4 : 0;
    TRUE : count + 1;
  esac;
OBSERVED count;
"""


class TestStructure:
    def test_vars_partition_into_latches_and_inputs(self):
        model = elaborate(parse_module(COUNTER))
        fsm = model.fsm
        assert set(fsm.inputs) == {"stall", "reset"}
        assert set(fsm.latches) == {"count0", "count1", "count2"}
        assert fsm.words["count"] == ["count0", "count1", "count2"]
        assert model.observed == ["count"]

    def test_word_input(self):
        source = (
            "MODULE m\nVAR\n  sel : word[2];\n  x : boolean;\n"
            "ASSIGN\n  next(x) := sel = 3;\n"
        )
        fsm = elaborate(parse_module(source)).fsm
        assert set(fsm.inputs) == {"sel0", "sel1"}

    def test_defines_and_word_sum(self):
        source = """
MODULE m
VAR
  a : word[2];
  b : word[2];
  x : boolean;
ASSIGN
  next(a) := a;
  next(b) := b;
  next(x) := total = 6;
DEFINE
  total := a + b;
  maxed := total = 6;
"""
        fsm = elaborate(parse_module(source)).fsm
        # a + b needs one extra bit beyond the widest operand
        assert fsm.words["total"] == ["total0", "total1", "total2"]
        assert "maxed" in fsm.signals

    def test_fairness_and_dontcare_pass_through(self):
        source = (
            "MODULE m\nVAR\n  s : boolean;\n  x : boolean;\n"
            "ASSIGN\n  next(x) := !s;\nFAIRNESS !s;\nDONTCARE x;\n"
        )
        model = elaborate(parse_module(source))
        assert len(model.fsm.fairness) == 1
        assert model.dont_care is not None


class TestSemantics:
    def test_counter_behaviour_matches_python_builder(self):
        from repro.circuits import build_counter, counter_properties

        model = elaborate(parse_module(COUNTER))
        props = counter_properties()
        checker = ModelChecker(model.fsm)
        assert all(checker.holds(p) for p in props)
        report = CoverageEstimator(model.fsm, checker=checker).estimate(
            props, observed="count"
        )
        reference = CoverageEstimator(build_counter()).estimate(
            props, observed="count"
        )
        assert report.percentage == reference.percentage == 100.0
        assert report.space_count == reference.space_count

    def test_init_defaults_to_zero(self):
        source = (
            "MODULE m\nVAR\n  w : word[2];\n  x : boolean;\n"
            "ASSIGN\n  next(w) := w + 1;\n  next(x) := !x;\n"
        )
        fsm = elaborate(parse_module(source)).fsm
        states = list(fsm.iter_states(fsm.init))
        assert len(states) == 1
        assert all(not value for value in states[0].values())

    def test_case_priority_is_first_match_wins(self):
        source = """
MODULE m
VAR
  a : boolean;
  w : word[2];
ASSIGN
  init(w) := 0;
  next(w) := case
    a : 1;
    TRUE : 2;
  esac;
"""
        fsm = elaborate(parse_module(source)).fsm
        image = fsm.image(fsm.init & fsm.signal("a"))
        values = {
            (state["w0"], state["w1"]) for state in fsm.iter_states(image)
        }
        # a held in the start state, so the first arm fires: w' = 1
        assert values == {(True, False)}

    def test_word_offset_wraps(self):
        source = (
            "MODULE m\nVAR\n  u : boolean;\n  w : word[2];\n"
            "ASSIGN\n  init(w) := 0;\n  next(w) := w - 1;\n"
        )
        fsm = elaborate(parse_module(source)).fsm
        image = fsm.image(fsm.init)
        values = {
            (state["w0"], state["w1"]) for state in fsm.iter_states(image)
        }
        assert values == {(True, True)}  # 0 - 1 wraps to 3


class TestValidation:
    def err(self, source):
        with pytest.raises(ParseError) as info:
            elaborate(parse_module(source))
        return info.value

    def test_unknown_signal_in_next(self):
        err = self.err(
            "MODULE m\nVAR\n  x : boolean;\nASSIGN\n  next(x) := zz;\n"
        )
        assert "unknown signal 'zz'" in str(err)
        assert err.line == 5

    def test_unknown_observed(self):
        err = self.err(
            "MODULE m\nVAR\n  x : boolean;\nASSIGN\n  next(x) := x;\n"
            "OBSERVED nope;\n"
        )
        assert "unknown OBSERVED signal 'nope'" in str(err)

    def test_unknown_signal_in_spec(self):
        err = self.err(
            "MODULE m\nVAR\n  x : boolean;\nASSIGN\n  next(x) := x;\n"
            "SPEC AG (ghost -> AX x);\n"
        )
        assert "unknown signal 'ghost' in SPEC" in str(err)
        assert err.line == 6

    def test_init_on_free_input(self):
        err = self.err(
            "MODULE m\nVAR\n  x : boolean;\n  y : boolean;\n"
            "ASSIGN\n  init(x) := TRUE;\n  next(y) := x;\n"
        )
        assert "free inputs take no reset value" in str(err)

    def test_non_exhaustive_case(self):
        err = self.err(
            "MODULE m\nVAR\n  w : word[2];\nASSIGN\n"
            "  next(w) := case\n    w = 0 : 1;\n  esac;\n"
        )
        assert "not exhaustive" in str(err)

    def test_word_constant_out_of_range(self):
        err = self.err(
            "MODULE m\nVAR\n  u : boolean;\n  w : word[2];\nASSIGN\n"
            "  next(w) := case u : 7; TRUE : w; esac;\n"
        )
        assert "out of range" in str(err)

    def test_offset_width_mismatch(self):
        err = self.err(
            "MODULE m\nVAR\n  a : word[2];\n  w : word[3];\nASSIGN\n"
            "  next(a) := a;\n  next(w) := a + 1;\n"
        )
        assert "matching widths" in str(err)

    def test_word_sum_outside_define(self):
        err = self.err(
            "MODULE m\nVAR\n  a : word[2];\nASSIGN\n  next(a) := a + a;\n"
        )
        # `a + a` parses as an offset target error: the parser sees
        # ident + ident and rejects it as a word value.
        assert "constant" in str(err) or "word" in str(err)

    def test_word_sum_unknown_operand(self):
        err = self.err(
            "MODULE m\nVAR\n  a : word[2];\nASSIGN\n  next(a) := a;\n"
            "DEFINE\n  t := a + ghost;\n"
        )
        assert "not a known word" in str(err)

    def test_unknown_signal_in_define_reads_as_lint_reports_it(self):
        err = self.err(
            "MODULE m\nVAR\n  x : boolean;\nASSIGN\n  next(x) := x;\n"
            "DEFINE\n  d := x & ghost;\n"
        )
        assert str(err) == "<module>:7:3: unknown signal 'ghost' in DEFINE d"

    def test_define_cycle_is_a_located_parse_error(self):
        err = self.err(
            "MODULE m\nVAR\n  x : boolean;\nASSIGN\n  next(x) := p;\n"
            "DEFINE\n  p := q;\n  q := p;\n"
        )
        assert str(err) == (
            "<module>:7:3: combinational cycle through DEFINE signals: "
            "p -> q -> p"
        )

    def test_bit_collision_is_located(self):
        err = self.err(
            "MODULE m\nVAR\n  w : word[2];\n  w0 : boolean;\n"
            "ASSIGN\n  next(w) := w;\n"
        )
        assert (err.line, err.column) == (3, 3)
        assert "bit 'w0' of word 'w' collides" in str(err)

    def test_no_state_variable_is_a_parse_error(self):
        source = "MODULE m\nDEFINE\n  d := TRUE;\nSPEC AG d;\n"
        err = self.err(source)
        assert str(err) == (
            "<module>: module 'm' has no state variables "
            "(declare at least one VAR)"
        )
        with pytest.raises(ParseError) as info:
            elaborate(parse_module(source), text=source)
        assert (info.value.line, info.value.column) == (1, 1)

    def test_source_text_anchors_observed_names(self):
        source = (
            "MODULE m\nVAR\n  x : boolean;\nASSIGN\n  next(x) := x;\n"
            "OBSERVED x, nope;\n"
        )
        with pytest.raises(ParseError) as info:
            elaborate(parse_module(source), text=source)
        assert str(info.value) == "<module>:6:13: unknown OBSERVED signal 'nope'"

    def test_first_error_in_source_order(self):
        # The SPEC comes first in the text, though it is lowered last.
        err = self.err(
            "MODULE m\nSPEC AG ghost;\nVAR\n  x : boolean;\n  y : boolean;\n"
            "ASSIGN\n  init(y) := 1;\n  next(x) := nope;\n"
        )
        assert str(err) == "<module>:2:1: unknown signal 'ghost' in SPEC"
