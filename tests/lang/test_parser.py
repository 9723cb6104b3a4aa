"""Tests for the .rml tokenizer and module parser (repro.lang.parser)."""

from pathlib import Path

import pytest

import repro.expr.parser as expr_parser
import repro.lang.parser as lang_parser
from repro.errors import ParseError
from repro.expr.ast import And, Const, Not, Var, WordCmp
from repro.lang import parse_module
from repro.lang.ast import (
    Case,
    WordConst,
    WordOffset,
    WordRef,
    WordSum,
)
from repro.lang.parser import tokenize_module


class TestTokenizer:
    def test_tracks_lines_and_columns(self):
        tokens = tokenize_module("MODULE m\nVAR\n  x : boolean;\n")
        kinds = [(t.text, t.line, t.column) for t in tokens[:6]]
        assert kinds == [
            ("MODULE", 1, 1), ("m", 1, 8), ("VAR", 2, 1),
            ("x", 3, 3), (":", 3, 5), ("boolean", 3, 7),
        ]

    def test_comments_are_dropped(self):
        tokens = tokenize_module("MODULE m -- trailing words & symbols ;;\nVAR\n")
        assert [t.text for t in tokens if t.kind != "eof"] == ["MODULE", "m", "VAR"]

    def test_illegal_character_reports_location(self):
        with pytest.raises(ParseError) as info:
            tokenize_module("MODULE m\n  @\n")
        assert info.value.line == 2
        assert info.value.column == 3

    def test_assignment_and_comparison_ops_tokenize(self):
        tokens = tokenize_module(":= == != <= >= <-> -> + -")
        assert [t.text for t in tokens if t.kind == "op"] == [
            ":=", "==", "!=", "<=", ">=", "<->", "->", "+", "-",
        ]


class TestSingleScan:
    def test_a_module_is_scanned_once(self, monkeypatch):
        # Every embedded expression and SPEC is parsed where it sits in the
        # module's token list: one scan, and the expression tokenizer never
        # runs on a slice of the module.
        calls = {"scan": 0, "tokenize": 0}
        scan = getattr(lang_parser, "_scan", None)
        tokenize = expr_parser.tokenize

        def counting_scan(*args):
            calls["scan"] += 1
            return scan(*args)

        def counting_tokenize(*args):
            calls["tokenize"] += 1
            return tokenize(*args)

        monkeypatch.setattr(lang_parser, "_scan", counting_scan, raising=False)
        monkeypatch.setattr(expr_parser, "tokenize", counting_tokenize)
        pipeline = Path(__file__).resolve().parents[2] / "examples" / "pipeline.rml"
        module = parse_module(pipeline.read_text())
        assert len(module.specs) == 10
        assert calls == {"scan": 1, "tokenize": 0}


MINIMAL = """
MODULE m
VAR
  x : boolean;
  w : word[2];
ASSIGN
  init(w) := 0;
  next(w) := w + 1;
OBSERVED w;
"""


class TestModuleStructure:
    def test_minimal_module(self):
        module = parse_module(MINIMAL)
        assert module.name == "m"
        assert [v.name for v in module.vars] == ["x", "w"]
        assert module.vars[0].width is None
        assert module.vars[1].width == 2
        assert module.observed == ("w",)
        assert module.latch_names() == ("w",)
        assert module.input_names() == ("x",)

    def test_missing_module_keyword(self):
        with pytest.raises(ParseError, match="expected 'MODULE'"):
            parse_module("VAR x : boolean;")

    def test_duplicate_variable(self):
        with pytest.raises(ParseError, match="duplicate variable 'x'"):
            parse_module("MODULE m\nVAR\n  x : boolean;\n  x : word[2];\n")

    def test_undeclared_next_target_is_located(self):
        with pytest.raises(ParseError) as info:
            parse_module("MODULE m\nVAR\n  x : boolean;\nASSIGN\n  next(y) := x;\n")
        assert "undeclared variable 'y'" in str(info.value)
        assert info.value.line == 5

    def test_duplicate_next(self):
        source = (
            "MODULE m\nVAR\n  x : boolean;\nASSIGN\n"
            "  next(x) := x;\n  next(x) := !x;\n"
        )
        with pytest.raises(ParseError, match="duplicate next"):
            parse_module(source)

    def test_init_value_range_checked(self):
        source = "MODULE m\nVAR\n  w : word[2];\nASSIGN\n  init(w) := 4;\n  next(w) := w;\n"
        with pytest.raises(ParseError, match="out of range"):
            parse_module(source)

    def test_filename_appears_in_errors(self):
        with pytest.raises(ParseError, match=r"boom\.rml:1:1"):
            parse_module("nonsense", filename="boom.rml")


class TestValues:
    def test_word_value_forms(self):
        source = """
MODULE m
VAR
  sel : boolean;
  w : word[2];
ASSIGN
  next(w) := case
    sel : 3;
    w = 1 : w - 1;
    w = 2 : w + 1;
    TRUE : w;
  esac;
"""
        module = parse_module(source)
        case = module.nexts[0].value
        assert isinstance(case, Case)
        values = [arm.value for arm in case.arms]
        assert values == [
            WordConst(3), WordOffset("w", -1), WordOffset("w", 1), WordRef("w"),
        ]

    def test_boolean_case_values_are_expressions(self):
        source = """
MODULE m
VAR
  a : boolean;
  x : boolean;
ASSIGN
  next(x) := case
    a : !x;
    TRUE : x & a;
  esac;
"""
        case = parse_module(source).nexts[0].value
        assert case.arms[0].value == Not(Var("x"))
        assert case.arms[1].value == And((Var("x"), Var("a")))
        assert case.arms[1].condition == Const(True)

    def test_word_sum_define(self):
        source = """
MODULE m
VAR
  a : word[2];
  b : word[2];
DEFINE
  total := a + b;
  some := a = 1 & b = 2;
"""
        module = parse_module(source)
        assert module.defines[0].value == WordSum("a", "b")
        assert module.defines[1].value == And(
            (WordCmp("==", "a", 1), WordCmp("==", "b", 2))
        )

    def test_unterminated_case(self):
        source = "MODULE m\nVAR\n  x : boolean;\nASSIGN\n  next(x) := case\n    TRUE : x;\n"
        with pytest.raises(ParseError, match="unterminated case|unterminated"):
            parse_module(source)


class TestEmbeddedErrors:
    def test_expression_error_maps_to_source_location(self):
        source = "MODULE m\nVAR\n  x : boolean;\nASSIGN\n  next(x) := x & & x;\n"
        with pytest.raises(ParseError) as info:
            parse_module(source)
        assert info.value.line == 5
        assert info.value.column == 18

    def test_ctl_error_maps_to_source_location(self):
        source = "MODULE m\nVAR\n  x : boolean;\nSPEC AG (x -> AX );\n"
        with pytest.raises(ParseError) as info:
            parse_module(source)
        assert info.value.line == 4
        assert info.value.column == 18

    def test_spec_parses_nested_until(self):
        source = (
            "MODULE m\nVAR\n  x : boolean;\n"
            "SPEC AG (x -> A [x U A [x U !x]]);\n"
        )
        module = parse_module(source)
        assert len(module.specs) == 1

    def test_dontcare_and_fairness(self):
        source = (
            "MODULE m\nVAR\n  x : boolean;\n"
            "FAIRNESS !x;\nDONTCARE x & x;\n"
        )
        module = parse_module(source)
        assert module.fairness[0].expr == Not(Var("x"))
        assert module.dont_care is not None

    def test_duplicate_dontcare_rejected(self):
        source = (
            "MODULE m\nVAR\n  x : boolean;\n"
            "DONTCARE x;\nDONTCARE !x;\n"
        )
        with pytest.raises(ParseError, match="duplicate DONTCARE"):
            parse_module(source)
