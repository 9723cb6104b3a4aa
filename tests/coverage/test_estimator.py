"""Unit tests for the CoverageEstimator surface: reports, options, errors."""

import pytest

from repro.coverage import (
    CoverageEstimator,
    format_uncovered_traces,
    trace_to_uncovered,
)
from repro.ctl import parse_ctl
from repro.errors import CoverageError, NotInSubsetError, VerificationError
from repro.expr import parse_expr
from repro.mc import ModelChecker

from ..builtins import rml_fsm


def build_counter(modulus=4, with_stall=True):
    """A mod-N counter with optional stall input."""
    import math

    width = max(1, math.ceil(math.log2(modulus)))
    stall = "stall : boolean;" if with_stall else ""
    hold = "stall : c;" if with_stall else ""
    return rml_fsm(f"""
MODULE mod{modulus}
VAR
  {stall}
  c : word[{width}];
ASSIGN
  init(c) := 0;
  next(c) := case
    {hold}
    c = {modulus - 1} : 0;
    TRUE : c + 1;
  esac;
""")


def counter_suite(modulus=4):
    """Complete per-value increment + stall-hold properties."""
    props = []
    for value in range(modulus):
        succ = (value + 1) % modulus
        props.append(parse_ctl(f"AG (!stall & c = {value} -> AX c = {succ})"))
        props.append(parse_ctl(f"AG (stall & c = {value} -> AX c = {value})"))
    return props


class TestFullCoverage:
    def test_complete_suite_reaches_100(self):
        fsm = build_counter()
        report = CoverageEstimator(fsm).estimate(counter_suite(), observed="c")
        assert report.is_fully_covered()
        assert report.percentage == 100.0

    def test_word_observed_expands_to_bits(self):
        fsm = build_counter()
        est = CoverageEstimator(fsm)
        by_word = est.covered_set(counter_suite()[0], observed="c")
        by_bits = est.covered_set(counter_suite()[0], observed=["c0", "c1"])
        assert by_word == by_bits

    def test_report_space_is_reachable(self):
        fsm = build_counter()
        report = CoverageEstimator(fsm).estimate(counter_suite(), observed="c")
        # 4 counter values x 2 stall values.
        assert report.space_count == 8


class TestPartialCoverage:
    def test_dropping_a_case_leaves_a_hole(self):
        fsm = build_counter()
        props = counter_suite()
        # Coverage is state-based (paper Section 6): a state is covered if
        # ANY property checks the observed signal there, so to open a hole at
        # c=3 every property whose consequent checks c=3 must go — both the
        # increment into 3 and the stall-hold at 3.
        partial = [p for p in props if "AX c == 3" not in str(p)]
        report = CoverageEstimator(fsm).estimate(partial, observed="c")
        assert not report.is_fully_covered()
        assert 0 < report.percentage < 100.0
        assert report.uncovered == fsm.symbolize(parse_expr("c = 3"))

    def test_uncovered_states_listed(self):
        fsm = build_counter()
        partial = counter_suite()[:2]  # only c=0 properties
        report = CoverageEstimator(fsm).estimate(partial, observed="c")
        holes = report.uncovered_states(limit=100)
        assert holes
        assert len(holes) == report.fsm.count_states(report.uncovered)

    def test_uncovered_cubes_cover_holes(self):
        fsm = build_counter()
        partial = counter_suite()[:2]
        report = CoverageEstimator(fsm).estimate(partial, observed="c")
        cubes = report.uncovered_cubes(limit=100)
        assert cubes
        # Every explicit uncovered state matches at least one cube.
        for state in report.uncovered_states(limit=100):
            assert any(
                all(state[k] == v for k, v in cube.items()) for cube in cubes
            )

    def test_per_property_union_is_total(self):
        fsm = build_counter()
        report = CoverageEstimator(fsm).estimate(counter_suite(), observed="c")
        union = fsm.empty_set()
        for prop in report.per_property:
            union = union | prop.covered
        assert union == report.covered

    def test_summary_mentions_percentage(self):
        fsm = build_counter()
        report = CoverageEstimator(fsm).estimate(
            counter_suite()[:2], observed="c"
        )
        text = report.summary()
        assert "%" in text
        assert "uncovered" in text


class TestTraces:
    def test_trace_to_uncovered_reaches_a_hole(self):
        fsm = build_counter()
        report = CoverageEstimator(fsm).estimate(
            counter_suite()[:2], observed="c"
        )
        trace = trace_to_uncovered(report)
        assert trace is not None
        last = fsm.state_cube(trace[-1])
        assert last.subseteq(report.uncovered)

    def test_trace_none_when_fully_covered(self):
        fsm = build_counter()
        report = CoverageEstimator(fsm).estimate(counter_suite(), observed="c")
        assert trace_to_uncovered(report) is None

    def test_format_uncovered_traces(self):
        fsm = build_counter()
        report = CoverageEstimator(fsm).estimate(
            counter_suite()[:2], observed="c"
        )
        text = format_uncovered_traces(report, count=2)
        assert "trace to uncovered state #1" in text

    def test_format_full_coverage(self):
        fsm = build_counter()
        report = CoverageEstimator(fsm).estimate(counter_suite(), observed="c")
        assert "full coverage" in format_uncovered_traces(report)


class TestDontCares:
    def test_dont_care_shrinks_space(self):
        fsm = build_counter()
        est = CoverageEstimator(fsm)
        full = est.estimate(counter_suite(), observed="c")
        restricted = est.estimate(
            counter_suite(), observed="c", dont_care="c = 3"
        )
        assert restricted.space_count == full.space_count - 2  # stall free

    def test_dont_care_lifts_coverage(self):
        fsm = build_counter()
        est = CoverageEstimator(fsm)
        # Without any property checking the counter at 3, states c=3 are
        # uncovered; if the user declares c=3 don't-care, coverage returns
        # to 100%.
        partial = [
            p for p in counter_suite() if "AX c == 3" not in str(p)
        ]
        with_hole = est.estimate(partial, observed="c")
        assert not with_hole.is_fully_covered()
        assert with_hole.uncovered.subseteq(fsm.symbolize(parse_expr("c = 3")))
        excused = est.estimate(partial, observed="c", dont_care="c = 3")
        assert excused.is_fully_covered()

    def test_dont_care_accepts_expr_and_function(self):
        fsm = build_counter()
        est = CoverageEstimator(fsm)
        by_str = est.coverage_space("c = 3")
        by_expr = est.coverage_space(parse_expr("c = 3"))
        by_fn = est.coverage_space(fsm.symbolize(parse_expr("c = 3")))
        assert by_str == by_expr == by_fn

    def test_bad_dont_care_type(self):
        fsm = build_counter()
        with pytest.raises(CoverageError):
            CoverageEstimator(fsm).coverage_space(42)


class TestErrors:
    def test_failing_property_raises(self):
        fsm = build_counter()
        with pytest.raises(VerificationError):
            CoverageEstimator(fsm).covered_set(
                parse_ctl("AG (c = 0 -> AX c = 1)"), observed="c"
            )  # fails when stalled

    def test_verify_false_skips_the_check(self):
        fsm = build_counter()
        covered = CoverageEstimator(fsm).covered_set(
            parse_ctl("AG (c = 0 -> AX c = 1)"), observed="c", verify=False
        )
        assert not covered.is_false()

    def test_unknown_observed_signal(self):
        fsm = build_counter()
        with pytest.raises(CoverageError):
            CoverageEstimator(fsm).covered_set(
                parse_ctl("AG c = 0"), observed="ghost", verify=False
            )

    def test_empty_observed_list(self):
        fsm = build_counter()
        with pytest.raises(CoverageError):
            CoverageEstimator(fsm).covered_set(
                parse_ctl("AG c != 5"), observed=[], verify=False
            )

    def test_formula_outside_subset_rejected(self):
        fsm = build_counter()
        with pytest.raises(NotInSubsetError):
            CoverageEstimator(fsm).covered_set(
                parse_ctl("EF c = 3"), observed="c", verify=False
            )

    def test_checker_for_other_fsm_rejected(self):
        fsm1 = build_counter()
        fsm2 = build_counter(modulus=2)
        with pytest.raises(CoverageError):
            CoverageEstimator(fsm1, checker=ModelChecker(fsm2))


class TestCheckerSharing:
    def test_shared_checker_reuses_sat_sets(self):
        """Paper Section 3: results memoised during verification are reused
        during coverage estimation.

        Two identical machines in separate managers: on the first, the
        properties are verified before estimating with the *same* checker;
        on the second, estimation starts cold.  The shared-checker
        estimation must create fewer BDD nodes than the cold one.
        """
        props = counter_suite()

        fsm_shared = build_counter()
        checker = ModelChecker(fsm_shared)
        for p in props:
            assert checker.holds(p)
        nodes_before = fsm_shared.manager.created_nodes
        report = CoverageEstimator(fsm_shared, checker=checker).estimate(
            props, observed="c", verify=True
        )
        shared_cost = fsm_shared.manager.created_nodes - nodes_before
        assert report.is_fully_covered()

        fsm_cold = build_counter()
        nodes_before = fsm_cold.manager.created_nodes
        CoverageEstimator(fsm_cold).estimate(props, observed="c", verify=True)
        cold_cost = fsm_cold.manager.created_nodes - nodes_before

        assert shared_cost < cold_cost
