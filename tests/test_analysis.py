"""The Analysis facade: constructors, pipeline methods, result shape."""

import json
import pickle
from pathlib import Path

import pytest

from repro.analysis import Analysis, AnalysisResult
from repro.circuits import build_counter, counter_partial_properties
from repro.engine import EngineConfig
from repro.errors import ModelError, ParseError, VerificationError
from repro.suite import builtin_job

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

COUNTER_RML = (EXAMPLES_DIR / "counter.rml").read_text()


class TestBuiltinConstructor:
    def test_full_counter(self):
        analysis = Analysis.builtin("counter")
        assert analysis.name == "counter"
        assert analysis.kind == "rml"
        assert analysis.holds()
        assert analysis.coverage().percentage == 100.0

    def test_stage_in_name(self):
        analysis = Analysis.builtin("counter", stage="partial")
        assert analysis.name == "counter@partial"
        assert analysis.stage == "partial"
        assert analysis.coverage().percentage == pytest.approx(80.0)

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown target"):
            Analysis.builtin("nonsense")

    def test_invalid_stage(self):
        with pytest.raises(ValueError, match="invalid stage"):
            Analysis.builtin("counter", stage="bogus")

    def test_config_travels_to_fsm_and_result(self):
        config = EngineConfig(trans="mono", gc_threshold=50)
        analysis = Analysis.builtin("counter", config=config)
        assert analysis.fsm.trans_mode == "mono"
        result = analysis.result()
        assert result.config == config
        assert result.gc_runs >= 1  # the tiny threshold forced collections

    def test_buggy_variant_fails_augmented_suite(self):
        analysis = Analysis.builtin(
            "buffer-lo", stage="augmented", buggy=True
        )
        assert not analysis.holds()
        failing = analysis.failing()
        assert failing
        # Failing checks carry counterexamples for AG-shaped properties.
        assert any(r.counterexample for r in failing)
        with pytest.raises(VerificationError):
            analysis.coverage()
        result = analysis.result()
        assert result.status == "fail"
        assert result.failing_properties


class TestFromRml:
    def test_from_path(self):
        analysis = Analysis.from_rml(EXAMPLES_DIR / "counter.rml")
        assert analysis.kind == "rml"
        assert analysis.name == "rml:counter"
        assert analysis.path == str(EXAMPLES_DIR / "counter.rml")
        assert analysis.coverage().percentage == 100.0

    def test_from_string_path(self):
        analysis = Analysis.from_rml(str(EXAMPLES_DIR / "counter.rml"))
        assert analysis.kind == "rml"
        assert analysis.coverage().percentage == 100.0

    def test_from_text(self):
        analysis = Analysis.from_rml(COUNTER_RML)
        assert analysis.kind == "rml"
        assert analysis.path is None
        assert analysis.coverage().percentage == 100.0

    def test_text_and_path_agree(self):
        from_path = Analysis.from_rml(EXAMPLES_DIR / "counter.rml")
        from_text = Analysis.from_rml(COUNTER_RML)
        assert (
            from_path.coverage().percentage
            == from_text.coverage().percentage
        )
        assert from_path.coverage().covered_count == (
            from_text.coverage().covered_count
        )

    def test_missing_file_raises_oserror(self):
        with pytest.raises(OSError):
            Analysis.from_rml(Path("no/such/model.rml"))

    def test_parse_error_propagates(self):
        with pytest.raises(ParseError):
            Analysis.from_rml("MODULE broken\nVAR\n  x : oops;\n")

    def test_no_observed_rejected(self):
        text = ("MODULE m\nVAR\n  x : boolean;\nASSIGN\n  next(x) := !x;\n"
                "SPEC AG (x -> AX !x);\n")
        with pytest.raises(ModelError, match="OBSERVED"):
            Analysis.from_rml(text)

    def test_no_specs_rejected(self):
        text = ("MODULE m\nVAR\n  x : boolean;\nASSIGN\n  next(x) := !x;\n"
                "OBSERVED x;\n")
        with pytest.raises(ModelError, match="SPEC"):
            Analysis.from_rml(text)


class TestFromFsm:
    def test_wraps_hand_built_circuit(self):
        fsm = build_counter()
        analysis = Analysis.from_fsm(
            fsm, counter_partial_properties(), observed="count"
        )
        assert analysis.kind == "custom"
        assert analysis.name == fsm.name
        assert analysis.coverage().percentage == pytest.approx(80.0)

    def test_observed_string_normalised_to_list(self):
        analysis = Analysis.from_fsm(
            build_counter(), counter_partial_properties(), observed="count"
        )
        assert analysis.observed == ["count"]


class TestFromJob:
    def test_builtin_job(self):
        analysis = Analysis.from_job(builtin_job("counter", "full"))
        assert analysis.name == "counter@full"
        assert analysis.stage == "full"
        assert analysis.coverage().percentage == 100.0


class TestPipeline:
    def test_verify_is_cached(self):
        analysis = Analysis.builtin("counter")
        assert analysis.verify() is analysis.verify()

    def test_coverage_is_cached(self):
        analysis = Analysis.builtin("counter")
        assert analysis.coverage() is analysis.coverage()

    def test_checker_shared_with_estimator(self):
        analysis = Analysis.builtin("counter")
        assert analysis.estimator.checker is analysis.checker

    def test_uncovered_traces(self):
        analysis = Analysis.builtin("counter", stage="partial")
        text = analysis.uncovered_traces(1)
        assert "trace to uncovered state #1" in text

    def test_result_to_json_is_serialisable(self):
        result = Analysis.builtin("counter", stage="partial").result()
        payload = result.to_json()
        json.dumps(payload)
        assert payload["status"] == "ok"
        assert payload["percentage"] == pytest.approx(80.0)
        assert payload["config"] == EngineConfig().to_json()

    def test_result_pickles(self):
        result = Analysis.builtin("counter").result()
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result

    def test_result_meters_work(self):
        result = Analysis.builtin("counter").result()
        assert result.nodes_created > 0
        assert result.peak_live_nodes > 0
        assert result.seconds > 0

    def test_result_stats_independent_of_call_order(self):
        # Stats accumulate where the work happens — calling verify() /
        # coverage() first must not zero out the recorded cost.
        fresh = Analysis.builtin("counter").result()
        warmed_up = Analysis.builtin("counter")
        warmed_up.verify()
        warmed_up.coverage()
        result = warmed_up.result()
        assert result.nodes_created == fresh.nodes_created
        assert result.peak_live_nodes > 0
        assert result.seconds > 0


class TestAnalysisResult:
    def test_ok_property(self):
        assert AnalysisResult(name="n", kind="rml", status="ok").ok
        assert not AnalysisResult(name="n", kind="rml", status="fail").ok

    def test_format_line_shapes(self):
        ok = AnalysisResult(name="n", kind="rml", status="ok",
                            percentage=100.0, covered_states=20,
                            space_states=20, properties=11)
        assert "100.00%" in ok.format_line()
        fail = AnalysisResult(name="n", kind="rml", status="fail",
                              properties=7,
                              failing_properties=["AG x"])
        assert "FAIL" in fail.format_line()
        err = AnalysisResult(name="n", kind="rml", status="error",
                             error="boom")
        assert "ERROR" in err.format_line()
