"""Tests for the repro-coverage command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.suite import BUILTIN_TARGETS

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestParser:
    def test_version_flag(self, capsys):
        # argparse's version action exits 0 after printing.
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        from repro._version import __version__
        assert __version__ in out

    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for target in BUILTIN_TARGETS:
            assert target in out

    def test_no_target_lists(self, capsys):
        assert main([]) == 0
        assert "available targets" in capsys.readouterr().out

    def test_unknown_target(self, capsys):
        assert main(["nonsense"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_invalid_stage_rejected(self, capsys):
        assert main(["counter", "--stage", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "invalid stage 'bogus'" in err
        assert "full, partial" in err

    def test_stage_on_stageless_target_rejected(self, capsys):
        assert main(["queue-full", "--stage", "initial"]) == 2
        assert "valid stages: none" in capsys.readouterr().err

    def test_buggy_without_a_buggy_variant_rejected(self, capsys):
        assert main(["counter", "--buggy"]) == 2
        err = capsys.readouterr().err
        assert "'counter' has no buggy variant" in err
        assert "buffer-hi, buffer-lo" in err

    def test_every_declared_stage_is_accepted(self, capsys):
        for name, target in BUILTIN_TARGETS.items():
            for stage in target.stages:
                assert main([name, "--stage", stage]) == 0, (name, stage)
        capsys.readouterr()


class TestCoverageRuns:
    def test_counter_full(self, capsys):
        assert main(["counter"]) == 0
        out = capsys.readouterr().out
        assert "100.00%" in out

    def test_counter_partial_shows_holes(self, capsys):
        assert main(["counter", "--stage", "partial"]) == 0
        out = capsys.readouterr().out
        assert "uncovered" in out

    def test_queue_wrap_stages(self, capsys):
        assert main(["queue-wrap", "--stage", "initial"]) == 0
        initial_out = capsys.readouterr().out
        assert main(["queue-wrap", "--stage", "final"]) == 0
        final_out = capsys.readouterr().out
        assert "100.00%" in final_out
        assert "100.00%" not in initial_out

    def test_traces_flag(self, capsys):
        assert main(["queue-wrap", "--stage", "initial", "--traces", "1"]) == 0
        out = capsys.readouterr().out
        assert "trace to uncovered state #1" in out

    def test_pipeline_uses_dont_care(self, capsys):
        assert main(["pipeline", "--stage", "augmented"]) == 0
        assert "100.00%" in capsys.readouterr().out

    def test_buffer_lo_buggy_passes_initial_suite(self, capsys):
        assert main(["buffer-lo", "--buggy"]) == 0
        out = capsys.readouterr().out
        assert "uncovered" in out

    def test_buffer_lo_augmented_on_buggy_fails_verification(self, capsys):
        # The augmented suite contains the hole-closing property, which
        # fails on the buggy design: the CLI must report the failure and a
        # counterexample rather than a coverage number.
        assert main(["buffer-lo", "--buggy", "--stage", "augmented"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "cycle 0" in out

    def test_buffer_lo_augmented_on_fixed_is_full(self, capsys):
        assert main(["buffer-lo", "--stage", "augmented"]) == 0
        assert "100.00%" in capsys.readouterr().out

    def test_queue_full_and_empty(self, capsys):
        assert main(["queue-full"]) == 0
        assert "100.00%" in capsys.readouterr().out
        assert main(["queue-empty"]) == 0
        assert "100.00%" in capsys.readouterr().out

    def test_buffer_hi(self, capsys):
        assert main(["buffer-hi"]) == 0
        assert "100.00%" in capsys.readouterr().out


class TestProfile:
    def test_phase_spans_nest_the_per_property_rows(self, capsys):
        """``--profile`` shows the ``verify-suite`` and ``coverage-suite``
        phase rows, with the per-property rows, and the reachability that
        coverage first triggers, indented under them."""
        assert main(["pipeline", "--stage", "initial", "--profile"]) == 0
        out = capsys.readouterr().out
        table = out[out.index("\nphase "):].strip().splitlines()[1:]
        rows = []  # (name, parent name) per row, in table order
        stack = []
        for line in table:
            depth = (len(line) - len(line.lstrip(" "))) // 2
            name = line.split()[0]
            del stack[depth:]
            rows.append((name, stack[-1] if stack else None))
            stack.append(name)
        parents = {}
        for name, parent in rows:
            parents.setdefault(name, set()).add(parent)
        assert parents["verify-suite"] == {None}
        assert parents["coverage-suite"] == {None}
        assert parents["verify"] == {"verify-suite"}
        assert parents["coverage"] == {"coverage-suite"}
        assert parents["reachability"] == {"coverage-suite"}
        assert [name for name, _ in rows].count("verify") == 8
        assert rows[-1] == ("total", None)


class TestRunSubcommand:
    def test_counter_rml_matches_builtin_target(self, capsys):
        # Acceptance criterion: `run examples/counter.rml` reproduces the
        # built-in `counter` target's coverage percentage.
        assert main(["run", str(EXAMPLES_DIR / "counter.rml")]) == 0
        rml_out = capsys.readouterr().out
        assert main(["counter"]) == 0
        builtin_out = capsys.readouterr().out

        def percentage(text):
            line = next(ln for ln in text.splitlines() if "%" in ln)
            return line.split("=")[-1].strip()

        assert percentage(rml_out) == percentage(builtin_out) == "100.00%"

    def test_missing_file(self, capsys):
        assert main(["run", "no/such/model.rml"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_directory_argument_is_a_clean_error(self, capsys):
        # An easy typo for `suite examples` — must not traceback.
        assert main(["run", str(EXAMPLES_DIR)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_parse_error_reports_line_and_column(self, capsys, tmp_path):
        path = tmp_path / "bad.rml"
        path.write_text("MODULE bad\nVAR\n  x : boolean;\nASSIGN\n"
                        "  next(x) := x & & x;\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad.rml:5:18" in err

    def test_elaboration_error_reports_location(self, capsys, tmp_path):
        path = tmp_path / "ghost.rml"
        path.write_text("MODULE ghost\nVAR\n  x : boolean;\nASSIGN\n"
                        "  next(x) := ghost_signal;\nOBSERVED x;\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "ghost.rml:5" in err
        assert "unknown signal" in err

    def test_module_without_observed_rejected(self, capsys, tmp_path):
        path = tmp_path / "no_obs.rml"
        path.write_text("MODULE no_obs\nVAR\n  x : boolean;\nASSIGN\n"
                        "  next(x) := !x;\nSPEC AG (x -> AX !x);\n")
        assert main(["run", str(path)]) == 2
        assert "OBSERVED" in capsys.readouterr().err

    def test_module_without_specs_rejected(self, capsys, tmp_path):
        path = tmp_path / "no_spec.rml"
        path.write_text("MODULE no_spec\nVAR\n  x : boolean;\nASSIGN\n"
                        "  next(x) := !x;\nOBSERVED x;\n")
        assert main(["run", str(path)]) == 2
        assert "SPEC" in capsys.readouterr().err

    def test_failing_property_aborts_with_counterexample(self, capsys, tmp_path):
        path = tmp_path / "wrong.rml"
        path.write_text(
            "MODULE wrong\nVAR\n  x : boolean;\nASSIGN\n"
            "  init(x) := FALSE;\n  next(x) := !x;\n"
            "SPEC AG (!x -> AX !x);\nOBSERVED x;\n"
        )
        assert main(["run", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "aborting" in out

    def test_traces_flag(self, capsys, tmp_path):
        path = tmp_path / "hole.rml"
        # One increment property only: the reset behaviour stays uncovered.
        path.write_text(
            "MODULE hole\nVAR\n  r : boolean;\n  w : word[1];\nASSIGN\n"
            "  init(w) := 0;\n"
            "  next(w) := case\n    r : 0;\n    TRUE : w + 1;\n  esac;\n"
            "SPEC AG (!r & w = 0 -> AX w = 1);\nOBSERVED w;\n"
        )
        assert main(["run", str(path), "--traces", "1"]) == 0
        out = capsys.readouterr().out
        assert "uncovered" in out


class TestSuiteSubcommand:
    def test_suite_runs_rml_directory(self, capsys, tmp_path):
        (tmp_path / "light.rml").write_text(
            (EXAMPLES_DIR / "traffic_light.rml").read_text()
        )
        assert main(["suite", str(tmp_path), "--no-builtins"]) == 0
        out = capsys.readouterr().out
        assert "rml:light" in out
        assert "1 job(s): 1 ok" in out

    def test_missing_directory(self, capsys):
        assert main(["suite", "no/such/dir"]) == 2
        assert "no such directory" in capsys.readouterr().err

    def test_parallel_json_matches_serial(self, capsys, tmp_path):
        # Acceptance criterion: parallel per-job percentages match serial
        # execution.  A small rml-only suite keeps this fast.
        for name in ("counter", "traffic_light", "arbiter"):
            (tmp_path / f"{name}.rml").write_text(
                (EXAMPLES_DIR / f"{name}.rml").read_text()
            )
        serial_json = tmp_path / "serial.json"
        parallel_json = tmp_path / "parallel.json"
        assert main(["suite", str(tmp_path), "--no-builtins",
                     "--jobs", "1", "--json", str(serial_json)]) == 0
        assert main(["suite", str(tmp_path), "--no-builtins",
                     "--jobs", "4", "--json", str(parallel_json)]) == 0
        capsys.readouterr()
        serial = json.loads(serial_json.read_text())
        parallel = json.loads(parallel_json.read_text())
        assert serial["schema"] == parallel["schema"] == "repro-coverage-suite/v2"
        serial_pct = [(j["name"], j["percentage"]) for j in serial["jobs"]]
        parallel_pct = [(j["name"], j["percentage"]) for j in parallel["jobs"]]
        assert serial_pct == parallel_pct
        assert len(serial_pct) == 3

    def test_sharded_run_prints_shard_telemetry(self, capsys, tmp_path):
        for name in ("counter", "traffic_light", "arbiter"):
            (tmp_path / f"{name}.rml").write_text(
                (EXAMPLES_DIR / f"{name}.rml").read_text()
            )
        assert main(["suite", str(tmp_path), "--no-builtins",
                     "--jobs", "2", "--shards", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 job(s): 3 ok" in out
        assert "shards: 3 over 2 worker(s)" in out
        assert "3 completed" in out

    def test_serial_run_prints_no_shard_line(self, capsys, tmp_path):
        (tmp_path / "light.rml").write_text(
            (EXAMPLES_DIR / "traffic_light.rml").read_text()
        )
        assert main(["suite", str(tmp_path), "--no-builtins"]) == 0
        assert "shards:" not in capsys.readouterr().out

    def test_invalid_shard_flags_are_usage_errors(self, capsys):
        assert main(["suite", "--shards", "0"]) == 2
        assert "--shards must be >= 1" in capsys.readouterr().err
        assert main(["suite", "--max-shard-retries", "-1"]) == 2
        assert "--max-shard-retries" in capsys.readouterr().err

    def test_failing_job_sets_exit_code(self, capsys, tmp_path):
        (tmp_path / "wrong.rml").write_text(
            "MODULE wrong\nVAR\n  x : boolean;\nASSIGN\n"
            "  init(x) := FALSE;\n  next(x) := !x;\n"
            "SPEC AG (!x -> AX !x);\nOBSERVED x;\n"
        )
        assert main(["suite", str(tmp_path), "--no-builtins"]) == 1
        assert "FAIL" in capsys.readouterr().out
