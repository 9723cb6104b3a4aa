"""Golden tests for ``repro-coverage lint``: exact text/JSON output.

The renderings are pure functions of the sorted report, so the same
inputs must produce byte-identical output — the contract CI and any
downstream tooling parse against.  These goldens pin it.
"""

import json
from pathlib import Path

from repro._version import __version__
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


class TestTextGolden:
    def test_single_warning(self, capsys):
        path = FIXTURES / "rml011.rml"
        assert main(["lint", str(path)]) == 1
        assert capsys.readouterr().out == (
            f"{path}:10:13: warning[RML011] observed signal 'y' appears "
            f"in no property's cone of influence: its coverage is "
            f"structurally zero\n"
            f"1 file checked, 1 warning\n"
        )

    def test_clean_file(self, capsys):
        path = FIXTURES / "rml011_clean.rml"
        assert main(["lint", str(path)]) == 0
        assert capsys.readouterr().out == "1 file checked, no findings\n"

    def test_verbose_appends_code_name(self, capsys):
        path = FIXTURES / "rml005.rml"
        assert main(["lint", str(path), "--verbose"]) == 1
        assert capsys.readouterr().out == (
            f"{path}:7:3: error[RML005 width-mismatch] constant 5 out of "
            f"range for 2-bit word 'w'\n"
            f"1 file checked, 1 error\n"
        )

    def test_multi_file_summary_counts_by_severity(self, capsys):
        error = FIXTURES / "rml001.rml"
        warning = FIXTURES / "rml014.rml"
        info = FIXTURES / "rml016.rml"
        assert main(["lint", str(error), str(warning), str(info)]) == 1
        out = capsys.readouterr().out
        assert out.endswith("3 files checked, 1 error, 1 warning, 1 info\n")


class TestJsonGolden:
    def test_single_warning_document(self, capsys):
        path = FIXTURES / "rml011.rml"
        assert main(["lint", str(path), "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "schema": "repro-lint/v1",
            "generator": f"repro {__version__}",
            "files": [str(path)],
            "diagnostics": [
                {
                    "code": "RML011",
                    "name": "observed-unmentioned",
                    "severity": "warning",
                    "file": str(path),
                    "line": 10,
                    "column": 13,
                    "message": (
                        "observed signal 'y' appears in no property's "
                        "cone of influence: its coverage is structurally "
                        "zero"
                    ),
                }
            ],
            "totals": {
                "files": 1,
                "diagnostics": 1,
                "errors": 0,
                "warnings": 1,
                "infos": 0,
                "suppressed": 0,
            },
        }

    def test_json_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        path = FIXTURES / "rml016_clean.rml"
        assert main(["lint", str(path), "--json", str(out_file)]) == 0
        assert "wrote JSON report" in capsys.readouterr().out
        document = json.loads(out_file.read_text())
        assert document["schema"] == "repro-lint/v1"
        assert document["diagnostics"] == []

    def test_json_keys_are_sorted(self, capsys):
        # Byte-determinism: sort_keys means the serialised text round-trips.
        path = FIXTURES / "rml011.rml"
        assert main(["lint", str(path), "--json"]) == 1
        raw = capsys.readouterr().out
        assert raw == json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n"


class TestExitCodes:
    def test_fail_on_error_ignores_warnings(self, capsys):
        path = FIXTURES / "rml014.rml"
        assert main(["lint", str(path), "--fail-on", "error"]) == 0
        capsys.readouterr()

    def test_fail_on_error_still_fails_on_errors(self, capsys):
        path = FIXTURES / "rml001.rml"
        assert main(["lint", str(path), "--fail-on", "error"]) == 1
        capsys.readouterr()

    def test_info_findings_never_fail(self, capsys):
        path = FIXTURES / "rml016.rml"
        assert main(["lint", str(path)]) == 0
        capsys.readouterr()

    def test_directory_argument_recurses(self, capsys, tmp_path):
        nested = tmp_path / "deep"
        nested.mkdir()
        (nested / "model.rml").write_text(
            (FIXTURES / "rml014.rml").read_text()
        )
        assert main(["lint", str(tmp_path)]) == 1
        assert "RML014" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["lint", "no/such/model.rml"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_nothing_to_lint_is_usage_error(self, capsys, tmp_path):
        assert main(["lint", str(tmp_path)]) == 2
        assert "nothing to lint" in capsys.readouterr().err


class TestTargetFlag:
    def test_builtin_target_lints_its_generated_text(self, capsys):
        assert main(["lint", "--target", "queue-wrap@final", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["files"] == ["queue-wrap@final"]
        assert report["diagnostics"] == []

    def test_example_name_keeps_meaning_the_example(self, capsys):
        assert main(["lint", "--target", "counter", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["files"] == ["examples/counter.rml"]

    def test_invalid_builtin_stage_names_the_valid_ones(self, capsys):
        assert main(["lint", "--target", "counter@bogus"]) == 2
        assert "valid stages: full, partial" in capsys.readouterr().err

    def test_unknown_target(self, capsys):
        assert main(["lint", "--target", "nonsense"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_target_and_paths_conflict(self, capsys):
        assert main(["lint", "x.rml", "--target", "rml:counter"]) == 2
        assert "not both" in capsys.readouterr().err
