"""``repro lint`` and ``elaborate()`` answer every golden module as recorded.

``tests/lang/check_golden.json`` holds, for every module of the parse
golden's input set that parses (plus a few modules on which lint and the
elaborator once disagreed), the full lint findings and the ``elaborate()``
verdict.  ``tools/gen_check_golden.py`` records it; this test replays it,
so any change to what validation accepts, reports or raises shows up here
by case name.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "gen_check_golden", ROOT / "tools" / "gen_check_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_validation_matches_golden_answers():
    tool = _load_tool()
    diffs = tool.parse_golden.compare(tool.load(), tool.record())
    assert not diffs, f"{len(diffs)} answers changed:\n" + "\n".join(diffs[:20])


def test_golden_inputs_reach_both_verdicts():
    answers = _load_tool().load().values()
    verdicts = {verdict[0] for _, verdict in answers}
    assert "accepted" in verdicts and "ParseError" in verdicts
    assert any(findings for findings, _ in answers)
