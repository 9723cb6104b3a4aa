"""The front end answers every golden input exactly as recorded.

``tests/lang/parse_golden.json`` holds, for ~1.7k modules, expressions and
CTL strings (most of them seeded single-token mutations), either the
parsed AST's hashes or the ``ParseError``'s message, line, column,
filename and position.  ``tools/gen_parse_golden.py`` records it; this
test replays it, so any change to what the parsers accept, build or report
shows up here by case name.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "gen_parse_golden", ROOT / "tools" / "gen_parse_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_front_end_matches_golden_answers():
    tool = _load_tool()
    diffs = tool.compare(tool.load(), tool.record())
    assert not diffs, f"{len(diffs)} answers changed:\n" + "\n".join(diffs[:20])


def test_golden_inputs_reach_both_outcomes():
    answers = _load_tool().load().values()
    kinds = {answer[0] for answer in answers}
    assert kinds == {"ok", "error"}
    located = [a for a in answers if a[0] == "error" and a[2] is not None]
    positioned = [a for a in answers if a[0] == "error" and " at position " in a[1]]
    assert located and positioned
