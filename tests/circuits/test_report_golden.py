"""Target mode reports every builtin run as recorded.

``tests/circuits/report_golden.json`` holds, for the 12 target@stage runs
and the three ``--buggy`` variants in both ``--trans`` modes, the run's
Table-2 figures and target mode's output at ``--traces 3`` (timing digits
masked).  ``tools/gen_report_golden.py`` records it; this test replays it,
so any change to a builtin's verdict, coverage or report text shows up here
by run name.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "gen_report_golden", ROOT / "tools" / "gen_report_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_target_mode_matches_golden_reports():
    tool = _load_tool()
    diffs = tool.compare(tool.load(), tool.record())
    assert not diffs, f"{len(diffs)} answers changed:\n" + "\n".join(diffs[:20])


def test_golden_covers_every_run_and_outcome():
    tool = _load_tool()
    golden = tool.load()
    assert len(golden) == 2 * len(tool.RUNS) == 30
    statuses = {case["table2"]["status"] for case in golden.values()}
    assert statuses == {"ok", "fail"}
    assert {case["exit"] for case in golden.values()} == {0, 1}
    assert any(
        case["table2"]["percentage"] not in (None, 100.0)
        for case in golden.values()
    )
