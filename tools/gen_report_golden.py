#!/usr/bin/env python3
"""Record, or check, what target mode reports for every builtin run.

``tests/circuits/report_golden.json`` pins the reports of the paper's
circuits: the 12 target@stage runs plus the three ``--buggy`` variants
(``buffer-hi``, ``buffer-lo@initial``, ``buffer-lo@augmented``), each at
``--traces 3`` under ``--trans partitioned`` and ``--trans mono``.  For
every run it holds:

* ``table2`` — the Table-2 figures of the run's
  :class:`~repro.analysis.AnalysisResult`: status, property count,
  covered/space states, percentage and the failing properties;
* ``exit`` and ``report`` — target mode's exit code and its output lines,
  with timing digits masked (``0.02s`` reads ``#.##s``).

The ``table2`` part is strict: re-recording keeps it and refuses to write
when a run's figures differ from it.  Only the report text is ever
re-recorded::

    PYTHONPATH=src python tools/gen_report_golden.py            # re-record
    PYTHONPATH=src python tools/gen_report_golden.py --check    # verify

``--check`` exits non-zero and names the runs whose answer changed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis import Analysis  # noqa: E402
from repro.cli import main as cli_main  # noqa: E402
from repro.engine import EngineConfig  # noqa: E402

SCHEMA = "repro-report-golden/v1"
GOLDEN = ROOT / "tests" / "circuits" / "report_golden.json"
TRACES = 3
MODES = ("partitioned", "mono")
#: ``(target, stage, buggy)`` of every run: each target@stage, then the
#: buggy variants.
RUNS: Tuple[Tuple[str, Optional[str], bool], ...] = (
    ("counter", "full", False),
    ("counter", "partial", False),
    ("buffer-hi", None, False),
    ("buffer-lo", "initial", False),
    ("buffer-lo", "augmented", False),
    ("queue-wrap", "initial", False),
    ("queue-wrap", "extended", False),
    ("queue-wrap", "final", False),
    ("queue-full", None, False),
    ("queue-empty", None, False),
    ("pipeline", "initial", False),
    ("pipeline", "augmented", False),
    ("buffer-hi", None, True),
    ("buffer-lo", "initial", True),
    ("buffer-lo", "augmented", True),
)
_TIMING = re.compile(r"\d+\.\d+s\b")


def runs() -> Iterator[Tuple[str, List[str], Tuple[str, Optional[str], bool], str]]:
    """``(case id, target-mode argv, run, trans mode)`` of every run."""
    for target, stage, buggy in RUNS:
        for mode in MODES:
            argv = [target, "--traces", str(TRACES), "--trans", mode]
            case = target
            if stage is not None:
                argv += ["--stage", stage]
                case += f"@{stage}"
            if buggy:
                argv.append("--buggy")
                case += "+buggy"
            yield f"{case}/{mode}", argv, (target, stage, buggy), mode


def table2(target: str, stage: Optional[str], buggy: bool, mode: str) -> Dict:
    """The strict part: the run's Table-2 figures."""
    result = Analysis.builtin(
        target, stage=stage, buggy=buggy, config=EngineConfig(trans=mode)
    ).result()
    return {
        "status": result.status,
        "properties": result.properties,
        "covered_states": result.covered_states,
        "space_states": result.space_states,
        "percentage": result.percentage,
        "failing_properties": result.failing_properties,
    }


def report(argv: List[str]) -> Tuple[int, List[str]]:
    """Target mode's exit code and output lines, timing digits masked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli_main(argv)
    text = _TIMING.sub("#.##s", out.getvalue())
    return code, text.splitlines()


def record() -> Dict[str, Dict]:
    cases: Dict[str, Dict] = {}
    for case, argv, run, mode in runs():
        code, lines = report(argv)
        cases[case] = {"table2": table2(*run, mode), "exit": code, "report": lines}
    return cases


def compare(expected: Dict[str, Dict], actual: Dict[str, Dict]) -> List[str]:
    """One line per run and part whose answer differs, is missing or is new."""
    lines = []
    for case in sorted(expected.keys() | actual.keys()):
        want, got = expected.get(case), actual.get(case)
        if want is None or got is None:
            lines.append(f"{case}: expected {want}, got {got}")
            continue
        for part in ("table2", "exit", "report"):
            if want[part] != got[part]:
                lines.append(f"{case} [{part}]: expected {want[part]}, got {got[part]}")
    return lines


def render(cases: Dict[str, Dict]) -> str:
    return json.dumps({"schema": SCHEMA, "cases": cases}, indent=1) + "\n"


def load(path: Path = GOLDEN) -> Dict[str, Dict]:
    data = json.loads(path.read_text())
    if data.get("schema") != SCHEMA:
        raise ValueError(f"{path}: schema {data.get('schema')!r}, expected {SCHEMA!r}")
    return data["cases"]


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--out", default=str(GOLDEN))
    args = parser.parse_args(argv)
    out = Path(args.out)
    cases = record()
    if args.check:
        diffs = compare(load(out), cases)
        for line in diffs:
            print(line)
        if diffs:
            print(f"{len(diffs)} report answers changed over {len(cases)} runs")
            return 1
        print(f"target mode matches the golden reports ({len(cases)} runs)")
        return 0
    if out.exists():
        old = load(out)
        moved = [case for case in cases
                 if case in old and old[case]["table2"] != cases[case]["table2"]]
        if moved or old.keys() != cases.keys():
            for line in compare(old, cases):
                if "[report]" not in line and "[exit]" not in line:
                    print(line)
            print("the Table-2 figures are strict and are never re-recorded")
            return 1
    out.write_text(render(cases))
    print(f"wrote {len(cases)} runs to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
