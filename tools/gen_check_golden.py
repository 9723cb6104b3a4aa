#!/usr/bin/env python3
"""Record, or check, what ``repro lint`` and ``elaborate()`` answer on every
module of the parse golden's input set that parses.

``tests/lang/check_golden.json`` pins the validation contract of ``.rml``
modules.  For every input it holds:

* the full ``repro-lint/v1`` findings of ``lint_source``: each diagnostic's
  code, message, line and column, in report order;
* the ``elaborate()`` verdict on the parsed module and its source text:
  ``["accepted"]``, or the exception's type name, message, line and
  column.

The inputs are the modules of ``tools/gen_parse_golden.py`` (examples,
corpus, lint fixtures, its snippets, generated models and their seeded
single-token mutations) that parse, plus the ``GAPS`` below, modules on
which lint and the elaborator once disagreed, and the ``REJECTS``, which
reach elaborator errors the rest do not::

    PYTHONPATH=src python tools/gen_check_golden.py            # re-record
    PYTHONPATH=src python tools/gen_check_golden.py --check    # verify

``--check`` exits non-zero and names the cases whose answer changed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

import gen_parse_golden as parse_golden  # noqa: E402

from repro.errors import ParseError  # noqa: E402
from repro.lang import elaborate, parse_module  # noqa: E402
from repro.lint import lint_source  # noqa: E402

SCHEMA = "repro-check-golden/v1"
GOLDEN = ROOT / "tests" / "lang" / "check_golden.json"

#: One module per kind of defect only the elaborator used to reject.
GAPS = (
    # init() on a free input
    "MODULE m\nVAR\n  x : boolean;\n  y : boolean;\n"
    "ASSIGN\n  init(x) := 1;\n  next(y) := x;\nSPEC AG y;\nOBSERVED y;\n",
    # a word sum over a word declared below it
    "MODULE m\nVAR\n  a : word[2];\nASSIGN\n  next(a) := a + 1;\n"
    "DEFINE\n  s := a + t;\n  t := a + a;\nSPEC AG (s = 0 | t = 0);\nOBSERVED a;\n",
    # no state variable at all
    "MODULE m\nDEFINE\n  d := TRUE;\nSPEC AG d;\nOBSERVED d;\n",
)


#: Modules the elaborator rejects that the input set above does not reach.
REJECTS = (
    # an unknown signal in a DEFINE
    "MODULE m\nVAR x : boolean;\nASSIGN next(x) := !x;\n"
    "DEFINE\n  d := x & ghost;\nSPEC AG (d | x);\nOBSERVED x;\n",
    # an unknown OBSERVED signal
    "MODULE m\nVAR x : boolean;\nASSIGN next(x) := !x;\n"
    "SPEC AG (x | !x);\nOBSERVED x,\n  nope;\n",
    # an unknown signal in DONTCARE
    "MODULE m\nVAR x : boolean;\nASSIGN next(x) := !x;\n"
    "SPEC AG (x | !x);\nOBSERVED x;\nDONTCARE x & ghost;\n",
    # two errors, the first in the text being the one elaborated last
    "MODULE m\nSPEC AG ghost;\nVAR\n  x : boolean;\n"
    "ASSIGN\n  next(x) := x & nope;\nOBSERVED x;\n",
    # the bits of two words collide
    "MODULE m\nVAR\n  a : word[12];\n  a1 : word[2];\n"
    "ASSIGN\n  next(a) := a;\n  next(a1) := a1;\nSPEC AG a1 = 0;\nOBSERVED a;\n",
)


def modules() -> Iterator[Tuple[str, str, Optional[str]]]:
    """``(case id, text, filename)`` of every input, parsing or not: the
    parse golden's models and their mutations, the gaps, the rejects."""
    for case, text, filename in parse_golden.model_inputs():
        yield case, text, filename
        rng = random.Random(f"golden:{case}")
        for _ in range(parse_golden.MODULE_MUTATIONS):
            mutated, label = parse_golden.mutate(text, rng)
            yield f"{case}~{label}", mutated, filename
    for index, text in enumerate(GAPS):
        yield f"gap:{index}", text, "gap.rml"
    for index, text in enumerate(REJECTS):
        yield f"reject:{index}", text, "reject.rml"


def verdict(text: str, filename: Optional[str]) -> list:
    """What ``elaborate()`` does with the parsed module and its source."""
    try:
        elaborate(parse_module(text, filename=filename), text=text)
    except Exception as exc:  # the verdict is the exception, whatever it is
        return [type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None)]
    return ["accepted"]


def record() -> Dict[str, list]:
    """Case id -> ``[lint findings, elaborate verdict]`` for every input
    that parses."""
    cases: Dict[str, list] = {}
    for case, text, filename in modules():
        try:
            parse_module(text, filename=filename)
        except ParseError:
            continue
        report = lint_source(text, filename=filename)
        findings = [[d.code, d.message, d.line, d.column] for d in report.diagnostics]
        cases[case] = [findings, verdict(text, filename)]
    return cases


def render(cases: Dict[str, list]) -> str:
    lines = [json.dumps([case, answer], ensure_ascii=False)
             for case, answer in cases.items()]
    return '{"schema": "%s", "cases": [\n%s\n]}\n' % (SCHEMA, ",\n".join(lines))


def load(path: Path = GOLDEN) -> Dict[str, list]:
    data = json.loads(path.read_text())
    if data.get("schema") != SCHEMA:
        raise ValueError(f"{path}: schema {data.get('schema')!r}, expected {SCHEMA!r}")
    return {case: answer for case, answer in data["cases"]}


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--out", default=str(GOLDEN))
    args = parser.parse_args(argv)
    cases = record()
    if args.check:
        diffs: List[str] = parse_golden.compare(load(Path(args.out)), cases)
        for line in diffs:
            print(line)
        if diffs:
            print(f"{len(diffs)} of {len(cases)} validation answers changed")
            return 1
        print(f"validation matches the golden answers ({len(cases)} cases)")
        return 0
    Path(args.out).write_text(render(cases))
    rejected = sum(answer[1] != ["accepted"] for answer in cases.values())
    print(f"wrote {len(cases)} cases ({rejected} rejected) to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
