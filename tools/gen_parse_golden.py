#!/usr/bin/env python3
"""Record, or check, what the ``.rml`` front end answers on a fixed input set.

``tests/lang/parse_golden.json`` pins the parsers' observable contract.
For every input it holds either the parse result or the
:class:`~repro.errors.ParseError`:

* a module that parses: hashes of its token stream (originals only), of a
  structural dump of its AST (every node field, ``Or``/``And`` nesting and
  declaration locations included), of its ``module_to_str`` reprint, and
  of its declaration locations alone;
* a ``parse_expr``/``parse_ctl`` string that parses: hashes of the
  structural dump and of the printed form;
* an error: its message, line, column, filename and position, verbatim.

Inputs are every ``examples/*.rml``, ``tests/corpus/*.rml`` and
``tests/lint/fixtures/*.rml`` file, the small ``MODULES`` that reach every
declaration check, ``GENERATED`` ``repro.gen.generate`` models, standalone
expression and CTL strings (hand-written, plus the
``SPEC``/``FAIRNESS``/``DONTCARE`` bodies of the model files), and seeded
single-token mutations of all of them: drop a token, duplicate it, swap it
with the next one, or replace it with one of ``REPLACEMENTS``.  The
mutations work on the raw text with this tool's own token spans, so the
input set does not depend on the parsers under test::

    PYTHONPATH=src python tools/gen_parse_golden.py            # re-record
    PYTHONPATH=src python tools/gen_parse_golden.py --check    # verify

``--check`` exits non-zero and names the cases whose answer changed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.ctl import parse_ctl  # noqa: E402
from repro.errors import ParseError  # noqa: E402
from repro.expr import parse_expr, tokenize  # noqa: E402
from repro.gen import generate  # noqa: E402
from repro.lang import module_to_str, parse_module  # noqa: E402
from repro.lang.parser import tokenize_module  # noqa: E402

SCHEMA = "repro-parse-golden/v1"
GOLDEN = ROOT / "tests" / "lang" / "parse_golden.json"
MODEL_GLOBS = ("examples/*.rml", "tests/corpus/*.rml", "tests/lint/fixtures/*.rml")
#: Generated models, seed keys ``golden:<i>``.
GENERATED = 36
MODULE_MUTATIONS = 8
STRING_MUTATIONS = 3
#: Harvested SPEC/FAIRNESS/DONTCARE bodies kept (a seeded sample).
HARVESTED = 60
REPLACEMENTS = (";", ":", ":=", "(", ")", "[", "]", "&", "|", "!", "->", "<->",
                "U", "A", "E", "case", "esac", "+", "-", "@", "0")
MUTATIONS = ("drop", "duplicate", "swap", "replace")

EXPRS = (
    "a", "!a", "not a", "NOT not a", "a & b & c", "(a & b) & c", "a & (b & c)",
    "a | b | c", "(a | b) | c", "a | (b | c)", "a ^ b ^ c", "a xor b XOR c",
    "a -> b -> c", "(a -> b) -> c", "a <-> b <-> c", "a -> b <-> c",
    "a <-> b -> c", "a | b & c", "a & b | c", "a ^ b | c & d", "a | b ^ c",
    "x = 3", "x == 0x1f", "x != y", "x < 0b101", "x <= 2", "x > y", "x >= 0",
    "TRUE", "false", "True & FALSE", "A AND b OR c XOR d", "!(a)", "((a))",
    "a'", "x_1 & y'", "and & b", "or", "a\n  & b", "  a  ", "!x = 2 & y",
    "(a | b) & (c | d) | e", "a -> (b | c) -> !d",
    "", " ", "a &", "& a", "(a", "a)", "a b", "x = ", "x = (", "x < !",
    "a + b", "a - b", "a := b", "a ; b", "a : b", "a -- b", "a @ b", "3",
    "a & 3", "!", "()", "a <- b", "x = 1 = 2", "a, b", "a[0]", "(a & b",
    "a & (b | c", "a and", "a or or b", "x = y = z", "a\n)",
)
CTLS = (
    "AG a", "AG (a -> AX b)", "A [a U b]", "E [a U b]", "A [a U A [b U c]]",
    "AX AX a", "AG a & AF b", "a & b -> AX c", "EX a | EG b", "!AG a",
    "not AF a", "A & E", "A", "E | A", "ag & ax", "AG (a <-> b)", "AX a ^ b",
    "AG a -> AF b -> AX c", "(AG a) | b | c", "a | AG b | c", "A [a & b U c | d]",
    "AG A [x U y] & AF z", "AG (x = 2 -> AX x != 2)", "AG !(a & b) & c & AX d",
    "EF (a | b) | c", "A [(a) U (b)]", "AG TRUE", "A [a -> b U c <-> d]",
    "", "AG", "AG (a", "A [a b]", "A [a U b", "A a U b", "A [ U b]", "E [a U]",
    "AG a)", "AX +", "a U b", "A [a U b] ]", "AG x = ", "A [a -> U b]", "AG ;",
    "A [a U b U c]", "AG (a :", "E [", "AF (a | )", "AG a b", "A [a U b]]",
)

#: Small modules reaching every declaration check of the module parser.
MODULES = (
    "MODULE m\nVAR\n  x : boolean;\n  x : word[2];\n",
    "MODULE m\nVAR x : boolean;\nASSIGN\n  init(x) := 0;\n  init(x) := 1;\n",
    "MODULE m\nVAR x : boolean;\nASSIGN\n  next(x) := x;\n  next(x) := !x;\n",
    "MODULE m\nVAR x : boolean;\nDEFINE\n  x := TRUE;\n",
    "MODULE m\nVAR x : boolean;\nDEFINE\n  d := x;\n  d := !x;\n",
    "MODULE m\nVAR x : boolean;\nDONTCARE x;\nDONTCARE !x;\n",
    "MODULE m\nMODULE n\n",
    "MODULE m\nVAR w : word[0];\n",
    "MODULE m\nVAR w : word[2];\nASSIGN init(w) := 4;\n",
    "MODULE m\nVAR x : boolean;\nASSIGN init(x) := TRUE;\n  next(x) := case esac;\n",
    "MODULE m\nVAR x : boolean;\nASSIGN next(x) := case x : !x;\n",
    "MODULE m\nVAR x : integer;\n",
    "MODULE m\nVAR x : boolean;\nASSIGN x := 1;\n",
    "MODULE m\nVAR x : boolean;\nSPEC AG (x + x);\n",
    "MODULE m\nVAR x : boolean;\nSPEC AG (x ->;\n",
    "MODULE m\nVAR x : boolean;\nSPEC AG x\n",
    "MODULE m\nVAR x : boolean;\nSPEC ;\n",
    "MODULE m\nVAR x : boolean;\nFAIRNESS x := x;\n",
    "MODULE m\nVAR x : boolean;\nASSIGN next(x) := x + 1;\n",
    "MODULE m\nVAR x : boolean;\nASSIGN next(x) := case x ; TRUE : x; esac;\n",
    "MODULE m\nVAR x : boolean;\nDEFINE d := x :\n  e;\n",
    "MODULE m\nVAR\n  w : word[0x3];\n  v : word[0b10];\n  A : boolean;\n"
    "ASSIGN\n  init(w) := 0x7;\n  init(A) := false;\n"
    "  next(w) := case A : w - 2; w = 0b11 : v; TRUE : 5; esac;\n"
    "  next(v) := v + 0x1;\n  next(A) := A [ ;\n",
    "MODULE m\nVAR\n  w : word[3];\n  v : word[2];\n  A : boolean;\n"
    "DEFINE\n  s := w + v;\n  t := u | A;\n  u := !A & w = v;\n"
    "ASSIGN\n  next(A) := case t : A; TRUE : !A; esac;\n"
    "FAIRNESS !A;\nSPEC A [A U E [t U u]] & AG (A -> AX A);\n"
    "SPEC AG (w != 0 -> AF (v >= 1));\nOBSERVED A, w;\nDONTCARE u;\n",
    "MODULE m\nOBSERVED x,;\n",
    "MODULE m\nVAR w : word[2];\nASSIGN next(w) := w + x;\n",
    "MODULE m\nVAR w : word[2];\nASSIGN next(w) := (w);\n",
    "MODULE\n",
    "",
    "MODULE m\nVAR x : boolean;\nSPEC AG x;\n  -- trailing comment @\n\t\r\n",
    "MODULE m\nVAR x : boolean;\nSPEC AG x; @\n",
)

_SPAN_RE = re.compile(
    r"--[^\n]*|\s+|0[xX][0-9a-fA-F]+|0[bB][01]+|\d+|[A-Za-z_][A-Za-z0-9_']*"
    r"|:=|<->|->|==|!=|<=|>=|."
)


def token_spans(text: str) -> List[Tuple[int, int]]:
    """``(start, end)`` of every token of ``text``, comments and blanks
    excluded; any other single character counts as a token."""
    return [
        m.span() for m in _SPAN_RE.finditer(text)
        if not (m.group().isspace() or m.group().startswith("--"))
    ]


def mutate(text: str, rng: random.Random) -> Tuple[str, str]:
    """One seeded single-token mutation of ``text`` and its label."""
    spans = token_spans(text)
    if not spans:
        return text + rng.choice(REPLACEMENTS), "append"
    op = rng.choice(MUTATIONS)
    if op == "swap" and len(spans) < 2:
        op = "drop"
    index = rng.randrange(len(spans) - (op == "swap"))
    start, end = spans[index]
    if op == "drop":
        return text[:start] + text[end:], f"drop@{index}"
    if op == "duplicate":
        return text[:end] + " " + text[start:end] + text[end:], f"duplicate@{index}"
    if op == "swap":
        start2, end2 = spans[index + 1]
        return (text[:start] + text[start2:end2] + text[end:start2]
                + text[start:end] + text[end2:]), f"swap@{index}"
    replacement = rng.choice(REPLACEMENTS)
    return text[:start] + replacement + text[end:], f"replace@{index}:{replacement}"


def dump(node) -> str:
    """Every field of an AST, recursively (``repr`` of the nodes prints
    their source form, which hides nesting and locations)."""
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        inner = ",".join(
            f"{f.name}={dump(getattr(node, f.name))}" for f in dataclasses.fields(node)
        )
        return f"{type(node).__name__}({inner})"
    if isinstance(node, tuple):
        return "(" + ",".join(dump(item) for item in node) + ")"
    return repr(node)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def locations(module) -> str:
    decls = (module.vars + module.inits + module.nexts + module.defines
             + module.fairness + module.specs)
    return " ".join(f"{type(d).__name__}:{d.line}:{d.column}" for d in decls)


def model_inputs() -> Iterator[Tuple[str, str, Optional[str]]]:
    """``(case id, text, filename)`` of every unmutated model."""
    for pattern in MODEL_GLOBS:
        for path in sorted(ROOT.glob(pattern)):
            name = path.relative_to(ROOT).as_posix()
            yield name, path.read_text(), name
    for index, text in enumerate(MODULES):
        yield f"module:{index}", text, "snippet.rml"
    for index in range(GENERATED):
        yield f"gen:golden:{index}", generate(f"golden:{index}").text, None


def harvested(texts: List[str]) -> List[Tuple[str, str]]:
    """A seeded sample of the models' SPEC/FAIRNESS/DONTCARE bodies, with
    the parser each one goes to."""
    found = set()
    for text in texts:
        for keyword, body in re.findall(r"\b(SPEC|FAIRNESS|DONTCARE)\b([^;]*);", text):
            found.add(("ctl" if keyword == "SPEC" else "expr", body.strip()))
    pool = sorted(found)
    return random.Random("golden:harvest").sample(pool, min(HARVESTED, len(pool)))


def observe_module(text: str, filename: Optional[str], original: bool) -> list:
    try:
        module = parse_module(text, filename=filename)
    except ParseError as exc:
        return ["error", str(exc), exc.line, exc.column, exc.filename, exc.position]
    record = ["ok", digest(dump(module)), digest(module_to_str(module)),
              digest(locations(module))]
    if original:
        tokens = [(t.kind, t.text, t.line, t.column)
                  for t in tokenize_module(text, filename)]
        record.append(digest(repr(tokens)))
    return record


def observe_string(kind: str, text: str, original: bool) -> list:
    parse = parse_ctl if kind == "ctl" else parse_expr
    try:
        node = parse(text)
    except ParseError as exc:
        record = ["error", str(exc), exc.line, exc.column, exc.filename, exc.position]
    else:
        record = ["ok", digest(dump(node)), digest(str(node))]
    if original:
        try:
            tokens = [(t.kind, t.text, t.position) for t in tokenize(text)]
        except ParseError as exc:
            record.append(["error", str(exc), exc.position])
        else:
            record.append(digest(repr(tokens)))
    return record


def record() -> Dict[str, list]:
    """Case id -> observed answer, for the whole input set."""
    cases: Dict[str, list] = {}
    texts = []
    for case, text, filename in model_inputs():
        texts.append(text)
        cases[case] = observe_module(text, filename, original=True)
        rng = random.Random(f"golden:{case}")
        for _ in range(MODULE_MUTATIONS):
            mutated, label = mutate(text, rng)
            cases[f"{case}~{label}"] = observe_module(mutated, filename, original=False)
    strings = [("expr", s) for s in EXPRS] + [("ctl", s) for s in CTLS]
    for kind, text in strings + harvested(texts):
        case = f"{kind}:{text!r}"
        cases[case] = observe_string(kind, text, original=True)
        rng = random.Random(f"golden:{case}")
        for _ in range(STRING_MUTATIONS):
            mutated, label = mutate(text, rng)
            cases[f"{case}~{label}"] = observe_string(kind, mutated, original=False)
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


def compare(expected: Dict[str, list], actual: Dict[str, list]) -> List[str]:
    """One line per case whose answer differs, is missing, or is new."""
    lines = []
    for case in expected.keys() | actual.keys():
        want, got = expected.get(case), actual.get(case)
        if want != got:
            lines.append(f"{case}: expected {want}, got {got}")
    return sorted(lines)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--out", default=str(GOLDEN))
    args = parser.parse_args(argv)
    cases = record()
    if args.check:
        diffs = compare(load(Path(args.out)), cases)
        for line in diffs:
            print(line)
        if diffs:
            print(f"{len(diffs)} of {len(cases)} front-end answers changed")
            return 1
        print(f"front end matches the golden answers ({len(cases)} cases)")
        return 0
    Path(args.out).write_text(render(cases))
    errors = sum(answer[0] == "error" for answer in cases.values())
    print(f"wrote {len(cases)} cases ({errors} errors) to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
