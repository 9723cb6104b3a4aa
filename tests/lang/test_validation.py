"""One validator: ``elaborate()`` raises exactly when lint reports an error.

``repro lint`` and ``elaborate()`` share one validation pass
(:func:`repro.lang.check.check_module`).  These tests pin the contract on
every module of the check golden (which includes the lint fixtures and the
modules the two once disagreed on) and on 600 generated models, each also
with one seeded token mutation: a module that parses has an error-severity
lint finding exactly when ``elaborate()`` raises, and the raised
``ParseError`` is lint's first error finding, with its message, line and
column.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from repro.errors import ParseError
from repro.gen import GenParams, generate
from repro.lang import elaborate, parse_module
from repro.lint import Severity, lint_source

ROOT = Path(__file__).resolve().parents[2]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


CHECK_GOLDEN = _load("gen_check_golden", "tools/gen_check_golden.py")
#: The generator knobs of perfbench's corpus and serve pool.
CORPUS_PARAMS = _load("perfbench_inputs", "perfbench/inputs.py").CORPUS_PARAMS
GENERATED = 300


def disagreement(text, filename=None):
    """``None`` when lint and ``elaborate()`` agree on ``text``, else what
    differs; modules that do not parse have nothing to agree on."""
    try:
        module = parse_module(text, filename=filename)
    except ParseError:
        return None
    report = lint_source(text, filename=filename)
    errors = [d for d in report.diagnostics if d.severity is Severity.ERROR]
    try:
        elaborate(module, text=text)
    except ParseError as exc:
        raised = (str(exc), exc.line or 0, exc.column or 0)
    else:
        raised = None
    expected = None
    if errors:
        first = errors[0]
        expected = (f"{first.location()}: {first.message}", first.line, first.column)
    return None if raised == expected else (expected, raised)


def test_golden_modules_agree():
    checked = 0
    for case, text, filename in CHECK_GOLDEN.modules():
        assert disagreement(text, filename) is None, case
        checked += 1
    assert checked > 1000


@pytest.mark.parametrize(
    "key,params",
    [("corpus", GenParams(**CORPUS_PARAMS)), ("default", GenParams())],
)
def test_generated_models_agree(key, params):
    rejected = 0
    for index in range(GENERATED):
        text = generate(f"validate:{key}:{index}", params).text
        assert disagreement(text) is None, index
        mutated, label = CHECK_GOLDEN.parse_golden.mutate(
            text, random.Random(f"validate:{key}:{index}")
        )
        assert disagreement(mutated) is None, (index, label)
        rejected += any(
            d.severity is Severity.ERROR for d in lint_source(mutated).diagnostics
        )
    assert rejected  # some mutations parse and still fail validation


@pytest.mark.parametrize("index", range(len(CHECK_GOLDEN.GAPS)))
def test_gap_modules_have_a_lint_error(index):
    text = CHECK_GOLDEN.GAPS[index]
    errors = lint_source(text, filename="gap.rml").errors
    assert errors == 1
    with pytest.raises(ParseError):
        elaborate(parse_module(text, filename="gap.rml"), text=text)


def test_word_sum_operand_is_one_width_finding():
    # Undeclared, boolean and later-declared operands alike: one RML005
    # each, in the elaborator's words, and no RML001.
    text = (
        "MODULE m\nVAR\n  a : word[2];\n  b : boolean;\n"
        "ASSIGN\n  next(a) := a;\n  next(b) := b;\n"
        "DEFINE\n  s := ghost + b;\n  t := a + u;\n  u := a + a;\n"
    )
    findings = [
        (d.code, d.message, d.line)
        for d in lint_source(text).diagnostics
        if d.severity is Severity.ERROR
    ]
    sums = "is not a known word (sums may only add words declared above)"
    assert findings == [
        ("RML005", f"word sum operand 'b' {sums}", 9),
        ("RML005", f"word sum operand 'ghost' {sums}", 9),
        ("RML005", f"word sum operand 'u' {sums}", 10),
    ]
    assert disagreement(text) is None
