"""Lint computes each module fact once.

The validation pass collects every declaration's atoms; the warning rules
read them, and the spec seeds, mention sets and property cone built from
them, off :class:`~repro.lint.rules.LintContext` instead of walking the
expressions again.  Counted with ``cProfile`` on ``examples/pipeline.rml``.
"""

import cProfile
import pstats
from pathlib import Path

from repro.lang import parse_module
from repro.lang.check import check_module
from repro.lint import lint_module

ROOT = Path(__file__).resolve().parents[2]
TEXT = (ROOT / "examples" / "pipeline.rml").read_text()


def calls(run):
    """Primitive (non-recursive) calls made by ``run()``, per function name
    and per ``module.name`` (the file's stem)."""
    profile = cProfile.Profile()
    profile.runcall(run)
    counts = {}
    for (path, _, name), (primitive, *_rest) in pstats.Stats(profile).stats.items():
        for key in (name, f"{Path(path).stem}.{name}"):
            counts[key] = counts.get(key, 0) + primitive
    return counts


def test_each_spec_and_value_is_walked_once_per_lint():
    module = parse_module(TEXT)
    counts = calls(lambda: lint_module(module, text=TEXT))
    assert counts["formula_atoms"] == len(module.specs)
    assert counts["value_atoms"] == len(module.nexts) + len(module.defines)


def test_lint_resolves_the_seeds_and_each_cone_once():
    module = parse_module(TEXT)
    counts = calls(lambda: lint_module(module, text=TEXT))
    assert counts["coi.spec_seeds"] == 1
    assert counts["coi.union_property_cone"] == 1
    assert counts["coi.observed_cone"] == 1


def test_warning_rules_collect_no_atoms_of_their_own():
    module = parse_module(TEXT)
    validation = calls(lambda: check_module(module, TEXT))
    lint = calls(lambda: lint_module(module, text=TEXT))
    assert lint["atoms"] == validation["atoms"]
