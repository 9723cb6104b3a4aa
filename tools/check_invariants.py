#!/usr/bin/env python3
"""Fail CI when the codebase breaks one of its structural invariants.

Four guarantees the codebase relies on are enforceable by AST
inspection, so this tool enforces them:

``kernel-recursion``
    No function in ``src/repro/bdd/`` calls itself (directly, or via
    ``self.``/``cls.``).  Every BDD traversal — the kernels in
    ``manager.py`` and the walk in ``dot.py`` — runs on an
    explicit stack so depth is memory-bound; a reintroduced recursive
    kernel would silently restore the recursion-limit ceiling.

``set-iteration``
    No ``for`` loop or comprehension in a report/serialization module
    (``coverage/report.py``, ``suite/runner.py``, ``obs/*``) or in the
    BDD variable-order derivation (``fsm/builder.py``) iterates directly
    over a ``set``/``frozenset`` constructor, set literal, or set
    comprehension.  Set order is not deterministic across runs; the
    report modules feed byte-compared JSON reports (the differential
    oracle's contract), and the variable order feeds every engine
    counter and trace pick — wrap the set in ``sorted(...)`` instead.

``single-meter``
    No module outside ``src/repro/obs/`` calls ``.resource_stats()``.
    Phase costs are metered in one place, the telemetry span
    (``Telemetry.span`` yields the phase's ``WorkStats``); a second
    snapshot site would be a second meter that can drift from the span's
    numbers and doubles the snapshot work.

``one-model-path``
    Inside ``src/``, only the elaborator (``src/repro/lang/elaborate.py``)
    calls ``build_fsm(...)``.  Every model the library analyses — the
    paper's circuits included — is ``.rml`` text that goes through
    parse → check → elaborate; a second call site would be a second model
    path that the validator, lint, the serve key and the reports cannot
    see.

When scanning a directory each rule applies only to its scoped paths;
explicitly-listed files get every rule (which is how the deliberately
bad fixture ``tools/fixtures/bad_invariants.py`` proves each rule still
fires — see ``tests/test_check_invariants.py``).

Usage::

    python tools/check_invariants.py            # scan src/
    python tools/check_invariants.py FILE...    # all rules on each file

Exit code 0 when every invariant holds, 1 otherwise (one
``file:line: [rule] message`` line per violation).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Callable, Iterator, List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: Path fragments (POSIX, repo-relative) the set-iteration rule covers.
ORDERED_OUTPUT_MODULES = (
    "src/repro/coverage/report.py",
    "src/repro/suite/runner.py",
    "src/repro/obs/",
    "src/repro/fsm/builder.py",
)

#: Path fragment the kernel-recursion rule covers.
KERNEL_DIR = "src/repro/bdd/"

#: The only package allowed to snapshot ``resource_stats()``.
METER_DIR = "src/repro/obs/"

#: The only module allowed to call ``build_fsm``.
ELABORATOR = "src/repro/lang/elaborate.py"


class Violation(NamedTuple):
    path: Path
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ----------------------------------------------------------------------
# Rule: kernel-recursion
# ----------------------------------------------------------------------


def _call_target(node: ast.Call) -> Tuple[str, bool]:
    """``(name, via_self)`` of a call, or ``("", False)`` when dynamic."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id, False
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id in ("self", "cls"):
            return func.attr, True
    return "", False


def check_kernel_recursion(tree: ast.AST, path: Path) -> List[Violation]:
    """Flag functions that call themselves by name."""
    out: List[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            name, via_self = _call_target(sub)
            if name != node.name:
                continue
            how = f"self.{name}()" if via_self else f"{name}()"
            out.append(
                Violation(
                    path, sub.lineno, "kernel-recursion",
                    f"function {node.name!r} calls itself ({how}); "
                    f"BDD kernels must stay iterative (explicit stack)",
                )
            )
    return out


# ----------------------------------------------------------------------
# Rule: set-iteration
# ----------------------------------------------------------------------


def _is_bare_set(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _iteration_sites(tree: ast.AST) -> Iterator[Tuple[ast.AST, ast.AST]]:
    """Yield ``(iterable_node, anchor_node)`` for every iteration."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, node
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            for generator in node.generators:
                yield generator.iter, node


def check_set_iteration(tree: ast.AST, path: Path) -> List[Violation]:
    """Flag iteration directly over an unordered set expression."""
    out: List[Violation] = []
    for iterable, anchor in _iteration_sites(tree):
        if _is_bare_set(iterable):
            out.append(
                Violation(
                    path, anchor.lineno, "set-iteration",
                    "iteration over a bare set/frozenset has "
                    "non-deterministic order in report output; wrap it "
                    "in sorted(...)",
                )
            )
    return out


# ----------------------------------------------------------------------
# Rule: single-meter
# ----------------------------------------------------------------------


def check_single_meter(tree: ast.AST, path: Path) -> List[Violation]:
    """Flag ``<anything>.resource_stats()`` calls."""
    out: List[Violation] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "resource_stats"
        ):
            out.append(
                Violation(
                    path, node.lineno, "single-meter",
                    "resource_stats() snapshot outside repro.obs; meter "
                    "the phase with a telemetry span and read span.stats",
                )
            )
    return out


# ----------------------------------------------------------------------
# Rule: one-model-path
# ----------------------------------------------------------------------


def check_one_model_path(tree: ast.AST, path: Path) -> List[Violation]:
    """Flag ``build_fsm(...)`` calls."""
    out: List[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name == "build_fsm":
            out.append(
                Violation(
                    path, node.lineno, "one-model-path",
                    "build_fsm(...) outside the elaborator; write the "
                    "model as .rml text and elaborate it",
                )
            )
    return out


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

RULES: Tuple[Tuple[str, Callable, Callable], ...] = (
    (
        "kernel-recursion",
        check_kernel_recursion,
        lambda rel: rel.startswith(KERNEL_DIR),
    ),
    (
        "set-iteration",
        check_set_iteration,
        lambda rel: any(rel.startswith(m) for m in ORDERED_OUTPUT_MODULES),
    ),
    (
        "single-meter",
        check_single_meter,
        lambda rel: not rel.startswith(METER_DIR),
    ),
    (
        "one-model-path",
        check_one_model_path,
        lambda rel: rel.startswith("src/") and rel != ELABORATOR,
    ),
)


def check_file(path: Path, all_rules: bool = False) -> List[Violation]:
    """Run the applicable (or, for explicit files, all) rules on one file."""
    try:
        rel = path.resolve().relative_to(ROOT).as_posix()
    except ValueError:
        rel = path.as_posix()
    tree = ast.parse(path.read_text(), filename=str(path))
    out: List[Violation] = []
    for _name, rule, applies in RULES:
        if all_rules or applies(rel):
            out.extend(rule(tree, path))
    return sorted(out, key=lambda v: (str(v.path), v.line, v.rule))


def check_tree(root: Path) -> List[Violation]:
    """Scan every Python file under ``root`` with path-scoped rules."""
    out: List[Violation] = []
    for path in sorted(root.rglob("*.py")):
        out.extend(check_file(path))
    return out


def main(argv: List[str]) -> int:
    if argv:
        violations: List[Violation] = []
        for raw in argv:
            violations.extend(check_file(Path(raw), all_rules=True))
    else:
        violations = check_tree(ROOT / "src")
    for violation in violations:
        print(violation.format())
    if violations:
        print(f"{len(violations)} invariant violation(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
