"""The repo-invariant gate works: ``tools/check_invariants.py`` passes on
``src/``, and every rule demonstrably fires on the bad fixture."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BAD_FIXTURE = ROOT / "tools" / "fixtures" / "bad_invariants.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_invariants", ROOT / "tools" / "check_invariants.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_tree_is_clean():
    checker = _load_checker()
    violations = checker.check_tree(ROOT / "src")
    assert violations == [], "\n".join(v.format() for v in violations)


def test_every_rule_fires_on_bad_fixture():
    checker = _load_checker()
    violations = checker.check_file(BAD_FIXTURE, all_rules=True)
    fired = {v.rule for v in violations}
    assert fired == {rule for rule, _, _ in checker.RULES}


def test_bad_fixture_violations_are_anchored():
    checker = _load_checker()
    violations = checker.check_file(BAD_FIXTURE, all_rules=True)
    assert violations, "bad fixture produced no violations"
    for violation in violations:
        assert violation.line > 0
        assert str(BAD_FIXTURE) in violation.format()


def test_self_recursion_detected_via_self_and_bare_name():
    checker = _load_checker()
    violations = checker.check_file(BAD_FIXTURE, all_rules=True)
    messages = [
        v.message for v in violations if v.rule == "kernel-recursion"
    ]
    assert any("self.apply()" in m for m in messages)
    assert any("bad_countdown()" in m for m in messages)


def test_tree_scan_applies_kernel_rule_to_the_kernels(monkeypatch):
    """The file defining ``_apply_bin`` (the BDD kernels) is inside the
    kernel-recursion scope, so a tree scan really checks it."""
    checker = _load_checker()
    kernel_files = [
        path for path in sorted((ROOT / "src").rglob("*.py"))
        if "def _apply_bin(" in path.read_text()
    ]
    assert len(kernel_files) == 1
    checked = []
    original = checker.check_kernel_recursion

    def spy(tree, path):
        checked.append(path)
        return original(tree, path)

    monkeypatch.setattr(
        checker, "RULES",
        tuple(
            (name, spy if name == "kernel-recursion" else rule, applies)
            for name, rule, applies in checker.RULES
        ),
    )
    assert checker.check_tree(ROOT / "src") == []
    assert kernel_files[0] in checked


def test_tree_scan_applies_set_rule_to_the_variable_order(monkeypatch):
    """The file deriving the BDD variable order (``_variable_order``) is
    inside the set-iteration scope: the order feeds every engine counter
    and trace pick, so hash-ordered iteration there would leak into
    reports."""
    checker = _load_checker()
    order_files = [
        path for path in sorted((ROOT / "src").rglob("*.py"))
        if "def _variable_order(" in path.read_text()
    ]
    assert len(order_files) == 1
    checked = []
    original = checker.check_set_iteration

    def spy(tree, path):
        checked.append(path)
        return original(tree, path)

    monkeypatch.setattr(
        checker, "RULES",
        tuple(
            (name, spy if name == "set-iteration" else rule, applies)
            for name, rule, applies in checker.RULES
        ),
    )
    assert checker.check_tree(ROOT / "src") == []
    assert order_files[0] in checked


def test_single_meter_flags_snapshots_outside_obs(tmp_path, monkeypatch):
    """``src/`` has no ``resource_stats()`` call outside ``repro.obs``,
    and a tree scan flags one in a module outside ``obs`` (a second
    meter) while leaving ``obs`` itself alone."""
    checker = _load_checker()
    assert [
        v for v in checker.check_tree(ROOT / "src") if v.rule == "single-meter"
    ] == []
    tree = tmp_path / "src" / "repro"
    (tree / "mc").mkdir(parents=True)
    (tree / "obs").mkdir()
    snapshot = "def cost(m):\n    return m.resource_stats()['nodes_created']\n"
    (tree / "mc" / "meter.py").write_text(snapshot)
    (tree / "obs" / "meter.py").write_text(snapshot)
    monkeypatch.setattr(checker, "ROOT", tmp_path)
    flagged = checker.check_tree(tmp_path / "src")
    assert [(v.path.parent.name, v.line, v.rule) for v in flagged] == [
        ("mc", 2, "single-meter")
    ]


def test_one_model_path_flags_builders_outside_the_elaborator(
    tmp_path, monkeypatch
):
    """``src/`` calls ``build_fsm`` only in the elaborator, and a tree
    scan flags a call anywhere else under ``src/`` (a second model path)
    while leaving the elaborator alone."""
    checker = _load_checker()
    assert [
        v for v in checker.check_tree(ROOT / "src")
        if v.rule == "one-model-path"
    ] == []
    tree = tmp_path / "src" / "repro"
    (tree / "circuits").mkdir(parents=True)
    (tree / "lang").mkdir()
    build = "def model(build_fsm):\n    return build_fsm('m', {}, ['x'], {}, {}, [])\n"
    (tree / "circuits" / "counter.py").write_text(build)
    (tree / "lang" / "elaborate.py").write_text(build)
    monkeypatch.setattr(checker, "ROOT", tmp_path)
    flagged = checker.check_tree(tmp_path / "src")
    assert [(v.path.parent.name, v.line, v.rule) for v in flagged] == [
        ("circuits", 2, "one-model-path")
    ]


def test_scoped_scan_skips_out_of_scope_files(tmp_path):
    """On a tree scan, rules only apply inside their scoped paths — a
    recursive helper outside the BDD package is fine."""
    checker = _load_checker()
    outside = tmp_path / "helper.py"
    outside.write_text(
        "def walk(n):\n    return 0 if n == 0 else walk(n - 1)\n"
    )
    assert checker.check_file(outside) == []
    assert checker.check_file(outside, all_rules=True) != []


def test_cli_exit_codes():
    clean = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_invariants.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert clean.returncode == 0, clean.stdout + clean.stderr
    bad = subprocess.run(
        [
            sys.executable,
            str(ROOT / "tools" / "check_invariants.py"),
            str(BAD_FIXTURE),
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert bad.returncode == 1
    assert "invariant violation" in bad.stdout
