"""Each ``repro`` command imports only the layers it runs.

``python -m repro --version`` is the start-up every invocation pays
(perfbench's ``setup_s`` times exactly it), so ``repro.cli`` imports each
subsystem inside the subcommand that runs it, after its arguments parse;
see ``docs/performance.md`` ("Start-up").  Each check runs in a fresh
interpreter: the test process itself has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: The engine, the model language, the drivers and the process pools.
HEAVY = (
    "repro.analysis",
    "repro.bdd",
    "repro.fsm",
    "repro.lang",
    "repro.suite",
    "repro.serve",
    "repro.obs.bench",
    "multiprocessing",
)

#: ``(argv, modules it must not load)``; each command runs from the
#: repository root and must exit 0.
BUDGETS = [
    (["--version"], HEAVY),
    (["--help"], HEAVY),
    # docs/linting.md: linting builds no BDD, at the CLI too.
    (["lint", "examples/"], ("repro.bdd", "repro.fsm", "repro.analysis")),
    (
        ["lint", "--target", "counter"],
        ("repro.bdd", "repro.fsm", "repro.analysis"),
    ),
    # A builtin's text is generated without the engine.
    (
        ["lint", "--target", "queue-wrap@final"],
        ("repro.bdd", "repro.fsm", "repro.analysis"),
    ),
    # Target mode reads the builtin table, not the suite layer.
    (["--list"], ("repro.suite", "multiprocessing", "concurrent.futures")),
    (
        ["counter", "--stage", "full"],
        ("repro.suite", "multiprocessing", "concurrent.futures"),
    ),
    (
        ["run", "examples/counter.rml"],
        (
            "repro.suite",
            "repro.serve",
            "repro.gen",
            "repro.circuits",
            "repro.lint",
            "multiprocessing",
            "concurrent.futures",
        ),
    ),
]


def fresh(code, *argv):
    """Run ``code`` in a fresh interpreter from the repository root and
    return what it prints as JSON."""
    result = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def loaded(modules, package):
    """The modules of ``modules`` that are ``package`` or inside it."""
    return [m for m in modules if m == package or m.startswith(package + ".")]


@pytest.mark.parametrize(
    "argv,banned", BUDGETS, ids=[" ".join(argv) for argv, _ in BUDGETS]
)
def test_command_import_budget(argv, banned):
    run = fresh(
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        code = main(sys.argv[1:])\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n",
        *argv,
    )
    assert run["code"] == 0
    pulled = {p: loaded(run["modules"], p) for p in banned}
    assert not any(pulled.values()), {p: m for p, m in pulled.items() if m}


def test_import_repro_loads_only_the_version():
    # repro/__init__.py re-exports the whole API lazily.
    modules = fresh(
        "import json, sys\n"
        "import repro\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert loaded(modules, "repro") == ["repro", "repro._version"]


def test_engine_config_loads_no_bench_harness():
    modules = fresh(
        "import json, sys\n"
        "import repro.engine\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert loaded(modules, "repro.obs") == [
        "repro.obs", "repro.obs.counters", "repro.obs.telemetry",
    ]


#: Prints which of a package's ``__all__`` names ``dir()`` misses and
#: which do not resolve; ``dir()`` is read before any lazy name resolves.
EXPORTS = (
    "import importlib, json, sys\n"
    "package = importlib.import_module(sys.argv[1])\n"
    "listed = dir(package)\n"
    "print(json.dumps({\n"
    "    'unlisted': [n for n in package.__all__ if n not in listed],\n"
    "    'unresolved': [\n"
    "        n for n in package.__all__ if not hasattr(package, n)\n"
    "    ],\n"
    "}))\n"
)


def test_obs_exports_resolve_and_are_listed():
    assert fresh(EXPORTS, "repro.obs") == {"unlisted": [], "unresolved": []}


@pytest.mark.parametrize("package", ["repro.serve", "repro.suite"])
def test_lazy_package_exports_resolve_and_are_listed(package):
    assert fresh(EXPORTS, package) == {"unlisted": [], "unresolved": []}


def test_serve_loads_no_http_client_or_suite_registry():
    # What ``_main_serve`` imports.  The server parent loads the engine
    # and the job runner because its forked workers inherit them, and the
    # circuits because it resolves ``target`` payloads to their text (see
    # ``repro.serve.workers``); it never sends a request or discovers a
    # suite.
    modules = fresh(
        "import json, sys\n"
        "import repro.cli\n"
        "from repro.serve.server import ServeOptions, run_server\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    banned = (
        "http.client",
        "email",
        "datetime",
        "calendar",
        "quopri",
        "repro.serve.client",
        "repro.suite.registry",
    )
    pulled = {p: loaded(modules, p) for p in banned}
    assert not any(pulled.values()), {p: m for p, m in pulled.items() if m}
    for needed in ("repro.analysis", "repro.suite.runner", "repro.circuits",
                   "repro.lang"):
        assert needed in modules
