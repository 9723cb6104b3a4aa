"""``repro.lint`` must stay engine-free: importing it never loads the BDD
machinery.  A fresh interpreter proves it — the parent test process has
long since imported everything, so the check must run in a subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def run_snippet(code):
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


class TestEngineFreeImport:
    def test_importing_lint_does_not_load_bdd(self):
        result = run_snippet(
            "import sys\n"
            "import repro.lint\n"
            "loaded = [m for m in sys.modules if m.startswith('repro.bdd')]\n"
            "assert not loaded, f'repro.lint pulled in {loaded}'\n"
        )
        assert result.returncode == 0, result.stderr

    def test_linting_a_model_does_not_load_bdd(self):
        # Not just the import: running the full battery end to end must
        # stay AST-only too.
        result = run_snippet(
            "import sys\n"
            "from repro.lint import lint_source\n"
            "report = lint_source(\n"
            "    'MODULE m\\n'\n"
            "    'VAR x : boolean;\\n'\n"
            "    'ASSIGN init(x) := 0; next(x) := !x;\\n'\n"
            "    'SPEC AG (x -> AX !x);\\n'\n"
            "    'OBSERVED x;\\n'\n"
            ")\n"
            "assert report.clean, report.codes()\n"
            "loaded = [m for m in sys.modules if m.startswith('repro.bdd')]\n"
            "assert not loaded, f'lint_source pulled in {loaded}'\n"
        )
        assert result.returncode == 0, result.stderr

    def test_source_has_no_bdd_import(self):
        # Belt and braces: no module in the package contains an import
        # statement naming the BDD layer — even a lazy import inside a
        # rarely-hit branch would dodge the runtime checks above.
        import ast

        package = SRC / "repro" / "lint"
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    module = node.module or ""
                    names = [f"{module}.{a.name}" for a in node.names]
                for name in names:
                    assert "bdd" not in name, (
                        f"{path.name} imports {name}"
                    )
