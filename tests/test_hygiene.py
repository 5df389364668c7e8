"""Static checks on the package source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fracfem"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b as c, d\nd()\n") == [
        "c (line 2)",
        "os (line 1)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_extended_precision(path):
    # answers must not depend on the platform's long double
    source = path.read_text(encoding="utf-8")
    assert "longdouble" not in source and "float128" not in source


def test_runtime_needs_no_scipy_special_or_sparse():
    # a fresh interpreter runs a study with levels m = 4, 8 and an m = 1024
    # reference, all solved by GMRES; it loads neither subpackage
    script = (
        "import sys, fracfem, fracfem.cli\n"
        "argv = ['--alpha', '1.5', '--example', 'a', '--q', 'x_times_1mx',\n"
        "        '--method', 'recon', '--levels', '2:3', '--reference-m', '1024']\n"
        "assert fracfem.cli.main(argv) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.special', 'scipy.sparse'))))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "[]"
