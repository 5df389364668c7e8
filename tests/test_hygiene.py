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


def private_imports(source: str) -> list[str]:
    """Underscore names a module imports from a sibling module."""
    tree = ast.parse(source)
    return sorted(
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_checker_flags_a_private_import():
    source = "from .a import b, _c\nfrom . import _d\nfrom os import _exit\n"
    assert private_imports(source) == ["_c (line 1)", "_d (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    # a helper two modules share is public in the one that defines it
    assert private_imports(path.read_text(encoding="utf-8")) == []


def read_names(source: str) -> set[str]:
    """Names a module reads, bare or as an attribute."""
    tree = ast.parse(source)
    bare = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return bare | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def test_every_export_is_read_inside_the_package():
    # a public name that only a test calls belongs in tests/, not in the API
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = [a.asname or a.name for n in init.body if isinstance(n, ast.ImportFrom) for a in n.names]
    read = set().union(*(read_names(p.read_text(encoding="utf-8")) for p in MODULES))
    assert exported and [name for name in exported if name not in read] == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_extended_precision(path):
    # answers must not depend on the platform's long double
    source = path.read_text(encoding="utf-8")
    assert "longdouble" not in source and "float128" not in source


def scipy_imports(source: str) -> list[str]:
    """Lines on which a module imports scipy or one of its subpackages."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append((node.module, node.lineno))
    return [f"{name} (line {line})" for name, line in names if name.split(".")[0] == "scipy"]


def test_checker_flags_a_scipy_import():
    source = "import numpy\nimport scipy.linalg as sl\nfrom scipy import special\nfrom .scipy import x\n"
    assert scipy_imports(source) == ["scipy.linalg (line 2)", "scipy (line 3)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # numpy is the only runtime dependency; scipy serves the test oracles
    assert scipy_imports(path.read_text(encoding="utf-8")) == []


def test_runtime_loads_no_scipy():
    # a fresh interpreter runs a study with levels m = 4, 8 and an m = 1024
    # reference, all solved by GMRES; it loads no scipy module at all
    script = (
        "import sys, fracfem, fracfem.cli\n"
        "argv = ['--alpha', '1.5', '--example', 'a', '--q', 'x_times_1mx',\n"
        "        '--method', 'recon', '--levels', '2:3', '--reference-m', '1024']\n"
        "assert fracfem.cli.main(argv) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
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


def _package_modules():
    import fracfem.cli  # noqa: F401 -- the package does not import it

    return [m for name, m in sorted(sys.modules.items()) if name.startswith("fracfem.")]


def test_module_level_caches_are_keyed_on_scalars():
    # an answer must not depend on what other studies left behind: the only
    # functools caches at module level take numbers, never arrays
    cached = {
        f"{value.__module__}.{value.__qualname__}"
        for module in _package_modules()
        for value in vars(module).values()
        if callable(value) and hasattr(value, "cache_info")
    }
    assert cached == {
        "fracfem.fraccalc.gauss_legendre",
        "fracfem.fraccalc.gauss_jacobi",
        "fracfem.assembly._stencil_band",
    }


def test_graded_study_changes_no_module_level_container():
    from fracfem.cli import ExperimentConfig, run_experiment

    def containers():
        return {
            (module.__name__, name): [id(item) for item in value]
            for module in _package_modules()
            for name, value in vars(module).items()
            if isinstance(value, (dict, list, set)) and not name.startswith("__")
        }

    # a graded standard study and uniform chi(0,0.5) reconstruction studies,
    # Dirichlet and mixed, keep their alpha-free data on their specs
    before = containers()
    chi = dict(example="b", q_kind="custom", q_expr="chi(0,0.5)", q_hint=0.0, k_min=3, k_max=5,
               reference_m=256)
    for config in (ExperimentConfig(alphas=(1.3, 1.6), example="a", q_kind="zero", method="standard",
                                    k_min=3, k_max=7, delta=4.5),
                   ExperimentConfig(alphas=(1.3, 1.6), method="recon", **chi),
                   ExperimentConfig(alphas=(1.6, 1.8), method="recon_mixed", **chi)):
        assert all(report.error is None for report in run_experiment(config))
        assert containers() == before
