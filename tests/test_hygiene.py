"""Static checks on the package source."""

import ast
import dataclasses
import inspect
import os
import re
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


def dead_private_names(sources: dict) -> list[str]:
    """Module-level private functions, classes and constants (one leading
    underscore) of the modules ``sources`` (name -> text) that no module
    reads, bare or as an attribute."""
    read = set().union(*(read_names(text) for text in sources.values()))
    dead = []
    for module, text in sorted(sources.items()):
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [f"{module}.{name}" for name in names
                     if name.startswith("_") and not name.startswith("__") and name not in read]
    return sorted(dead)


def test_checker_flags_a_dead_private_name():
    sources = {
        "a": "_X = 1\n_Y, _Z = 2, 3\n_W: int = 4\ndef _f():\n    return _Y\nclass _C:\n    pass\n__all__ = []\n",
        "b": "import a\nprint(a._Z, a._f())\ndef _g():\n    _C = 0\n    return _C\n",
    }
    assert dead_private_names(sources) == ["a._W", "a._X", "b._g"]


def test_every_private_name_is_read_inside_the_package():
    # a helper or constant that nothing reads is dead code left behind
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []


def raised_names(source: str) -> set[str]:
    """Names of the exceptions a module raises, as ``raise X`` or ``raise X(...)``."""
    raised = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
    return raised


def test_checker_finds_raised_names():
    source = "raise A('x')\nraise B\ntry:\n    pass\nexcept C:\n    raise\nC('not raised')\n"
    assert raised_names(source) == {"A", "B"}


def test_every_error_type_is_raised_in_the_package():
    # an error type that nothing raises is dead API: callers would catch it for nothing
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    defined = [n.name for n in errors.body if isinstance(n, ast.ClassDef) and n.name != "FracFemError"]
    raised = set().union(*(raised_names(p.read_text(encoding="utf-8")) for p in MODULES))
    assert defined and [name for name in defined if name not in raised] == []


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
        "fracfem.assembly._series_coeffs",
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


def test_with_alpha_shares_every_alpha_free_store():
    # every store a spec keeps is listed here, so a new one is either
    # shared by with_alpha or named as the alpha's own
    from functools import cached_property

    from fracfem.assembly import ProblemSpec
    from fracfem.fields import parse_field, source_bump

    stores = {name for name, value in vars(ProblemSpec).items()
              if isinstance(value, cached_property) and name.startswith("_")}
    shared, own = {"_far_plans", "_level_terms", "_moment_plans"}, {"_lead_tables"}
    assert stores == shared | own
    spec = ProblemSpec(alpha=1.3, q=parse_field("chi(0,0.5)"), f=source_bump())
    moved = spec.with_alpha(1.7)
    assert all(getattr(moved, name) is getattr(spec, name) for name in shared)
    assert all(getattr(moved, name) is not getattr(spec, name) for name in own)


DOTTED = re.compile(r"`(\w+(?:\.\w+)+)")


def _public_namespace():
    """The package's modules by short name and their public classes by name."""
    modules = _package_modules()
    spaces = {m.__name__.rpartition(".")[2]: m for m in modules}
    for m in modules:
        spaces.update((name, value) for name, value in vars(m).items()
                      if inspect.isclass(value) and value.__module__ == m.__name__ and not name.startswith("_"))
    return spaces


def unresolved_names(text: str, spaces: dict) -> list[str]:
    """Backticked dotted names in ``text`` led by a key of ``spaces``, with an
    optional ``fracfem.`` prefix, that name neither an attribute nor a
    dataclass field. A chain is followed while it names modules and classes."""
    missing = []
    for name in dict.fromkeys(DOTTED.findall(text)):
        head, *rest = name.removeprefix("fracfem.").split(".")
        obj = spaces.get(head)
        for part in rest if obj is not None else ():
            if dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
                break
            if not hasattr(obj, part):
                missing.append(name)
                break
            obj = getattr(obj, part)
            if not (inspect.ismodule(obj) or inspect.isclass(obj)):
                break
    return missing


def test_checker_flags_an_unresolved_readme_name():
    text = ("`analysis.error_norms` `ExactSolution.lead` `fracfem.mesh.Mesh.m` `Lead.of(mesh, alpha)` "
            "`analysis.error_norm` `fracfem.fields.no_such` `Mesh.width` `np.nothing` `lead.nothing()`")
    assert unresolved_names(text, _public_namespace()) == [
        "analysis.error_norm",
        "fracfem.fields.no_such",
        "Mesh.width",
    ]


def test_readme_names_resolve():
    # a renamed or deleted function, class or field leaves no stale name in the README
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    assert unresolved_names(readme, _public_namespace()) == []
