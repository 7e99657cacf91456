"""Checks on the names each module of the package binds, loads and exports.

No linter ships with the toolchain, so the first checks walk each module's
syntax tree:

* every name bound by an import must appear as a name somewhere else in
  the module;
* every name a module loads must be bound somewhere in it, be a builtin
  or be ``__file__``, so a call into a forgotten import cannot wait for
  its first run to raise ``NameError``;
* every public top-level function or class must be exported by the
  package or referenced by name somewhere in it, and every public method
  or property of a public class named as an attribute somewhere in it,
  so code whose only caller is its own test does not stay behind;
* every defaulted parameter of a public function or method must be passed
  by some call in the package, so no knob stays that only a test turns.

The others check that the package resolves its public names on first use,
so a process loads only the modules it needs.
"""

import ast
import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pigroups

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pigroups"
ALL_MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unbound_names(source: str) -> list[str]:
    """Loaded names that nothing in the module binds, scopes ignored."""
    tree = ast.parse(source)
    bound = set(dir(builtins)) | {"__file__"}
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            (loaded if isinstance(node.ctx, ast.Load) else bound).add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    return sorted(loaded - bound)


def unreferenced_definitions(sources: dict[str, str], exported) -> list[str]:
    """``module:name`` of each public top-level function or class of the
    sources that is not in ``exported`` and that no source names, as a
    variable or as an attribute; and ``module:Class.name`` of each public
    method or property of a public top-level class that no source names
    as an attribute. A match is by name alone."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = set(exported)
    attributes = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    named |= attributes
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, definitions) or node.name.startswith("_"):
                continue
            if node.name not in named:
                found.append(f"{module}:{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{module}:{node.name}.{item.name}" for item in node.body
                          if isinstance(item, definitions[:2])
                          and not item.name.startswith("_") and item.name not in attributes]
    return sorted(found)


def unpassed_defaults(sources: dict[str, str]) -> list[str]:
    """``module:function(parameter)`` of each defaulted parameter of a public
    top-level function, or of a public method or constructor of a public
    class, that no call in the sources passes by keyword or by position. A
    call matches a definition by its name alone (a class name for
    ``__init__``), and a call with ``*`` or ``**`` arguments passes them all."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for module, tree in trees.items():
        defs = [(node.name, node, 0) for node in tree.body
                if isinstance(node, functions) and not node.name.startswith("_")]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                defs += [(cls.name if item.name == "__init__" else item.name, item, 1)
                         for item in cls.body if isinstance(item, functions)
                         and (item.name == "__init__" or not item.name.startswith("_"))]
        for name, node, skip in defs:
            positional = (node.args.posonlyargs + node.args.args)[skip:]
            defaulted = [(i, a.arg) for i, a in enumerate(positional)
                         if i >= len(positional) - len(node.args.defaults)]
            defaulted += [(None, a.arg) for a, d in
                          zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
            for index, arg in defaulted:
                if not any(
                    any(k.arg in (arg, None) for k in call.keywords)
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    or (index is not None and len(call.args) > index)
                    for call in calls.get(name, [])
                ):
                    found.append(f"{module}:{name}({arg})")
    return sorted(found)


def test_checker_finds_unused_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nnp.zeros(c)\n"
    assert unused_imports(source) == ["d", "os"]


def test_checker_finds_unbound_names():
    source = (
        "import os.path\nfrom a import b as c\n"
        "class K:\n    pass\n"
        "def f(x, *args, y=1, **kw):\n"
        "    try:\n        z = [i for i in args]\n"
        "    except OSError as err:\n        raise Missing(err) from None\n"
        "    return os, c, K, x, y, kw, z, len, __file__, Other\n"
    )
    assert unbound_names(source) == ["Missing", "Other"]


def test_checker_finds_unreferenced_definitions():
    sources = {
        "a.py": "def used():\n    pass\ndef spare():\n    pass\ndef _private():\n    pass\n"
                "class Shown:\n    def method(self):\n        pass\n"
                "    def unused(self):\n        pass\n"
                "    @property\n    def size(self):\n        pass\n"
                "    def _helper(self):\n        pass\n",
        "b.py": "from .a import used\nimport x\nused()\nx.attribute\nx.method()\n"
                "def attribute():\n    pass\nclass Spare:\n    pass\n"
                "size = 1\n",
    }
    # a method counts as referenced only as an attribute: `size = 1` does not
    assert unreferenced_definitions(sources, exported=["Shown"]) == [
        "a.py:Shown.size", "a.py:Shown.unused", "a.py:spare", "b.py:Spare"]


def test_checker_finds_unpassed_defaults():
    sources = {
        "a.py": "def f(x, y=1, *, z=2):\n    pass\n"
                "def g(x, y=1):\n    pass\n"
                "def _h(x=1):\n    pass\n"
                "class K:\n    def __init__(self, a=1):\n        pass\n"
                "    def m(self, b=1, c=2):\n        pass\n",
        "b.py": "f(0, z=3)\ng(0, **kw)\nK()\nk.m(5)\n",
    }
    assert unpassed_defaults(sources) == ["a.py:K(a)", "a.py:f(y)", "a.py:m(c)"]


def test_every_defaulted_parameter_is_passed_by_some_caller():
    sources = {module: (PACKAGE / module).read_text() for module in ALL_MODULES}
    # the entry point's argv is set by the interpreter's caller, not the package
    assert [d for d in unpassed_defaults(sources) if d != "cli.py:main(argv)"] == []


def test_every_public_definition_is_exported_or_referenced():
    sources = {module: (PACKAGE / module).read_text() for module in ALL_MODULES}
    assert unreferenced_definitions(sources, pigroups.__all__) == []


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_unbound_names(module):
    assert unbound_names((PACKAGE / module).read_text()) == []


# the package's public names, listed apart from the package's own table
PUBLIC_NAMES = (
    "AlgorithmConfig", "CountingExperiment", "algorithm1", "algorithm2", "full_space_C",
    "predict_dependent", "DimensionVector", "PiBasis", "Quantity", "QuantitySystem",
    "build_dimension_matrix", "check_dimensionless", "nullspace_basis", "parse_unit_expr",
    "pi_basis", "solve_output_exponents", "ExternalExperiment", "PipeFlowExperiment",
    "friction_factor", "pipe_quantity_system", "regime_box",
    "QuadratureRule", "RegimeBox", "gauss_legendre_1d", "latin_hypercube",
    "monte_carlo_rule", "tensor_rule", "SubspaceResult", "assemble_C", "eigendecompose",
    "rotation_angle", "sensitivity_metrics", "subspace_distance", "unique_groups",
    "ResponseSurface", "eval_surface", "fit_polynomial", "grad_surface", "n_coefficients",
)


def loaded_modules(code: str, *argv: str) -> set[str]:
    """Run ``code`` in a fresh interpreter on this package; it must exit 0.
    Returns the names in its ``sys.modules`` at exit."""
    env = dict(os.environ)
    src = str(Path(pigroups.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    report = "import sys, json; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_every_public_name_imports_from_the_package():
    assert sorted(pigroups.__all__) == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        obj = getattr(pigroups, name)
        assert obj.__name__ == name
        assert obj.__module__ == f"pigroups.{pigroups._EXPORTS[name]}"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pigroups.no_such_name


def test_public_names_are_looked_up_on_each_access(monkeypatch):
    import pigroups.algorithms

    def stand_in():
        pass

    assert pigroups.algorithm2 is pigroups.algorithms.algorithm2
    monkeypatch.setattr(pigroups.algorithms, "algorithm2", stand_in)
    assert pigroups.algorithm2 is stand_in


def test_importing_the_pipe_model_loads_only_what_it_needs():
    # the external child's import: the model and its errors, nothing else
    loaded = loaded_modules("import pigroups.pipeflow")
    assert {name for name in loaded if name.startswith("pigroups")} == {
        "pigroups", "pigroups.pipeflow", "pigroups.errors"}
    for name in ("concurrent.futures", "fractions", "decimal"):
        assert name not in loaded


def test_submodules_load_on_attribute_access():
    loaded = loaded_modules("import pigroups\n"
                            "assert pigroups.external.ExternalExperiment.__name__ == "
                            "'ExternalExperiment'")
    assert "pigroups.external" in loaded
    assert "pigroups.algorithms" not in loaded


def test_builtin_analyze_never_loads_the_external_module(tmp_path):
    # --workers 1 is what the benchmark passes; the built-in run accepts it
    loaded = loaded_modules(
        "import sys\nfrom pigroups.cli import main\nassert main(sys.argv[1:]) == 0",
        "analyze", "--regime", "turbulent", "--quad", "tensor:3", "--workers", "1",
        "--out-dir", str(tmp_path))
    assert "pigroups.algorithms" in loaded
    assert "pigroups.external" not in loaded
    assert "concurrent.futures" not in loaded


def test_pi_basis_loads_no_analysis_module(tmp_path):
    system = tmp_path / "pipe.json"
    system.write_text(json.dumps(pigroups.pipe_quantity_system().to_dict()))
    loaded = loaded_modules(
        "import sys\nfrom pigroups.cli import main\nassert main(sys.argv[1:]) == 0",
        "pi-basis", str(system))
    assert "pigroups.dimension" in loaded
    for name in ("algorithms", "quadrature", "subspace", "surrogate", "external"):
        assert f"pigroups.{name}" not in loaded
