"""Checks on the names each module of the package binds, loads and exports.

No linter ships with the toolchain, so the first checks walk each module's
syntax tree. The first two read the test files too:

* every name bound by an import must appear as a name somewhere else in
  the module;
* every name a module loads must be bound somewhere in it, be a builtin
  or be ``__file__``, so a call into a forgotten import cannot wait for
  its first run to raise ``NameError``;
* every public top-level function or class must be referenced by name
  somewhere in the package, and every public method or property of a
  public class named as an attribute somewhere in it, so code whose only
  caller is its own test does not stay behind; an entry in the package's
  export table is a string, not a caller;
* every private top-level function or class, and every private method of a
  top-level class, must be named somewhere else in its own module, so a
  helper whose callers are gone goes with them; this one reads the test
  files too;
* every defaulted parameter of a public function or method must be passed
  by some call in the package, so no knob stays that only a test turns.

Another resolves the type hints of every function and method, with the
names that a module imports for annotations only, under
``typing.TYPE_CHECKING``, as a type checker sees them.

One checks that every tolerance check that raises is NaN-proof: an ``if``
whose body raises must not test ``x > tol``, which is false for a NaN x,
where ``tol`` is a ``*_TOL`` or ``*_LIMIT`` name or a float literal in (0, 1),
alone or in a product; it tests ``not x <= tol`` instead.

One checks that no module imports another's single-underscore name: a
value two modules share, such as a chunk size, is public or each keeps its
own. One checks that only ``errors.py`` imports ``numbers``: an option value's
type is decided there, by ``check_count`` or ``check_positive``. The others
check that the package resolves its public names on first use, so a process
loads only the modules it needs.
"""

import ast
import builtins
import importlib
import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import pigroups
from helpers import PIPE_SYSTEM_DOC

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pigroups"
ALL_MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
# the files that the import and name checks read: the package's modules by
# name, and the test files by their path under tests/
HYGIENE_FILES = {**{module: PACKAGE / module for module in ALL_MODULES},
                 **{f"tests/{path.name}": path
                    for path in sorted(Path(__file__).resolve().parent.glob("*.py"))}}


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


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """``module:name`` of each public top-level function or class of the
    sources that no source names, as a variable or as an attribute; and
    ``module:Class.name`` of each public method or property of a public
    top-level class that no source names as an attribute. A match is by
    name alone."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = set()
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


def unreferenced_private_definitions(source: str) -> list[str]:
    """``name`` of each single-underscore top-level function or class of the
    module, and ``Class.name`` of each single-underscore method or class in
    the body of a top-level class, that nothing else in the module names, as
    a variable or as an attribute. Dunder names are Python's to call."""
    tree = ast.parse(source)
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}

    def unreferenced(node) -> bool:
        return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not (node.name.startswith("__") and node.name.endswith("__"))
                and node.name not in named)

    found = [node.name for node in tree.body if unreferenced(node)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            found += [f"{cls.name}.{item.name}" for item in cls.body if unreferenced(item)]
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
        "__init__.py": "_EXPORTS = ('Shown', 'spare')\n",
    }
    # a method counts as referenced only as an attribute: `size = 1` does
    # not; and a name in an export table is a string, not a reference
    assert unreferenced_definitions(sources) == [
        "a.py:Shown", "a.py:Shown.size", "a.py:Shown.unused", "a.py:spare", "b.py:Spare"]


def test_checker_finds_unreferenced_private_definitions():
    source = (
        "def _called():\n    pass\ndef _spare():\n    pass\ndef __getattr__(name):\n    pass\n"
        "class _Kept:\n    def _attribute(self):\n        pass\n"
        "    def _unused(self):\n        pass\n    def __init__(self):\n        self._attribute()\n"
        "class _Lost:\n    def public(self):\n        pass\n"
        "async def _waited():\n    pass\n"
        "def f():\n    def _inner():\n        pass\n    return _called(), _Kept, _waited\n"
    )
    # a dunder is Python's to call, and a nested function is not checked
    assert unreferenced_private_definitions(source) == ["_Kept._unused", "_Lost", "_spare"]


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


def _is_tolerance(node) -> bool:
    """A ``*_TOL`` or ``*_LIMIT`` name or a float literal in (0, 1), alone
    or as a factor of a product; ``x > 0.0`` is a sign test, not a tolerance."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _is_tolerance(node.left) or _is_tolerance(node.right)
    if isinstance(node, ast.Name):
        return node.id.endswith(("_TOL", "_LIMIT"))
    return isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value < 1


def nan_blind_checks(source: str) -> list[int]:
    """The line of each ``if`` whose body raises and whose test compares
    ``x > tol`` for a tolerance ``tol``: a NaN x passes such a check."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body)):
            continue
        if any(isinstance(op, ast.Gt) and _is_tolerance(right)
               for cmp in ast.walk(node.test) if isinstance(cmp, ast.Compare)
               for op, right in zip(cmp.ops, cmp.comparators)):
            found.append(node.lineno)
    return sorted(found)


def test_checker_finds_nan_blind_checks():
    source = (
        "if res > BASIS_TOL:\n    raise E\n"
        "if a > 1e-10 * scale or b:\n    raise E\n"
        "if not res <= BASIS_TOL:\n    raise E\n"
        "if cond > CONDITION_LIMIT:\n    x = 1\n"
        "if n > 2.0 or n > 3:\n    raise E\n"
        "if len(x) > MAX_POINTS:\n    raise E\n"
        "if x > 0.0:\n    raise E\n"
        "if a > b > 1e-8:\n    raise E\n"
    )
    assert nan_blind_checks(source) == [1, 3, 15]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_every_tolerance_check_refuses_nan(module):
    assert nan_blind_checks((PACKAGE / module).read_text()) == []


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules that ``source`` imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def private_imports(source: str) -> list[str]:
    """Each single-underscore name that ``source`` imports from a module of
    the package, by a relative import or from ``pigroups`` by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "pigroups"):
            found += [a.name for a in node.names
                      if a.name.startswith("_") and not a.name.startswith("__")]
    return sorted(found)


def test_checker_finds_private_imports():
    source = ("from __future__ import annotations\nfrom . import __version__, jsonio\n"
              "from .a import _B, c\nfrom pigroups.d import _e\nfrom numpy import _f\n"
              "def g():\n    from ..h import _i\n")
    assert private_imports(source) == ["_B", "_e", "_i"]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_module_imports_a_private_name_of_another(module):
    assert private_imports((PACKAGE / module).read_text()) == []


def test_only_the_errors_module_imports_numbers():
    assert [module for module in ALL_MODULES
            if "numbers" in imported_modules((PACKAGE / module).read_text())] == ["errors.py"]


def test_every_defaulted_parameter_is_passed_by_some_caller():
    sources = {module: (PACKAGE / module).read_text() for module in ALL_MODULES}
    # the entry point's argv is set by the interpreter's caller, not the package
    assert [d for d in unpassed_defaults(sources) if d != "cli.py:main(argv)"] == []


def test_every_public_definition_is_referenced():
    sources = {module: (PACKAGE / module).read_text() for module in ALL_MODULES}
    assert unreferenced_definitions(sources) == []


@pytest.mark.parametrize("module", HYGIENE_FILES)
def test_every_private_definition_is_referenced_in_its_module(module):
    assert unreferenced_private_definitions(HYGIENE_FILES[module].read_text()) == []


@pytest.mark.parametrize("module", HYGIENE_FILES)
def test_no_unused_imports(module):
    assert unused_imports(HYGIENE_FILES[module].read_text()) == []


@pytest.mark.parametrize("module", HYGIENE_FILES)
def test_no_unbound_names(module):
    assert unbound_names(HYGIENE_FILES[module].read_text()) == []


def type_checking_names(module) -> dict:
    """The names that the module's ``if TYPE_CHECKING:`` blocks import."""
    names = {}
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            code = compile(ast.Module(node.body, []), module.__file__, "exec")
            exec(code, {"__name__": module.__name__, "__package__": "pigroups"}, names)
    return names


@pytest.mark.parametrize("module", ALL_MODULES)
def test_every_annotation_resolves(module):
    mod = importlib.import_module(f"pigroups.{module[:-3]}")
    local = type_checking_names(mod)
    functions = []
    for _, obj in inspect.getmembers(mod):
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            functions.append(obj)
        elif inspect.isclass(obj):
            functions += [f for _, f in inspect.getmembers(obj, inspect.isfunction)
                          if f.__module__ == mod.__name__]
    assert functions or module == "__main__.py"
    unresolved = []
    for function in functions:
        try:
            typing.get_type_hints(function, localns=local)
        except NameError as exc:
            unresolved.append(f"{function.__qualname__}: {exc}")
    assert unresolved == []


# the package's public names, listed apart from the package's own table
PUBLIC_NAMES = (
    "AlgorithmConfig", "CountingExperiment", "algorithm1", "algorithm2", "full_space_C",
    "predict_dependent", "PiBasis", "Quantity", "QuantitySystem",
    "build_dimension_matrix", "check_dimensionless", "nullspace_basis", "parse_unit_expr",
    "pi_basis", "solve_output_exponents", "ExternalExperiment", "PipeFlowExperiment",
    "friction_factor", "pipe_quantity_system", "regime_box",
    "QuadratureRule", "RegimeBox", "gauss_legendre_1d", "latin_hypercube",
    "monte_carlo_rule", "tensor_rule", "SubspaceResult", "assemble_C", "eigendecompose",
    "rotation_angle", "unique_groups",
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
    system.write_text(json.dumps(PIPE_SYSTEM_DOC))
    loaded = loaded_modules(
        "import sys\nfrom pigroups.cli import main\nassert main(sys.argv[1:]) == 0",
        "pi-basis", str(system))
    assert "pigroups.dimension" in loaded
    for name in ("algorithms", "quadrature", "subspace", "surrogate", "external"):
        assert f"pigroups.{name}" not in loaded
