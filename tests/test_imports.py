"""Static checks on the names each module of the package binds and loads.

No linter ships with the toolchain, so these walk each module's syntax
tree:

* every name bound by an import must appear as a name somewhere else in
  the module (``__init__`` is excluded because its imports are the
  package's public re-exports);
* every name a module loads must be bound somewhere in it, be a builtin
  or be ``__file__``, so a call into a forgotten import cannot wait for
  its first run to raise ``NameError``.
"""

import ast
import builtins
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pigroups"
ALL_MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
MODULES = [name for name in ALL_MODULES if name != "__init__.py"]


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


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_unbound_names(module):
    assert unbound_names((PACKAGE / module).read_text()) == []
