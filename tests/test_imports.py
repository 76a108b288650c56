"""Every module of the package reads what it imports: a name that a module
imports and never uses is left over from a deleted use.  And the package
runs on numpy and click alone: no module imports scipy."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hexpack"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source):
    """The names that ``source`` imports, ``__future__`` imports aside, and
    never reads as an ``ast.Name``, in the order of their imports."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_names_each_unused_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport scipy.sparse\n"
              "from .lattice import DIRECTIONS, neighbor_values as ring_values, neighbors\n"
              "def f(a: scipy.sparse.spmatrix):\n    return ring_values(np.zeros(3))\n")
    assert unused_imports(source) == ["DIRECTIONS", "neighbors"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def scipy_imports(source):
    """The line numbers of the imports of scipy or of one of its modules."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import)
            and any(alias.name.partition(".")[0] == "scipy" for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").partition(".")[0] == "scipy"]


def test_the_scan_finds_each_scipy_import():
    source = ("import numpy, scipy\nimport scipy.sparse.linalg as sla\n"
              "from scipy import sparse\nfrom .scipy import x\nimport scipyx\n"
              "def f():\n    from scipy.linalg import lu\n")
    assert sorted(scipy_imports(source)) == [1, 2, 3, 7]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_scipy(path):
    assert scipy_imports(path.read_text()) == []
