"""Every imported name in the package and its tests is used, and so is
every private module-level name of the package.

No linter runs on this repository, so this is the check that catches an
import or a helper left behind by a refactor.  ``__init__.py`` is exempt
from the import check, since its imports are the package's re-exports, and
so is ``from __future__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "wpinterp").glob("*.py"))
EVERY_FILE = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
SOURCES = [path for path in EVERY_FILE if path.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from x import a, b as c\n"
        "c(os)\n"
    )
    assert unused_imports(source) == ["line 2: math", "line 4: a"]


def private_definitions(source: str) -> dict[str, int]:
    """Module-level names with one leading underscore that ``source`` binds, with their lines."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def read_names(source: str) -> set[str]:
    """Names that ``source`` reads, as a variable or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_no_unread_private_names():
    read = set().union(*(read_names(path.read_text()) for path in EVERY_FILE))
    unread = [
        f"{path.relative_to(ROOT)} line {line}: {name}"
        for path in PACKAGE
        for name, line in private_definitions(path.read_text()).items()
        if name not in read
    ]
    assert unread == []


def test_the_scan_sees_an_unread_private_name():
    source = (
        "_SEEN = 1\n"
        "_lost: int = 2\n"
        "__version__ = '1'\n"
        "def _helper():\n"
        "    return _SEEN\n"
        "class _Kind:\n"
        "    pass\n"
        "_Kind.mro()\n"
    )
    assert private_definitions(source) == {"_SEEN": 1, "_lost": 2, "_helper": 4, "_Kind": 6}
    assert set(private_definitions(source)) - read_names(source) == {"_lost", "_helper"}
