"""Every name imported into a `tempmem` module is used in it, and every
private module-level name a `tempmem` module defines is read somewhere in
the package.

No linter runs over the package, so these are the checks that a refactor
leaves no import and no helper behind.  `__init__` is left out of the
import check: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import tempmem

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tempmem"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names that the module `source` imports and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    assert unused_imports("import math\nfrom x import a, b as c\nc()\n") == ["math", "a"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> list[str]:
    """The `_name`s (not dunders) that the module `source` binds at its top
    level: functions, classes and assignments."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def reads(source: str) -> set[str]:
    """The names and attributes that the module `source` reads."""
    tree = ast.parse(source)
    return ({n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_finds_an_orphaned_helper():
    source = "_A, (_B, c) = 1, (2, 3)\n_C: int = _A\ndef _f(): pass\nclass _K: pass\n"
    assert private_definitions(source) == ["_A", "_B", "_C", "_f", "_K"]
    assert [n for n in private_definitions(source) if n not in reads(source)] == \
        ["_B", "_C", "_f", "_K"]


def test_no_orphaned_private_helpers():
    read = set().union(*(reads(p.read_text()) for p in SOURCES))
    orphans = [f"{p.name}: {name}" for p in SOURCES
               for name in private_definitions(p.read_text()) if name not in read]
    assert orphans == []


def test_exports_are_the_imported_names():
    """`tempmem.__all__` lists each name `__init__` imports, once."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for a in node.names}
    assert len(tempmem.__all__) == len(set(tempmem.__all__))
    assert set(tempmem.__all__) == imported
