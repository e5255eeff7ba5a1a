"""Every module of the package uses each name it imports, every
module-level definition the package does not re-export is read somewhere
in it, and the mutation check's list matches the source."""

import ast
from pathlib import Path

import pytest

import femwarp
import mutants

PACKAGE = Path(femwarp.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    bound = [a.asname or a.name.split(".")[0] for n in imports for a in n.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_detects_an_unused_import():
    assert unused_imports("import os, a.b\nfrom m import x, y as z\nx(a.b)\n") == ["os", "z"]


@pytest.mark.parametrize("name", sorted({p.name for p in PACKAGE.glob("*.py")} - {"__init__.py"}))
def test_no_unused_import(name):
    assert unused_imports((PACKAGE / name).read_text()) == []


def _defined(stmt):
    """Names a module-level statement defines: a function, a class or the
    targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unread_definitions(sources, exported):
    """Module-level names defined in ``sources`` (module name -> source),
    neither dunder nor in ``exported``, that no statement of any module
    reads outside the statement defining them, as a name or an
    attribute."""
    defined = []
    read = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = _defined(stmt)
            defined += [(module, name) for name in names]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    word = node.id
                elif isinstance(node, ast.Attribute):
                    word = node.attr
                else:
                    continue
                if word not in names:
                    read.add(word)
    return [
        f"{module}.{name}"
        for module, name in defined
        if name not in read and name not in exported and not name.startswith("__")
    ]


def test_detects_an_unread_definition():
    sources = {
        "a": "X = 1\nY = 2\ndef f():\n    return f()\n"
        "def g():\n    return X\nclass C:\n    pass\n",
        "b": "from .a import g\n__all__ = ['g']\ng()\n",
    }
    assert unread_definitions(sources, {"C"}) == ["a.Y", "a.f"]


def test_no_unread_definition():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_definitions(sources, set(femwarp.__all__)) == []


def test_detects_a_stale_mutant(monkeypatch):
    monkeypatch.setattr(
        mutants,
        "MUTANTS",
        {
            "gone": ("src/femwarp/untangle.py", "no such text", "x", ("tests/no_such_test.py",)),
            "same": ("src/femwarp/untangle.py", "import math\n", "import math\n", ()),
        },
    )
    assert [name for name, _ in mutants.stale(ROOT)] == ["gone", "gone", "same"]


def test_mutants_match_the_source():
    # each mutant of tests/mutants.py replaces a text that occurs once in its
    # file by another and names test files that exist, so the mutation
    # check does not go stale as src changes
    assert len(mutants.MUTANTS) >= 20 and mutants.stale(ROOT) == []
