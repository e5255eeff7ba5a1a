"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

import femwarp

PACKAGE = Path(femwarp.__file__).parent


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
