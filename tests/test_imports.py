"""Every module-level import of the package and of the tests is used.

No linter runs in CI, so this stdlib check catches an import that a module
binds and never reads.  A name counts as read when the module loads it
anywhere (as a name, or as the base of an attribute) or lists it in
``__all__``; the package's ``__init__.py`` only re-exports, so it is not
checked.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*ROOT.glob("src/heckemod/*.py"),
                             *ROOT.glob("tests/*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each name bound by a module-level import of
    ``source`` that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= {x.value for x in node.value.elts}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_an_unused_name():
    source = ("import itertools\nimport math\nfrom os import path as p\n"
              "from typing import List\n__all__ = ['List']\n"
              "x: 'unused' = math.pi\n")
    assert unused_imports(source) == [(1, "itertools"), (3, "p")]
