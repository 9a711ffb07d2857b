"""No module in ``src/cvdist`` keeps an import it does not use.

No linter ships with the test dependencies, so this reads each module's
syntax tree: every name an import binds must be read somewhere in that
module, as a name or as the root of an attribute chain. Unquoted
annotations are names in the tree, so they count as uses.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cvdist"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "from .errors import NotPhysical, ParamOutOfRange\nraise ParamOutOfRange\n"
    assert unused_imports(source) == [(1, "NotPhysical")]
