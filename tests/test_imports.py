"""No module of the package keeps a top-level import that it never uses.

No linter ships with the project, so this walks each module's syntax
tree: every name bound by a top-level import must occur as a name
somewhere in the module.  ``__init__`` is skipped, since its imports
are the public re-exports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dilemma"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom x import a, b as c\n"
                          "print(sys.argv, c)\n") == ["os", "a"]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_top_level_import(path):
    assert unused_imports((PACKAGE / path).read_text()) == []
