"""Every public function and class of `spectral` and `evolution` has a use in the package;
one that only the tests reach belongs in `tests/conftest.py`."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dispersmooth"

#: The transform convention in code, which the benchmark's transform-pair layer wraps.
ALLOWED = {"to_coefficients", "to_samples"}


def references(tree: ast.AST, skip: ast.AST) -> set[str]:
    """The names and attribute names read in ``tree`` outside the subtree ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            names.add(node.id if isinstance(node, ast.Name) else getattr(node, "attr", None))
            stack.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("module", ["spectral", "evolution"])
def test_every_public_definition_has_a_use_in_the_package(module):
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    public = [
        node
        for node in trees[module].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    unused = [d.name for d in public if not any(d.name in references(t, d) for t in trees.values())]
    assert sorted(set(unused) - ALLOWED) == []
