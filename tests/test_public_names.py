"""Every public function and class of `spectral` and `evolution` has a use in the package;
one that only the tests reach belongs in `tests/conftest.py`, and so does the full lattice."""

import ast
from pathlib import Path

import numpy as np
import pytest

from dispersmooth import spectral
from dispersmooth.evolution import SystemState

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dispersmooth"

#: The transform and norm conventions in code, which the benchmark's layers wrap.
ALLOWED = {"to_coefficients", "to_samples", "sobolev_norm"}

#: The full-lattice representation, which the tests keep as oracles in `conftest`.
REMOVED = {"SpectralField", "_check_same_grid", "dealias", "band_limited", "require_real", "l2_norm",
           "from_box"}


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


def test_the_full_lattice_representation_stays_out():
    assert sorted(REMOVED & set(vars(spectral))) == []
    assert not hasattr(SystemState, "from_full")


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_grid_holds_no_lattice_array(dim):
    grid = spectral.Grid(dim, 16)
    shapes = [a.shape for a in vars(grid).values() if isinstance(a, np.ndarray)]
    assert grid.box_shape in shapes and grid.shape not in shapes
