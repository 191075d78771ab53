"""Guards on the package's public surface and its internal layering."""

import ast
from pathlib import Path

import stiefelprox

PACKAGE = Path(stiefelprox.__file__).resolve().parent


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks `from stiefelprox import *`
    missing = [name for name in stiefelprox.__all__ if not hasattr(stiefelprox, name)]
    assert missing == []
    assert len(stiefelprox.__all__) == len(set(stiefelprox.__all__))


def test_every_public_import_is_exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert imported == set(stiefelprox.__all__)


def test_solver_imports_no_private_name_from_a_sibling():
    # the solver reaches the manifold only through the stiefel module's public
    # API, which owns the feasibility and tangency invariants
    tree = ast.parse((PACKAGE / "solver.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
