"""The command line and the batch runner solve through one lattice per
instance: they may reach into ``solvers`` only for ``_Lattice`` and for
``_flow_solution`` (whose flow witnesses ``oracle-check`` judges), so the
choice of what to build for which criterion stays in ``solvers``."""

import ast
from pathlib import Path

import profmatch

ALLOWED_PRIVATE = {"_Lattice", "_flow_solution"}


def _private_solvers_names(module: str) -> set[str]:
    tree = ast.parse((Path(profmatch.__file__).parent / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module, node.level) in (
            ("solvers", 1), ("profmatch.solvers", 0)
        ):
            names.update(alias.name for alias in node.names if alias.name.startswith("_"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "solvers" and node.attr.startswith("_"):
                names.add(node.attr)
    return names


def test_callers_import_only_the_lattice_and_flow_solve_from_solvers():
    for module in ("cli", "analytics"):
        assert _private_solvers_names(module) <= ALLOWED_PRIVATE, module
    assert _private_solvers_names("cli") == ALLOWED_PRIVATE
