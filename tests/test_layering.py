"""The command line and the batch runner solve through one lattice per
instance: they may reach into ``solvers`` only for ``_Lattice`` and for
``_flow_solution`` (whose flow witnesses ``oracle-check`` judges), so the
choice of what to build for which criterion stays in ``solvers``.  And one
cut builds every derived instance: ``Instance`` is constructed only by the
reader's ``model._by_position`` and by ``model._cut``."""

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


class _InstanceCalls(ast.NodeVisitor):
    """The (module, innermost function) of each ``Instance(...)`` call."""

    def __init__(self, module: str):
        self.module, self.scope, self.found = module, ["<module>"], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "Instance":
            self.found.add((self.module, self.scope[-1]))
        self.generic_visit(node)


def test_instances_are_built_only_by_the_reader_and_the_cut():
    found = set()
    for path in Path(profmatch.__file__).parent.glob("*.py"):
        calls = _InstanceCalls(path.stem)
        calls.visit(ast.parse(path.read_text()))
        found |= calls.found
    assert found == {("model", "_by_position"), ("model", "_cut")}
