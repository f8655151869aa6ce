"""The command line and the batch runner solve through one lattice per
instance: they may reach into ``solvers`` only for ``_Lattice`` and for
``_flow_solution`` (whose flow witnesses ``oracle-check`` judges), so the
choice of what to build for which criterion stays in ``solvers``.  One
cut builds every derived instance: ``Instance`` is constructed only by the
reader's ``model._by_position`` and by ``model._cut``.  And the rotation
digraph, the sparse profile and the matching keep their representations
to the modules that own them: every other module reads them through their
methods."""

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


# The private names that hold each representation, and the one module that
# may name them.
OWNERS = {
    "_preds": "rotations",
    "_into": "rotations",
    "_of_predecessors": "rotations",
    "_pairs": "profiles",
    "_from_pairs": "profiles",
    "_wife": "model",
}


def _names(tree: ast.AST):
    """Every identifier ``tree`` defines or reads, and every string constant
    (which ``getattr`` and ``__slots__`` name attributes by)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.name
            yield node.asname
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_representations_are_named_only_by_their_modules():
    users: dict[str, set[str]] = {}
    for path in Path(profmatch.__file__).parent.glob("*.py"):
        for name in OWNERS.keys() & set(_names(ast.parse(path.read_text()))):
            users.setdefault(name, set()).add(path.stem)
    assert users == {name: {module} for name, module in OWNERS.items()}
