"""Source hygiene and the names the benchmark's tracer keys on.

Every imported name is used, in the package and in the tests; every private
module-level function or class of the package is used in it.  The tracer
wraps only members defined in a public class's own ``__dict__``, so the
members it reports must stay there, not move to a private base class.
"""

import ast
from pathlib import Path

import pytest

from convdom import CovarianceElement, Cyclic, Envelope, Kernel, TestVector
from convdom import io as formats

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "convdom"
TESTS = Path(__file__).resolve().parent


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module's imports bind, with the line of its import; ``__future__`` imports bind none."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, in code and in annotations written as strings."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= referenced_names(ast.parse(annotation.value, mode="eval"))
    return names


def exported_names(tree: ast.Module) -> set[str]:
    """The strings of a module's ``__all__`` list, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    used = referenced_names(tree) | exported_names(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in imported_names(tree).items() if name not in used]
    assert unused == []


def test_every_private_module_level_function_and_class_is_used():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*map(referenced_names, trees.values()))
    defined = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_") and node.name not in used
    ]
    assert defined == []


def test_the_members_the_tracer_reports_stay_on_their_own_classes(tmp_path, monkeypatch):
    for cls in (Kernel, CovarianceElement, TestVector, Envelope):
        assert "__init__" in vars(cls), cls
    for name in ("compose", "to_dense", "from_dense", "min_envelope", "restrict_to_ball"):
        assert name in vars(Kernel), name
    assert "product" in vars(CovarianceElement)
    # The tracer counts a kernel's entries at its __init__; the reader is its caller on file input.
    formats.write_kernel(tmp_path / "k.json", Kernel.identity(Cyclic(3), 2))
    calls, init = [], Kernel.__init__
    monkeypatch.setattr(Kernel, "__init__", lambda self, *args: calls.append(args) or init(self, *args))
    kernel = formats.read_kernel(tmp_path / "k.json")
    assert len(calls) == 1 and len(kernel.entries) == 3
