"""Source hygiene of the package: every imported name is used."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "convdom"


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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    used = referenced_names(tree) | exported_names(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in imported_names(tree).items() if name not in used]
    assert unused == []
