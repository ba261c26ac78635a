"""Static checks on the package sources, with the standard library's `ast`
and `re` only: every import a module binds is used in that module (or its
line says `# noqa: F401`), every private module-level function or class is
named somewhere else in the package, and so is every public one that is
not exempt."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hcfill"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path):
    text = path.read_text()
    return text.splitlines(), ast.parse(text, str(path))


def _import_bindings(tree):
    """(name, line) of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), alias.lineno


def _references(tree):
    """Every name the module reads: bare names and attribute names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    if path.name == "__init__.py":
        return  # its imports are the package's public names
    lines, tree = _parse(path)
    used = set(_references(tree))
    unused = [f"{path.name}:{line}: {name}" for name, line in _import_bindings(tree)
              if name not in used and "# noqa: F401" not in lines[line - 1]]
    assert unused == []


def test_every_private_definition_is_named_elsewhere():
    """A private function or class at module level that no other line of
    the package names is dead code."""
    trees = {path.name: _parse(path)[1] for path in MODULES}
    named = set()
    for tree in trees.values():
        named.update(_references(tree))
        named.update(alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) for alias in node.names)
    dead = [f"{module}: {node.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in named]
    assert dead == []


# Public definitions that only the package's users read, so that no line of
# the package names them.
PUBLIC_EXEMPT = {
    "shapes.py": "the fixture makers, which tests, examples and benchmarks build",
    "save_space": "writes the space documents that `load_space` reads",
    "load_matrix_net": "README's loader for CSV distance matrices",
}


def test_every_public_definition_is_named_elsewhere():
    """A public function or class at module level that no line of the
    package names, outside its own definition and `__init__.py`, is read
    only by tests: dead library code."""
    lines = {path.name: path.read_text().splitlines()
             for path in MODULES if path.name != "__init__.py"}
    dead = []
    for module in lines.keys() - PUBLIC_EXEMPT.keys():
        for node in _parse(SRC / module)[1].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_") or node.name in PUBLIC_EXEMPT:
                continue
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(line) for name, text in lines.items()
                       for i, line in enumerate(text, 1)
                       if not (name == module and node.lineno <= i <= node.end_lineno)):
                dead.append(f"{module}: {node.name}")
    assert dead == []
