"""Static checks on the package sources, with the standard library's `ast`
only: every import a module binds is used in that module (or its
line says `# noqa: F401`), every private module-level function or class is
named somewhere else in the package, and so is every public one that is
not exempt, every public method or property of a library class is
named in the package or in `perfbench/`, and the private names one module
imports from another are the pinned ones."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hcfill"
MODULES = sorted(SRC.glob("*.py"))
# the benchmark's harness, whose reads keep a library member alive; its
# tests do not
PERFBENCH = sorted(p for p in (ROOT / "perfbench").glob("*.py")
                   if not p.name.startswith("test_"))


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


# Public definitions that no statement of the package reads, each kept for
# the reason given.
PUBLIC_EXEMPT = {
    "shapes.py": "the fixture makers, which tests, examples and benchmarks build",
    "save_space": "writes the space documents that `load_space` reads",
    "load_matrix_net": "README's loader for CSV distance matrices",
    "grid_ball": "the reference that tests hold `GridBalls` keys to",
    "verify_decomposition": "an independent re-check that perfbench/checks.py calls",
    "nerve": "an independent re-check that perfbench/checks.py calls",
    "fiber_bound": "an independent re-check that perfbench/checks.py calls",
    "point_cover": "perfbench/tracing.py wraps it by name",
    "average_point": "perfbench/tracing.py wraps it by name",
}


def test_every_public_definition_is_named_elsewhere():
    """A public function or class at module level that no other statement
    of the package reads, as a name or an attribute (`__init__.py` aside),
    is read only by tests: dead library code.  Docstrings and comments
    read nothing, so a name that is also an English word can fail."""
    statements = [(path.name, node) for path in MODULES if path.name != "__init__.py"
                  for node in _parse(path)[1].body]
    reads = [set(_references(node)) for _, node in statements]
    dead = [f"{module}: {node.name}" for i, (module, node) in enumerate(statements)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and module not in PUBLIC_EXEMPT and node.name not in PUBLIC_EXEMPT
            and not any(node.name in names for j, names in enumerate(reads) if j != i)]
    assert dead == []


def test_every_public_member_is_named_somewhere():
    """A public method or property of a class at module level whose name no
    name or attribute of the package or of perfbench/ reads is read only by
    tests: dead library code.  Names are matched without their class, so a
    member that shares its name with one that is read passes."""
    named = set()
    for path in MODULES + PERFBENCH:
        named.update(_references(_parse(path)[1]))
    dead = [f"{path.name}: {cls.name}.{node.name}"
            for path in MODULES for cls in _parse(path)[1].body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_") and node.name not in named]
    assert dead == []


# The private names a module imports from another module of the package,
# by (importing file, imported module): each is a reach into the other
# module's internals, so a new one is an edit to this table.
PRIVATE_IMPORTS = {
    ("cli.py", "space"): {"_cells", "_field", "_integer", "_numbers"},
    ("decomposition.py", "content"): {"_RatioBound", "_relative_cover"},
}


def test_private_imports_between_modules_are_pinned():
    found = {}
    for path in MODULES:
        for node in ast.walk(_parse(path)[1]):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.level == 1:
                module = node.module
            elif node.level == 0 and node.module.startswith("hcfill."):
                module = node.module.removeprefix("hcfill.")
            else:
                continue
            private = {alias.name for alias in node.names
                       if alias.name.startswith("_") and not alias.name.startswith("__")}
            if private:
                found.setdefault((path.name, module), set()).update(private)
    assert found == PRIVATE_IMPORTS
