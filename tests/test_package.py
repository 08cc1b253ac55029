"""The package's public surface and its modules' imports."""

import ast
from pathlib import Path

import plainscan


def test_every_exported_name_resolves():
    missing = [name for name in plainscan.__all__ if not hasattr(plainscan, name)]
    assert not missing, f"__all__ names missing from the package: {missing}"


def _unused_imports(source):
    """Names a module imports and never reads; `__all__` entries count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_unused_imports_finder():
    source = "from __future__ import annotations\nimport os, sys\nfrom x import a, b as c\n" \
             "__all__ = ['a']\nprint(sys)\n"
    assert _unused_imports(source) == ["line 2: os", "line 3: c"]


def test_no_module_imports_a_name_it_never_uses():
    package = Path(plainscan.__file__).parent
    unused = {
        path.name: found
        for path in sorted(package.glob("*.py"))
        if (found := _unused_imports(path.read_text()))
    }
    assert not unused, f"imported and never used: {unused}"
