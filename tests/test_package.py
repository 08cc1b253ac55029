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


def _backward_assignments(source):
    """Lines that set an attribute ``_backward`` outside ``Tensor.__init__``
    and the release in ``Tensor.backward``; tuple targets count."""
    tree = ast.parse(source)
    allowed = {
        id(node)
        for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "Tensor"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name in ("__init__", "backward")
        for node in ast.walk(fn)
    }

    def targets(t):
        if isinstance(t, (ast.Tuple, ast.List)):
            for elt in t.elts:
                yield from targets(elt)
        elif isinstance(t, ast.Starred):
            yield from targets(t.value)
        else:
            yield t

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and id(node) not in allowed:
            tops = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and id(node) not in allowed:
            tops = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Attribute) and t.attr == "_backward"
               for top in tops for t in targets(top)):
            lines.append(node.lineno)
    return sorted(lines)


def test_backward_assignments_finder():
    source = (
        "class Tensor:\n"
        "    def __init__(self):\n"
        "        self._parents, self._backward = (), None\n"
        "    def backward(self):\n"
        "        self._backward, self._parents = None, ()\n"
        "    def exp(self):\n"
        "        out._backward = f\n"
        "def op(out):\n"
        "    out.grad, (out._backward, x) = None, (f, 1)\n"
        "    out._parents = ()\n"
    )
    assert _backward_assignments(source) == [7, 9]


def test_nodes_get_their_closure_only_when_built():
    # Tensor(value, parents, backward=bwd) is where the grad mode acts on a
    # node; a closure set afterwards would bypass it
    package = Path(plainscan.__file__).parent
    found = [
        f"{path.name}:{line}"
        for path in sorted(package.glob("*.py"))
        for line in _backward_assignments(path.read_text())
    ]
    assert not found, f"_backward assigned outside Tensor.__init__ and backward: {found}"


# the position of each allocator's dtype argument
_ALLOCATORS = {"empty": 1, "zeros": 1, "ones": 1, "full": 2}


def _allocations_without_dtype(source):
    """Lines calling ``np.empty``, ``np.zeros``, ``np.ones`` or ``np.full``
    without a dtype, which would allocate float64 whatever the inputs are."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                and node.func.attr in _ALLOCATORS
                and len(node.args) <= _ALLOCATORS[node.func.attr]
                and not any(k.arg == "dtype" for k in node.keywords)):
            lines.append(node.lineno)
    return sorted(lines)


def test_allocations_without_dtype_finder():
    source = (
        "a = np.empty((2, 3))\n"
        "b = np.zeros(4, x.dtype) + np.ones((1,), dtype=np.float32)\n"
        "c = np.full((2,), 1.0)\n"
        "d = np.full((2,), 1.0, x.dtype) + np.zeros_like(x)\n"
        "e = [np.empty(\n"
        "    (3, 4)) for _ in range(2)]\n"
    )
    assert _allocations_without_dtype(source) == [1, 3, 5]


def test_ops_allocate_in_their_inputs_dtype():
    # a Tensor keeps float32 or float64, so the engine's own buffers follow
    # an input's dtype (or use the _like forms) rather than numpy's float64
    package = Path(plainscan.__file__).parent
    found = [
        f"{name}:{line}"
        for name in ("tensor.py", "ops.py", "scan.py")
        for line in _allocations_without_dtype((package / name).read_text())
    ]
    assert not found, f"allocations without a dtype: {found}"


def _float_literal_lines(source, value):
    """Lines holding a float literal equal to ``value``; text in strings does
    not count."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and type(node.value) is float and node.value == value
    )


def test_float_literal_lines_finder():
    source = 'a = 1e-4\n"""below 1e-4"""\nb = x < -0.0001 or y < 1e-3\nc = "1e-4"\n'
    assert _float_literal_lines(source, 1e-4) == [1, 3]


def test_the_series_switch_is_written_once():
    # phi, phi' and the 2D scan's backward switch to phi's series below
    # tensor._SERIES_BELOW; any other 1e-4 would be a second copy of it
    package = Path(plainscan.__file__).parent
    found = {
        name: _float_literal_lines((package / name).read_text(), 1e-4)
        for name in ("tensor.py", "scan.py")
    }
    assert plainscan.tensor._SERIES_BELOW == 1e-4
    assert len(found["tensor.py"]) == 1 and not found["scan.py"], f"1e-4 literals: {found}"


def _reads(source, name):
    """(line, innermost enclosing function or None) of each read or import
    of ``name``, bare or as an attribute."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            read = (
                isinstance(child, ast.Name) and child.id == name and isinstance(child.ctx, ast.Load)
                or isinstance(child, ast.Attribute) and child.attr == name
                and isinstance(child.ctx, ast.Load)
                or isinstance(child, ast.ImportFrom) and any(a.name == name for a in child.names)
            )
            if read:
                found.append((child.lineno, func))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else func)

    visit(ast.parse(source), None)
    return found


def test_reads_finder():
    source = (
        "X = 1\n"
        "def f(n):\n"
        "    return n <= X\n"
        "def g():\n"
        "    h = lambda: m.X\n"
        "    m.X = 2\n"
        "from .m import X as Y\n"
    )
    assert _reads(source, "X") == [(3, "f"), (5, "g"), (7, None)]


def test_the_history_budget_is_read_in_one_place():
    # the 2D scan node asks scan.keeps_history whether a taped scan keeps
    # its state history, so a second reader cannot disagree about the budget
    package = Path(plainscan.__file__).parent
    found = [
        (path.name, func, line)
        for path in sorted(package.glob("*.py"))
        for line, func in _reads(path.read_text(), "_HISTORY_BYTES")
    ]
    assert [(name, func) for name, func, _ in found] == [("scan.py", "keeps_history")], found


def test_the_block_budget_is_read_in_one_place():
    # the 2D scan's blocks and conv2d's column blocks are sized by
    # tensor.block_steps, so no loop keeps a byte budget of its own
    package = Path(plainscan.__file__).parent
    found = [
        (path.name, func, line)
        for path in sorted(package.glob("*.py"))
        for line, func in _reads(path.read_text(), "_BLOCK_BYTES")
    ]
    assert [(name, func) for name, func, _ in found] == [("tensor.py", "block_steps")], found


def _imported_modules(source):
    """Every module a source imports or imports from, and each name it
    imports from one, as dotted names relative to the package."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            found.add(base)
            found.update(f"{base}.{alias.name}".lstrip(".") for alias in node.names)
    return found


def test_imported_modules_finder():
    source = "import numpy as np\nfrom .scan import a\nfrom . import model\n" \
             "from plainscan.tensor import T\n"
    assert _imported_modules(source) == {
        "numpy", "scan", "scan.a", "", "model", "plainscan.tensor", "plainscan.tensor.T",
    }


def test_analysis_imports_nothing_from_the_scan():
    # the memory figure is read off analysis.forward_stages, not off the
    # scan node's private budgets
    source = (Path(plainscan.__file__).parent / "analysis.py").read_text()
    found = sorted(name for name in _imported_modules(source) if "scan" in name.split("."))
    assert not found, f"analysis.py imports {found}"
