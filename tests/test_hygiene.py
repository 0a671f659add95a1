"""Source hygiene of the package, checked with the standard library
alone: every imported name is used, no top-level name is defined in two
modules, every private name is read somewhere in the package, every
import is at module level, and every function the benchmark's tracer
wraps exists."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orediamond"


def _imports(tree):
    """(bound name, line) of every import statement in a module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            out += [(a.asname or a.name, node.lineno) for a in node.names if a.name != "*"]
    return out


def _used(tree):
    """Names a module reads, and the strings listed in its __all__."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return names


def _reexported(trees):
    """{module: names other modules of the package import from it}."""
    out = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                out.setdefault(node.module, set()).update(a.name for a in node.names)
    return out


def unused_imports(package=PACKAGE):
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(package.glob("*.py"))}
    reexported = _reexported(trees)
    found = []
    for module, tree in trees.items():
        used = _used(tree) | reexported.get(module, set())
        found += [f"{module}.py:{line}: {name}" for name, line in _imports(tree) if name not in used]
    return found


def test_no_unused_imports():
    assert unused_imports() == []


def test_scan_sees_an_unused_import(tmp_path):
    (tmp_path / "a.py").write_text("from .b import f, g\nimport os.path\n\nprint(f)\n")
    (tmp_path / "b.py").write_text("from .c import h, k\n\ndef f():\n    return h\n\ng = 1\n")
    (tmp_path / "c.py").write_text("h = k = 0\n__all__ = ['h']\n")
    # b.k is imported by nobody and read nowhere; c's names are all used
    assert unused_imports(tmp_path) == ["a.py:1: g", "a.py:2: os", "b.py:1: k"]


def _defined(body):
    """(name, line) of each name the statements of a module or class body
    define (not import)."""
    out = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(n.id, node.lineno) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return out


def duplicate_definitions(package=PACKAGE):
    """'name: module, module, ...' for each name defined in two modules."""
    owners = {}
    for path in sorted(package.glob("*.py")):
        for name in {name for name, _ in _defined(ast.parse(path.read_text(), str(path)).body)}:
            owners.setdefault(name, []).append(path.name)
    return [f"{name}: {', '.join(mods)}" for name, mods in sorted(owners.items()) if len(mods) > 1]


def test_no_name_defined_twice():
    assert duplicate_definitions() == []


def test_scan_sees_a_name_defined_twice(tmp_path):
    (tmp_path / "a.py").write_text("from .b import g\n\nRING = 'r'\n\ndef f():\n    x = 1\n")
    (tmp_path / "b.py").write_text("RING: str = 'r'\n\nclass f:\n    x = 1\n\ndef g():\n    pass\n")
    # local names and imports are not definitions
    assert duplicate_definitions(tmp_path) == ["RING: a.py, b.py", "f: a.py, b.py"]


def _read(tree):
    """Names a module loads, as a name or an attribute, or imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {a.name for a in node.names}
    return out


def unused_private_names(package=PACKAGE):
    """'module.py:line: name' for each _-prefixed name, dunders aside,
    defined at module or class level and read nowhere in the package."""
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(package.glob("*.py"))}
    read = set().union(*map(_read, trees.values()))
    found = []
    for module, tree in trees.items():
        bodies = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
        found += [
            f"{module}:{line}: {name}"
            for body in bodies
            for name, line in _defined(body)
            if name.startswith("_") and not name.endswith("__") and name not in read
        ]
    return found


def test_no_unused_private_names():
    assert unused_private_names() == []


def test_scan_sees_an_unused_private_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "_USED = 1\n_UNUSED = 2\n\n"
        "def _helper():\n    return _USED\n\n"
        "def _orphan():\n    _local = 3\n\n"
        "def _shared():\n    return 0\n\n"
        "class K:\n    __slots__ = ()\n    _tag = 'k'\n\n"
        "    def _method(self):\n        return self._tag\n\n"
        "    def _dead(self):\n        pass\n\n"
        "    def __repr__(self):\n        return self._method() + _helper()\n"
    )
    (tmp_path / "b.py").write_text("from .a import _shared\n\nprint(_shared())\n")
    # locals, dunders and names read from another module are not reported
    assert unused_private_names(tmp_path) == ["a.py:2: _UNUSED", "a.py:7: _orphan", "a.py:20: _dead"]


def function_level_imports(package=PACKAGE):
    """'module.py:line: name' for each name imported inside a function."""
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {(path.name, line, name) for name, line in _imports(node)}
    return [f"{module}:{line}: {name}" for module, line, name in sorted(found)]


def test_no_function_level_imports():
    assert function_level_imports() == []


def test_scan_sees_a_function_level_import(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\n\n"
        "def f():\n    from .b import g\n\n"
        "    def inner():\n        import json as j\n\n    return g, j\n\n"
        "class K:\n    from .b import h\n\n"
        "    def m(self):\n        import sys\n"
    )
    (tmp_path / "b.py").write_text("g = h = 0\n")
    # module- and class-level imports are not reported, a nested
    # function's only once
    assert function_level_imports(tmp_path) == ["a.py:4: g", "a.py:7: j", "a.py:15: sys"]


def test_every_tracer_target_exists():
    """orebench/tracer.py wraps its TARGETS by name and lists a missing one
    in absent; a change that drops or renames a traced function fails
    here, not only in the benchmark's own self-tests."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "orebench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
        assert t.absent == []
    finally:
        t.uninstall()
