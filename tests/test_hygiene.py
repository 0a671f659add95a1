"""Source hygiene of the package, checked with the standard library
alone: every imported name is used."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orediamond"


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
