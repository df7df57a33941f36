"""Source-layout rules that no single module's tests can see."""

import ast
from pathlib import Path

import hqec

SRC = Path(hqec.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]


def test_no_module_imports_another_modules_private_names():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # hqec/__init__.py imports in order to re-export, so it is left out.
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((REPO / "tests").glob("*.py")) + sorted((REPO / "demos").glob("*.py"))
    offenders = [entry for path in paths for entry in _unused_imports(path)]
    assert offenders == []


def _assigned(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _definitions(path: Path):
    """``(label, name, owner)`` for each module-level name and public method or field.

    ``owner`` is the class of a field and ``None`` otherwise.
    """
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, None
        for name in _assigned(node):
            yield name, name, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, None
                for name in _assigned(item):
                    if not name.startswith("_"):
                        yield f"{node.name}.{name}", name, node.name


def _references(path: Path):
    """Names ``path`` reads: loaded names and attributes, imports and keywords, and calls."""
    read, called = set(), set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.split(".")[-1])
        elif isinstance(node, ast.keyword) and node.arg:
            read.add(node.arg)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            called.add(node.func.id)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            called.add(node.func.attr)
    return read, called


def test_every_public_name_has_a_caller_outside_tests():
    # Only code in src/, demos/ and bench/ counts as a caller; a mention in
    # a README keeps no name alive. A field also counts as read when its
    # class is built outside tests, because positional constructor
    # arguments name no field. Names are matched bare, not by owner, so a
    # method is kept alive by any caller of the same name: ``np.zeros`` or
    # ``PauliString.identity`` would hide an unused ``QMatrix.zeros`` or
    # ``QMatrix.identity``.
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    callers = modules + sorted((REPO / "demos").glob("*.py"))
    callers += sorted((REPO / "bench").glob("*.py"))
    read, called = set(), set()
    for path in callers:
        names, calls = _references(path)
        read |= names
        called |= calls
    unused = [
        f"{path.stem}.{label}"
        for path in modules
        for label, name, owner in _definitions(path)
        if name not in read and owner not in called
    ]
    assert unused == []
