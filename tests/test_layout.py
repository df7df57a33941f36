"""Source-layout rules that no single module's tests can see."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    """``(label, name, owner, method)`` for each module-level name and public method or field.

    ``owner`` is the class of a field and ``None`` otherwise, and ``method``
    marks a method. The name of a class or static method is
    ``Class.method``, the only way code outside the class can call it.
    """
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, None, False
        for name in _assigned(node):
            yield name, name, None, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    label = f"{node.name}.{item.name}"
                    decorators = {getattr(d, "id", None) for d in item.decorator_list}
                    on_class = decorators & {"classmethod", "staticmethod"}
                    yield label, label if on_class else item.name, None, True
                for name in _assigned(item):
                    if not name.startswith("_"):
                        yield f"{node.name}.{name}", name, node.name, False


def _references(path: Path):
    """Names ``path`` reads, the attributes and keywords among them, and calls.

    Names are loaded names and attributes, imports and keywords. An
    attribute read off a name, such as ``Owner.attr`` or ``hqec.Owner.attr``,
    is also read as ``Owner.attr``.
    """
    names, attributes, called = set(), set(), set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
            owner = getattr(node.value, "id", getattr(node.value, "attr", None))
            if owner is not None:
                attributes.add(f"{owner}.{node.attr}")
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.keyword) and node.arg:
            attributes.add(node.arg)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            called.add(node.func.id)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            called.add(node.func.attr)
    return names | attributes, attributes, called


def test_every_public_name_has_a_caller_outside_tests():
    # Only code in src/, demos/ and bench/ counts as a caller; a mention in
    # a README keeps no name alive. A field also counts as read when its
    # class is built outside tests, because positional constructor
    # arguments name no field. A class or static method counts only when
    # ``Class.method`` is read, so ``np.zeros`` cannot keep a
    # ``QMatrix.zeros`` alive; another method counts only when read as an
    # attribute or passed as a keyword, so a local variable ``t`` cannot
    # keep a property ``t`` alive.
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    callers = modules + sorted((REPO / "demos").glob("*.py"))
    callers += sorted((REPO / "bench").glob("*.py"))
    read, attributes, called = set(), set(), set()
    for path in callers:
        names, attrs, calls = _references(path)
        read |= names
        attributes |= attrs
        called |= calls
    unused = [
        f"{path.stem}.{label}"
        for path in modules
        for label, name, owner, method in _definitions(path)
        if name not in (attributes if method else read) and owner not in called
    ]
    assert unused == []


# Modules that only a sweep (mc, fit, figure1) or a process pool needs.
_SWEEP_STACK = ("hqec.experiments", "hqec.noise", "concurrent.futures", "multiprocessing")


def _loaded_in_fresh_interpreter(code: str) -> set[str]:
    """The names in ``sys.modules`` after a new interpreter runs ``code``."""
    # The child imports hqec from the tree this test imported.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_the_audit_commands_load_no_sweep_stack():
    loaded = _loaded_in_fresh_interpreter(
        "import contextlib, io\n"
        "import hqec, hqec.cli, hqec.codes, hqec.register\n"
        "for argv in (['bell'], ['verify'], ['audit'], ['audit', '--format', 'json'],\n"
        "             ['report'], ['syndrome-table', '--code', 'paper5']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert hqec.cli.main(argv) == 0, argv"
    )
    assert {"hqec.cli", "hqec.codes", "hqec.register"} <= loaded
    assert loaded.isdisjoint(_SWEEP_STACK)


def test_the_sweep_engine_loads_no_pool_until_one_starts():
    loaded = _loaded_in_fresh_interpreter("import hqec.experiments")
    assert {"hqec.experiments", "hqec.noise"} <= loaded
    assert loaded.isdisjoint({"concurrent.futures", "multiprocessing"})


def test_every_export_is_its_submodules_object():
    for name in hqec.__all__:
        submodule = getattr(hqec, hqec._EXPORTS[name])
        assert getattr(hqec, name) is getattr(submodule, name), name
    assert set(hqec.__all__) <= set(dir(hqec))
    namespace = {}
    exec("from hqec import *", namespace)
    assert {name: namespace[name] for name in hqec.__all__} == {
        name: getattr(hqec, name) for name in hqec.__all__
    }
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(hqec, "no_such_name")
