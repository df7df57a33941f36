"""List the statements of ``src/hqec/*.py`` that the tier-1 suite does not run.

    python tests/coverage.py

Runs the tier-1 suite in this process under a line tracer
(``sys.settrace`` and ``threading.settrace``, no package needed), then
prints each ``ast`` statement of ``src/hqec/*.py``, docstrings excluded,
that did not run and is not on :data:`EXCLUDED`.  A compound statement
counts as run when its header line or any statement in its body ran.
Statements that share a line run or stay unrun together, since a line
tracer cannot tell them apart.  Lines run only in a child process (the
CLI and demo subprocesses, pool workers) count as unrun.

Only lines are recorded.  Tracing slows the suite about twofold, so a
test with a time bound may fail here; test outcomes under tracing are not
checked, and the untraced tier-1 run stays the gate for them.  The exit
status is 1 if any statement outside the list did not run, or if a list
entry names no unrun statement.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "hqec"

# (module, first source line of the statement, or None for the whole module,
# why tier-1 cannot run it in its own process)
EXCLUDED = [
    ("__main__.py", None, "runs only as `python -m hqec`, which tests start as a subprocess"),
    ("cli.py", "sys.exit(main())", "runs only when cli.py is executed as a script"),
    ("cli.py", "from .noise import AngleDistribution", "for type checkers only: TYPE_CHECKING"),
    ("experiments.py", "return os.cpu_count() or 1",
     "only where os has no sched_getaffinity, which Linux always has"),
]


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node is parent.body[0] and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def _children(node: ast.AST) -> list[ast.stmt]:
    """The statements directly inside ``node``'s bodies, handlers and cases."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            found.append(child)
        elif isinstance(child, (ast.excepthandler, getattr(ast, "match_case", ()))):
            found.extend(_children(child))
    return found


def statements(path: Path):
    """``(node, children, header lines)`` for each statement of ``path`` but its docstrings.

    The header of a simple statement is all its lines; that of a compound
    one runs from its first decorator to the line before its first body
    statement.
    """
    def walk(parent: ast.AST):
        for node in _children(parent):
            if _is_docstring(node, parent):
                continue
            inner = _children(node)
            start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
            end = inner[0].lineno - 1 if inner else node.end_lineno
            yield node, inner, range(start, max(start, end) + 1)
            yield from walk(node)

    yield from walk(ast.parse(path.read_text(), str(path)))


class Tracer:
    """Records each line run in a ``src/hqec`` module, and nothing else."""

    def __init__(self) -> None:
        self.lines: set[tuple[str, int]] = set()
        self._ours: dict[str, bool] = {}

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        ours = self._ours.get(name)
        if ours is None:
            ours = self._ours[name] = Path(name).resolve().parent == SRC
        return self._local if ours else None

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def install(self) -> None:
        sys.settrace(self._global)
        threading.settrace(self._global)

    # hypothesis sets and clears a tracer of its own, so it is set again per test
    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item) -> None:
        self.install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item) -> None:
        self.install()


def unrun(tracer: Tracer) -> dict[Path, list[tuple[int, str]]]:
    """``(line, first source line)`` of each statement not run, per module."""
    ran_lines = {}
    for name, line in tracer.lines:
        ran_lines.setdefault(Path(name).resolve(), set()).add(line)
    missed = {}
    for path in sorted(SRC.glob("*.py")):
        hits = ran_lines.get(path, set())
        source = path.read_text().splitlines()
        info = {node: (inner, header) for node, inner, header in statements(path)}

        def ran(node) -> bool:
            inner, header = info[node]
            return not hits.isdisjoint(header) or any(map(ran, inner))

        missed[path] = [(node.lineno, source[node.lineno - 1].strip())
                        for node in info if not ran(node)]
    return missed


def main() -> int:
    tracer = Tracer()
    tracer.install()
    os.chdir(REPO)
    outcome = pytest.main(["-q", "--tb=no", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"], plugins=[tracer])
    sys.settrace(None)
    threading.settrace(None)
    print(f"tier-1 under tracing: {outcome!r}; outcomes here are not checked")

    missed = unrun(tracer)
    total = sum(1 for path in SRC.glob("*.py") for _ in statements(path))
    used, problems = set(), 0
    for path, entries in missed.items():
        for line, text in entries:
            entry = next((e for e in EXCLUDED if e[0] == path.name and e[1] in (None, text)), None)
            if entry is None:
                problems += 1
                print(f"unrun  src/hqec/{path.name}:{line}: {text}")
            used.add(entry)
    for entry in EXCLUDED:
        if entry not in used:
            problems += 1
            print(f"stale  exclusion {entry[0]}: {entry[1]!r} names no unrun statement")
    count = sum(map(len, missed.values()))
    print(f"{total - count} of {total} statements ran; the {len(EXCLUDED)} exclusions:")
    for module, text, reason in EXCLUDED:
        print(f"  {module}: {text or 'the whole module'}: {reason}")
    print(f"{problems} problem(s)" if problems else "every statement runs or is excluded")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
