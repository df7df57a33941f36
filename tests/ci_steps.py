"""Run the ``run:`` steps of the CI workflow's ``tier1`` job on this machine.

    python tests/ci_steps.py

Each step runs with ``bash -eo pipefail``, as on GitHub's Ubuntu runners,
in its own temporary copy of the repository.  ``src/`` is on
``PYTHONPATH``, ``hqec`` and ``python`` on ``PATH`` run this interpreter
(``hqec`` as ``python -m hqec``), and ``GITHUB_STEP_SUMMARY`` names a
temporary file.  Install steps are skipped: the steps run against the
packages already installed.  Only this interpreter and this numpy are
checked, not the job's Python and numpy matrix.  One ``pass``, ``FAIL``
or ``skip`` line is printed per step; the exit status is 1 if any step
failed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import yaml

REPO = Path(__file__).resolve().parents[1]
WORKFLOW = REPO / ".github" / "workflows" / "tests.yml"
# What building, testing and running leave in a checkout; a fresh one has none.
LEFT_BEHIND = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info",
    ".bench_work", ".bench_out", ".bench_build")
STEP_TIMEOUT_S = 900


def launchers(bin_dir: Path) -> None:
    """``python`` and ``hqec`` commands in ``bin_dir`` that run this interpreter."""
    for name, args in (("python", ""), ("hqec", " -m hqec")):
        path = bin_dir / name
        path.write_text(f'#!/bin/sh\nexec "{sys.executable}"{args} "$@"\n')
        path.chmod(0o755)


def run_step(script: str, work: Path, env: dict[str, str]) -> tuple[int, str]:
    shutil.copytree(REPO, work, ignore=LEFT_BEHIND)
    env = dict(env, PYTHONPATH=os.pathsep.join(
        filter(None, (str(work / "src"), os.environ.get("PYTHONPATH")))))
    try:
        proc = subprocess.run(
            ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", script],
            cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {STEP_TIMEOUT_S} s"
    return proc.returncode, proc.stdout


def main() -> int:
    job = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]
    failed = 0
    with tempfile.TemporaryDirectory(prefix="ci_steps_") as tmp:
        tmp = Path(tmp)
        (tmp / "bin").mkdir()
        launchers(tmp / "bin")
        env = dict(os.environ, PATH=f"{tmp / 'bin'}{os.pathsep}{os.environ['PATH']}",
                   GITHUB_STEP_SUMMARY=str(tmp / "summary.md"))
        for index, step in enumerate(job["steps"]):
            name = step.get("name") or step.get("uses") or step.get("run", "").splitlines()[0]
            script = step.get("run")
            if script is None:
                print(f"skip  {name}: an action, which only a GitHub runner provides")
            elif "pip install" in script:
                print(f"skip  {name}: an install step; the installed packages are used")
            elif "${{" in script:
                failed += 1
                print(f"FAIL  {name}: holds a workflow expression this script cannot expand")
            else:
                begin = time.monotonic()
                code, output = run_step(script, tmp / f"step{index}", env)
                seconds = time.monotonic() - begin
                if code == 0:
                    print(f"pass  {name} ({seconds:.1f} s)")
                else:
                    failed += 1
                    print(f"FAIL  {name} (exit {code}, {seconds:.1f} s)")
                    print("".join(f"      {line}\n" for line in output.splitlines()[-20:]), end="")
    matrix = job["strategy"]["matrix"]
    numpys = [entry["numpy"] for entry in matrix.get("include", [])] + matrix["numpy"]
    print(f"Not checked here: the job's matrix of Python {', '.join(matrix['python-version'])}"
          f" and numpy {', '.join(numpys)}; every step ran on Python"
          f" {sys.version.split()[0]} with numpy {np.__version__}.")
    print(f"{failed} step(s) failed" if failed else "every run step passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
