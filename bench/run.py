"""hqec benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload pauli_sweep --seed 1 --seconds 25 --trace 0

Each run starts fresh processes: several set-up probes (``setup_s`` is their
median time from process start to "ready"), then one worker that checks the
outputs and measures for ``--seconds``.  With ``--trace 0`` the last line of
stdout holds the end-to-end metrics; with ``--trace 1`` the per-layer metrics
of a serial traced run, whose spans are also written to ``.bench_out/``.
Workloads, metrics and predictions are described in ``bench/README.md`` and
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import machine

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("pauli_sweep", "rotation_pair", "circuit_scaling", "audit_reports")
# HQEC_THREADS for the untraced run; traced runs are always serial.
THREADS = {"rotation_pair": "2"}
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150.0


def child_env(workload: str, trace: bool) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HQEC_THREADS", None)
    threads = None if trace else THREADS.get(workload)
    if threads is not None:
        env["HQEC_THREADS"] = threads
    return env


def setup_seconds(workload: str, seed: int,
                  env: dict[str, str]) -> tuple[list[float], list[float]]:
    """Per probe, the time from spawning a process until it is ready to work,
    and the machine speed the probe measured right after.

    The probe prints its CLOCK_MONOTONIC reading when ready; that clock is
    shared by all processes, so the difference to the spawn time is exact.
    """
    times, speeds = [], []
    for _ in range(SETUP_PROBES):
        begin = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), "setup", workload, str(seed)],
                capture_output=True, env=env, cwd=ROOT, text=True, timeout=60,
            )
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"set-up probe for {workload} ran past 60 s") from None
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 3 or fields[0] != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed: {proc.stderr.strip()}")
        times.append((int(fields[1]) - begin) / 1e9)
        speeds.append(float(fields[2]))
    return times, speeds


def run_worker(workload: str, seed: int, seconds: int, trace: bool,
               env: dict[str, str]) -> dict:
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "run", workload, str(seed), str(seconds),
         "1" if trace else "0"],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker for {workload} ran past {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def git_commit() -> str | None:
    git = shutil.which("git")
    if git is None or not (ROOT / ".git").exists():
        return None
    proc = subprocess.run([git, "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over ``src/hqec/*.py``, which names the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hqec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hqec" / "__init__.py").is_file():
        print(f"bench: no hqec source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    trace = bool(args.trace)
    env = child_env(args.workload, trace)
    try:
        setup, speeds = setup_seconds(args.workload, args.seed, env)
        result = run_worker(args.workload, args.seed, args.seconds, trace, env)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    peak_kb = max(result["peak_rss_kb"],
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "hqec_threads": env.get("HQEC_THREADS"),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "setup_probes": len(setup),
    }
    print("facts " + json.dumps(facts))
    attempted, failed = result["attempted"], result["failed"]
    print(f"checks {attempted - failed}/{attempted} passed, failed_ratio {failed / attempted:g}")
    for failure in result["failures"]:
        print(f"check failed: {failure}")

    if trace:
        metrics = result["layers"]
        for span, reason in sorted(result["absent"].items()):
            print(f"absent {span}: {reason}")
        print(f"trace {result['passes']} traced passes written to {result['trace_file']}")
    else:
        setup_scaled = [t * s / machine.REFERENCE_SPEED for t, s in zip(setup, speeds)]
        metrics = {
            "ops_per_s": {"value": result["ops_per_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
        print(f"as measured: ops_per_s {result['raw_ops_per_s']:.6g} over {result['ops']} ops, "
              f"{result['reps']} reps, {result['samples']} samples at machine speed "
              f"{result['speed']:.4g}; setup_s {statistics.median(setup):.4g} at machine speed "
              f"{statistics.median(speeds):.4g}; reference speed {machine.REFERENCE_SPEED:.4g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
