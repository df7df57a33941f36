"""Self-tests of the benchmark: tracer arithmetic, tiny smoke runs, the result line.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import worker
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

worker.import_hqec()


@pytest.fixture
def fake_module(monkeypatch):
    """A module whose functions advance a fake clock by fixed amounts."""
    module = types.ModuleType("bench_fake_layer")
    module.now = 0

    def inner():
        module.now += 3

    def outer():
        module.now += 10
        module.inner()
        module.now += 5
        module.inner()

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_self_time_excludes_children(fake_module):
    tracer = Tracer(clock=lambda: fake_module.now)
    tracer.wrap("outer", ("bench_fake_layer.outer",))
    tracer.wrap("inner", ("bench_fake_layer.inner",))
    try:
        fake_module.outer()
    finally:
        tracer.restore()
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "total_ns": 21, "self_ns": 15}
    assert summary["inner"] == {"calls": 2, "total_ns": 6, "self_ns": 6}
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]


def test_within_limits_recording_to_an_enclosing_span(fake_module):
    tracer = Tracer(clock=lambda: fake_module.now)
    tracer.wrap("inner", ("bench_fake_layer.inner",), within="outer")
    tracer.wrap("outer", ("bench_fake_layer.outer",))
    try:
        fake_module.inner()
        fake_module.outer()
    finally:
        tracer.restore()
    assert tracer.summary()["inner"]["calls"] == 2


def test_restore_puts_back_functions_and_classmethods(fake_module):
    qregister = worker.register.QRegister
    raw = qregister.__dict__["from_components"]
    original_outer = fake_module.outer
    tracer = Tracer()
    tracer.wrap("outer", ("bench_fake_layer.outer",))
    tracer.wrap("from_components", ("hqec.register.QRegister.from_components",))
    assert fake_module.outer is not original_outer
    tracer.restore()
    assert fake_module.outer is original_outer
    assert qregister.__dict__["from_components"] is raw


def test_absent_name_is_reported_not_raised(fake_module):
    tracer = Tracer(clock=lambda: fake_module.now)
    tracer.wrap("gone", ("bench_fake_layer.removed_in_a_refactor",))
    tracer.wrap("half", ("bench_fake_layer.missing", "bench_fake_layer.inner"))
    tracer.restore()
    assert tracer.absent == {"gone": "bench_fake_layer.removed_in_a_refactor not found"}
    assert "gone" not in tracer.summary()


def test_removed_hqec_function_reads_as_absent_layer(monkeypatch):
    monkeypatch.delattr(worker.register, "_embed")
    tracer = Tracer()
    probes = worker.LayerProbes(tracer)
    tracer.restore()
    assert tracer.absent["register.embed"] == "hqec.register._embed not found"
    metrics = worker.layer_metrics([probes.totals()], [1.0], [1.0])
    assert metrics["register.embed.calls"]["value"] == 0


TINY = {
    "pauli_sweep": {"rep_size": 200, "trace_size": 100},
    "rotation_pair": {"rep_size": 100, "trace_size": 50},
    "circuit_scaling": {"rep_size": 4, "trace_size": 4},
    "audit_reports": {"rep_size": 1, "trace_size": 1},
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run(name, monkeypatch, tmp_path):
    monkeypatch.delenv("HQEC_THREADS", raising=False)
    monkeypatch.setattr(worker, "WORK", tmp_path)
    workload = worker.WORKLOADS[name](seed=5, **TINY[name])
    workload.setup()
    checks = worker.Checks()
    workload.check_reference(worker.load_reference()[name], checks)
    result = worker.measure(workload, 0.01, checks)
    assert result["ops_per_s"] > 0
    traced = worker.measure_traced(workload, 0.01, checks, tmp_path / "trace.json")
    assert checks.failures == [] and checks.attempted > 0
    assert traced["absent"] == {}
    assert json.loads((tmp_path / "trace.json").read_text())["workload"] == name


def result_line(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_names_every_declared_metric(trace):
    proc = result_line(["--workload", "audit_reports", "--seed", "2", "--seconds", "1",
                        "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = result_line(["--workload", "pauli_sweep", "--seed", "1", "--seconds", "1"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
