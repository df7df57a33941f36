"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Monte Carlo criteria use frozen seeds; the counter-based sampling
makes every number here reproducible bit for bit across platforms and
parallelism settings.
"""

import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from hqec import quaternion as quat
from hqec.quaternion import Quaternion
from hqec.linalg import MulSide, QVector, adjoint, is_unitary, matvec, real_norm_sq
from hqec.register import (
    QRegister,
    apply_gate,
    bell_prepare,
    cnot_gate,
    hadamard_gate,
    substitute_units,
)
from hqec.codes import (
    PauliString,
    audit_against_paper,
    build_syndrome_table,
    get_code,
    stabilizer_expectation_sign,
    syndrome_of,
    verify_codewords,
)
from hqec.noise import (
    AngleDistribution,
    NoiseModel,
    apply_event,
    correct_rotation,
    sample_error,
)
from hqec.experiments import (
    WORKER_TRIALS,
    SweepConfig,
    SweepPoint,
    SweepResult,
    closed_form_three_qubit,
    figure1_data,
    fit_threshold,
    run_sweep,
    scaling_model,
)

from oracles import amplitude, matmul, state_based_syndrome

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _report(number, name):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_algebra_suite():
    rng = np.random.default_rng(20260810)
    started = time.perf_counter()
    for _ in range(10_000):
        a, b, c = (Quaternion(*rng.uniform(-10, 10, size=4)) for _ in range(3))
        assert ((a * b) * c).isclose(a * (b * c), tol=1e-9)
        lhs = (a * b).norm_sq()
        rhs = a.norm_sq() * b.norm_sq()
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
        assert (a * b).conj().isclose(b.conj() * a.conj(), tol=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"algebra suite took {elapsed:.2f}s"
    _report(1, "algebra suite, 1e4 randomized triples")


def test_criterion_2_worked_examples():
    rng = np.random.default_rng(2)
    # Hadamard-like gate under LEFT multiplication
    for _ in range(25):
        w, x, y, z = rng.uniform(-1, 1, size=4)
        psi = QVector([Quaternion(w), Quaternion(0, x, y, z)])
        out = matvec(hadamard_gate().matrix, psi, MulSide.LEFT)
        alpha = Quaternion((w - x) * INV_SQRT2, 0, -z * INV_SQRT2, y * INV_SQRT2)
        beta = Quaternion(0, (w - x) * INV_SQRT2, -y * INV_SQRT2, -z * INV_SQRT2)
        assert out[0].isclose(alpha, tol=1e-12)
        assert out[1].isclose(beta, tol=1e-12)
    # CNOT under RIGHT multiplication: beta = y*i - x*j - z
    w, x, y, z = rng.uniform(-1, 1, size=4)
    psi = QVector([Quaternion(w), quat.ZERO, Quaternion(0, x, y, z), quat.ZERO])
    out = matvec(cnot_gate().matrix, psi, MulSide.RIGHT)
    assert out[0].isclose(Quaternion(w), tol=1e-12)
    assert out[3].isclose(Quaternion(-z, y, -x, 0), tol=1e-12)
    # second worked example: (a+bi)|00> + (di+ck)|11>
    a, b, c, d = rng.uniform(-1, 1, size=4)
    arr = np.zeros((4, 4))
    arr[0] = (a, b, 0, 0)
    arr[2] = (c, 0, d, 0)
    out_reg = apply_gate(QRegister.from_components(2, arr), cnot_gate(), [1, 2])
    assert amplitude(out_reg, "00").isclose(Quaternion(a, b, 0, 0), tol=1e-12)
    assert amplitude(out_reg, "11").isclose(Quaternion(0, d, 0, c), tol=1e-12)
    # benchmark state (1/sqrt2)(|00> - j|11>)
    bell = bell_prepare()
    assert amplitude(bell, "00").isclose(Quaternion(INV_SQRT2), tol=1e-12)
    assert amplitude(bell, "11").isclose(Quaternion(0, 0, -INV_SQRT2, 0), tol=1e-12)
    # substitution j = k = -i turns it into (1/sqrt2)(|00> + |11>)
    sub = substitute_units(cnot_gate(), {"j": -quat.I, "k": -quat.I})
    reg = apply_gate(QRegister.computational(2, "00"), hadamard_gate(), [1])
    reg = apply_gate(reg, sub, [1, 2])
    assert amplitude(reg, "00").isclose(Quaternion(INV_SQRT2), tol=1e-12)
    assert amplitude(reg, "11").isclose(Quaternion(INV_SQRT2), tol=1e-12)
    _report(2, "worked gate examples exact to 1e-12")


def test_criterion_3_unitarity_audit():
    cnot_report = is_unitary(cnot_gate().matrix, tol=1e-12)
    assert cnot_report.passed and cnot_report.max_deviation <= 1e-12
    h = hadamard_gate().matrix
    h_report = is_unitary(h, tol=1e-12)
    assert not h_report.passed
    assert abs(h_report.max_deviation - 1.0) <= 1e-12
    assert h_report.worst_entry == (0, 1)
    product = matmul(h, adjoint(h))
    assert Quaternion(*product.components[0, 1]).isclose(-quat.I, tol=1e-12)
    # deterministic across repeated runs
    again = is_unitary(h, tol=1e-12)
    assert again == h_report
    _report(3, "unitarity audit: CNOT passes, Hadamard-like fails by 1")


def test_criterion_4_syndrome_oracle_equivalence():
    for code_id in ("three", "perfect5"):
        code = get_code(code_id)
        for qubit in range(1, code.n + 1):
            for letter in "XYZ":
                error = PauliString.single(code.n, qubit, letter)
                commutation = syndrome_of(error, code)
                assert state_based_syndrome(error, code, codeword=0) == commutation
                assert state_based_syndrome(error, code, codeword=1) == commutation
                for phase in quat.UNIT_PHASES:
                    phased = PauliString.single(code.n, qubit, letter, phase)
                    assert syndrome_of(phased, code) == commutation
                    assert state_based_syndrome(phased, code) == commutation
    _report(4, "commutation syndromes equal state-based syndromes, all phases")


def test_criterion_5_reference_table_regression():
    audit = audit_against_paper(build_syndrome_table(get_code("paper5")))
    assert audit.mismatch_count == 9  # frozen brute-force count
    by_label = {row.error_label: row for row in audit.rows}
    assert by_label["X1"].computed.bits == (1, -1, 1, 1)
    assert not by_label["X1"].match
    assert by_label["Z5"].computed.bits == (1, 1, 1, 1)
    assert not by_label["Z5"].match
    # reproduced on every run
    again = audit_against_paper(build_syndrome_table(get_code("paper5")))
    assert again.mismatch_count == audit.mismatch_count
    assert [r.match for r in again.rows] == [r.match for r in audit.rows]
    _report(5, "published-table audit: frozen mismatch count 9")


def test_criterion_6_codeword_audit():
    assert verify_codewords(get_code("three")).passed
    assert verify_codewords(get_code("perfect5")).passed
    paper5 = verify_codewords(get_code("paper5"))
    assert not paper5.passed
    assert "XXXXI" in paper5.failing_generators
    _report(6, "codeword audit: three and perfect5 pass, paper5 failure recorded")


def test_criterion_7_monte_carlo_vs_closed_form():
    started = time.perf_counter()
    config = SweepConfig(
        code_id="three",
        noise=NoiseModel(pauli_weights=(1.0, 0.0, 0.0)),
        p_values=(0.01, 0.05, 0.1, 0.2),
        trials=100_000,
        seed=31415,
    )
    result = run_sweep(config)
    for point in result.points:
        expected = closed_form_three_qubit(point.p)
        assert abs(point.p_L - expected) <= 3 * point.stderr, (
            f"p={point.p}: {point.p_L} vs {expected} (stderr {point.stderr})"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 7 took {elapsed:.1f}s"
    _report(7, f"Monte Carlo within 3 stderr of closed form ({elapsed:.1f}s)")


def test_criterion_8_exponent_recovery_and_quaternionic_substitutes():
    # (main) depolarizing exponent for the textbook code
    p_values = tuple(0.001 * (30 ** (k / 7)) for k in range(8))
    config = SweepConfig(
        code_id="perfect5",
        noise=NoiseModel(),
        p_values=p_values,
        trials=200_000,
        seed=2026,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = fit_threshold(run_sweep(config))
    assert abs(fit.exponent - 2.0) <= 0.15, f"slope {fit.exponent}"

    # (a) fit recovery on synthetic suppression-law data
    synth_p = tuple(0.001 * (10 ** (k / 9)) for k in range(10))
    synth = SweepResult(
        "perfect5",
        0,
        tuple(SweepPoint(p, 0, 0, scaling_model(p, 0.015, 3), 0.0) for p in synth_p),
    )
    synth_fit = fit_threshold(synth)
    assert abs(synth_fit.exponent - 2.0) <= 0.002  # 0.1 percent
    assert abs(synth_fit.p_th - 0.015) <= 0.05 * 0.015

    # (b) with rotation noise and oracle correction the detecting pipeline
    # dominates pointwise under shared seeds
    noise = NoiseModel(p_rot=0.05, rot_angle=AngleDistribution("fixed", math.pi / 8))
    base = dict(
        code_id="perfect5",
        noise=noise,
        p_values=(0.002, 0.005, 0.01, 0.02),
        trials=20_000,
        seed=99,
    )
    data = figure1_data(SweepConfig(**base))
    strict = 0
    for std_pt, q_pt in zip(data.sweeps["standard"].points, data.sweeps["quaternionic"].points):
        assert q_pt.p_L <= std_pt.p_L
        strict += q_pt.p_L < std_pt.p_L
    assert strict >= 1
    _report(
        8,
        f"exponent {fit.exponent:.3f} in 2.0+-0.15; synthetic fit and "
        "rotation-advantage substitutes hold",
    )


def test_criterion_9_cli_byte_determinism(tmp_path):
    if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs os.sched_setaffinity and 2 usable CPUs, "
                    "to run one sweep on one CPU and one through a pool of two")
    # The child interpreters import hqec from the tree this test imported.
    src_dir = os.path.dirname(os.path.dirname(quat.__file__))
    base_env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src_dir, os.environ.get("PYTHONPATH")))))
    # Runs ``python -m hqec`` on one CPU only, so the sweep gets one worker.
    one_cpu = ("import os, runpy; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
               "runpy.run_module('hqec', run_name='__main__', alter_sys=True)")

    def run_mc(launcher, out_name):
        out = tmp_path / out_name
        cmd = [
            sys.executable, "-X", "importtime", *launcher, "mc", "--code", "perfect5",
            "--p", "0.005:0.05:log:4", "--trials", str(2 * WORKER_TRIALS), "--seed", "12",
            "--rotations", "0.05", "--detect", "--out", str(out),
        ]
        proc = subprocess.run(cmd, check=True, env=base_env, capture_output=True, text=True)
        # A sweep loads the pool module only when it starts two or more workers.
        pooled = any(line.endswith(" concurrent.futures.process")
                     for line in proc.stderr.splitlines())
        return out.read_bytes(), pooled

    first, pooled = run_mc(["-c", one_cpu], "a.csv")
    assert not pooled  # one worker
    second, pooled = run_mc(["-m", "hqec"], "b.csv")
    assert pooled  # two workers, one per full WORKER_TRIALS
    assert first == second

    def run_fit(source, out_name):
        out = tmp_path / out_name
        src = tmp_path / source
        subprocess.run(
            [sys.executable, "-m", "hqec", "fit", "--in", str(src), "--out", str(out)],
            check=True, env=base_env, capture_output=True,
        )
        return out.read_bytes()

    assert run_fit("a.csv", "fa.json") == run_fit("b.csv", "fb.json")
    _report(9, "CLI output byte-identical on one CPU and through a pool of two")


def test_criterion_10_rotation_channel_invariants():
    rng = np.random.default_rng(10)
    model = NoiseModel(
        p_rot=0.7, rot_angle=AngleDistribution("uniform", math.pi / 4)
    )
    # norm preservation on random normalized registers
    for trial in range(20):
        arr = rng.uniform(-1, 1, size=(32, 4))
        arr /= math.sqrt(float(np.sum(arr * arr)))
        reg = QRegister.from_components(5, arr)
        event = sample_error(model, 0.0, 5, seed=55, trial=trial)
        out = apply_event(reg, event)
        assert abs(real_norm_sq(out.amps) - 1.0) <= 1e-10
    # rotations-only events give the all-+1 syndrome on every shipped code
    for code_id in ("three", "paper5", "perfect5"):
        code = get_code(code_id)
        for trial in range(10):
            event = sample_error(model, 0.0, code.n, seed=56, trial=trial)
            assert set(event.pauli.letters) == {"I"}
            assert syndrome_of(event.pauli, code).trivial
    # and measured on intact codewords the generators still read +1
    for code_id in ("three", "perfect5"):
        code = get_code(code_id)
        for trial in range(5):
            event = sample_error(model, 0.0, code.n, seed=57, trial=trial)
            damaged = apply_event(code.codeword_zero, event)
            for g in code.generators:
                assert stabilizer_expectation_sign(damaged, g) == 1
    # rotate-then-correct restores the state
    for trial in range(10):
        code = get_code("perfect5")
        event = sample_error(model, 0.0, 5, seed=58, trial=trial)
        damaged = apply_event(code.codeword_zero, event)
        restored = damaged
        for rot in event.rotations:
            restored = correct_rotation(
                restored, rot.qubit, rot.axis, rot.angle, event.rot_mode
            )
        assert np.max(
            np.abs(restored.amps.components - code.codeword_zero.amps.components)
        ) <= 1e-10
    _report(10, "rotation channel: norms, trivial syndromes, exact inversion")
