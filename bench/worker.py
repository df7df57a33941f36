"""One benchmark workload, run in its own process.

``run.py`` starts this file in three ways:

    worker.py setup WORKLOAD SEED           build what the first operation needs,
                                            print "ready", the monotonic clock and
                                            the machine speed measured after it
    worker.py run WORKLOAD SEED SECONDS TRACE
                                            check outputs, measure, print one JSON line
    worker.py record                        rewrite bench/reference/ from this tree

hqec is driven only through ``hqec.cli.main`` and ``hqec.register.apply_gate``.
It is imported from the ``src/`` directory next to ``bench/``; a tree without
it is refused.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import machine
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
WORK = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_out"

# Outputs recorded at this seed (and the sizes stored beside the hashes) are
# compared byte for byte; every other seed is checked statistically.
REFERENCE_SEED = 0
P_GRID = "0.001:0.03:log:8"
P_POINTS = 8
# False-alarm rate per sweep point of the binomial-tail check.
BINOMIAL_ALPHA = 1e-6
AMPLITUDE_TOL = 1e-12
# A throughput sample spans whole repetitions adding up to at least this long.
MIN_SAMPLE_S = 0.5
MAX_TRACE_SPANS_WRITTEN = 20_000

cli = codes = register = None


def import_hqec() -> None:
    """Import hqec from ``src/`` beside ``bench/``; exit 2 if it is not there."""
    global cli, codes, register
    if not (SRC / "hqec" / "__init__.py").is_file():
        sys.exit(f"bench: no hqec package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hqec
    from hqec import cli as _cli, codes as _codes, register as _register

    if not Path(hqec.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported hqec from {hqec.__file__}, not from {SRC}")
    cli, codes, register = _cli, _codes, _register


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run ``hqec.cli.main`` in process; return exit code, stdout and wall seconds."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), time.perf_counter() - start


def load_reference() -> dict:
    with open(REFERENCE / "outputs.json", encoding="utf-8") as fh:
        return json.load(fh)


class Checks:
    """Tally of output checks: ``attempted``, ``failed`` and the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


# -- exact logical error rate of perfect5 under depolarizing noise ------------

def _letter_product(a: str, b: str) -> str:
    if a == "I":
        return b
    if b == "I":
        return a
    if a == b:
        return "I"
    return next(c for c in "XYZ" if c not in (a, b))


def failing_words(code) -> list[tuple[str, ...]]:
    """Every Pauli word on ``code.n`` qubits that the lookup decoder fails on."""
    fails = []
    for letters in itertools.product("IXYZ", repeat=code.n):
        outcome = codes.decode(codes.syndrome_of(codes.PauliString(letters), code), code)
        if outcome.unknown:
            fails.append(letters)
            continue
        residual = codes.PauliString(
            tuple(map(_letter_product, letters, outcome.correction.letters))
        )
        if (codes.commute_sign(residual, code.logical_x) == -1
                or codes.commute_sign(residual, code.logical_z) == -1):
            fails.append(letters)
    return fails


def exact_p_logical(fails, p: float, weights) -> float:
    prob = {"I": 1.0 - p, "X": p * weights[0], "Y": p * weights[1], "Z": p * weights[2]}
    return sum(math.prod(prob[letter] for letter in word) for word in fails)


def binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """``(P[X <= k], P[X >= k])`` for ``X ~ Binomial(n, p)``."""
    if p <= 0.0:
        return 1.0, float(k == 0)
    if p >= 1.0:
        return float(k == n), 1.0
    log_p, log_q = math.log(p), math.log1p(-p)
    base = math.lgamma(n + 1)

    def pmf(i: int) -> float:
        return math.exp(base - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                        + i * log_p + (n - i) * log_q)

    return (math.fsum(pmf(i) for i in range(k + 1)),
            math.fsum(pmf(i) for i in range(k, n + 1)))


def parse_csv(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# -- workloads ----------------------------------------------------------------

class Workload:
    """Defaults shared by the workloads."""

    # A throughput sample is whole reps adding up to at least this much time.
    min_sample_s = MIN_SAMPLE_S
    # Measurement stops only after a whole number of groups of samples.
    group = 1
    # Whether the work runs in this process, so that the machine speed taken
    # here between samples is the speed the work ran at.
    in_process = True

    def summarize(self, rates: list[float]) -> float:
        return statistics.median(rates)

    def trace_pass(self, size: int):
        return self.rep(size)


class PauliSweep(Workload):
    """``hqec mc`` on perfect5, depolarizing noise only, serial."""

    name = "pauli_sweep"

    def __init__(self, seed: int, rep_size: int = 2_500, trace_size: int = 1_000):
        self.seed, self.rep_size, self.trace_size = seed, rep_size, trace_size
        self._seen: dict[int, str] = {}

    @staticmethod
    def argv(seed: int, trials: int) -> list[str]:
        return ["mc", "--code", "perfect5", "--p", P_GRID,
                "--trials", str(trials), "--seed", str(seed)]

    def setup(self) -> None:
        self.config = cli.parse_args(self.argv(self.seed, self.rep_size))
        self.code = codes.get_code("perfect5")

    def check_reference(self, ref: dict, checks: Checks) -> None:
        self.fails = failing_words(self.code)
        _, out, _ = run_cli(self.argv(REFERENCE_SEED, ref["trials"]))
        checks.expect("pauli_sweep.reference.csv", sha256(out) == ref["csv"],
                      "mc CSV bytes differ from the recorded ones")

    def rep(self, size: int):
        code, out, wall = run_cli(self.argv(self.seed, size))
        return P_POINTS * size, wall, (code, out)

    def check(self, size: int, output, checks: Checks) -> None:
        code, out = output
        if not checks.expect("pauli_sweep.exit", code == 0, f"exit code {code}"):
            return
        if size in self._seen:
            checks.expect("pauli_sweep.deterministic", out == self._seen[size],
                          "same seed gave different CSV bytes")
            return
        self._seen[size] = out
        weights = self.config.parameters["noise"].pauli_weights
        rows = parse_csv(out)
        checks.expect("pauli_sweep.points", len(rows) == P_POINTS, f"{len(rows)} rows")
        for p, row in zip(self.config.parameters["p_values"], rows):
            p_l = exact_p_logical(self.fails, p, weights)
            lower, upper = binomial_tails(int(row["failures"]), int(row["trials"]), p_l)
            checks.expect(
                "pauli_sweep.binomial", min(lower, upper) >= BINOMIAL_ALPHA / 2,
                f"p={p}: {row['failures']}/{row['trials']} failures, exact p_L={p_l:.3e}",
            )


class RotationPair(Workload):
    """``hqec figure1`` with its default noise, both pipelines, two workers."""

    name = "rotation_pair"
    # The trials run in pool workers; this process waits, and the speed it
    # measures after waiting swings far more than the workers' throughput.
    in_process = False

    def __init__(self, seed: int, rep_size: int = 5_000, trace_size: int = 500):
        self.seed, self.rep_size, self.trace_size = seed, rep_size, trace_size
        self._seen: dict[int, tuple] = {}
        self.prefix = WORK / f"figure1-{os.getpid()}"

    def argv(self, seed: int, trials: int) -> list[str]:
        return ["figure1", "--out", str(self.prefix), "--trials", str(trials),
                "--seed", str(seed)]

    def setup(self) -> None:
        WORK.mkdir(exist_ok=True)
        cli.parse_args(self.argv(self.seed, self.rep_size))

    def _read(self) -> tuple[str, str]:
        with open(f"{self.prefix}.csv", encoding="utf-8") as fh:
            csv_text = fh.read()
        with open(f"{self.prefix}_fit.json", encoding="utf-8") as fh:
            fit_text = fh.read()
        return csv_text, fit_text

    def check_reference(self, ref: dict, checks: Checks) -> None:
        code, _, _ = run_cli(self.argv(REFERENCE_SEED, ref["trials"]))
        csv_text, fit_text = self._read() if code == 0 else ("", "")
        checks.expect("rotation_pair.reference.csv", sha256(csv_text) == ref["csv"],
                      "figure1 CSV bytes differ from the recorded ones")
        checks.expect("rotation_pair.reference.fit_json", sha256(fit_text) == ref["fit_json"],
                      "figure1 fit JSON bytes differ from the recorded ones")

    def rep(self, size: int):
        code, _, wall = run_cli(self.argv(self.seed, size))
        files = self._read() if code == 0 else ("", "")
        return 2 * P_POINTS * size, wall, (code, *files)

    def check(self, size: int, output, checks: Checks) -> None:
        code, csv_text, fit_text = output
        if not checks.expect("rotation_pair.exit", code == 0, f"exit code {code}"):
            return
        if size in self._seen:
            checks.expect("rotation_pair.deterministic",
                          (csv_text, fit_text) == self._seen[size],
                          "same seed gave different figure1 bytes")
            return
        self._seen[size] = (csv_text, fit_text)
        failures: dict[str, dict[str, int]] = {"standard": {}, "quaternionic": {}}
        for row in parse_csv(csv_text):
            failures[row["pipeline"]][row["p"]] = int(row["failures"])
        checks.expect("rotation_pair.points",
                      len(failures["standard"]) == len(failures["quaternionic"]) == P_POINTS)
        for p, standard in failures["standard"].items():
            quaternionic = failures["quaternionic"].get(p, standard + 1)
            checks.expect("rotation_pair.dominance", quaternionic <= standard,
                          f"p={p}: quaternionic {quaternionic} > standard {standard}")


# Circuits run back to back per size, so that each size takes tens of ms.
CIRCUIT_REPEATS = {2: 200, 3: 100, 4: 50, 5: 20, 6: 8, 7: 2, 8: 1, 9: 1, 10: 1}


class CircuitScaling(Workload):
    """H (LEFT) on every qubit, a CNOT (RIGHT) chain, a T layer, for n = 2..10.

    Each rep times the circuits of one size, cycling through the sizes, and
    is its own sample. ``ops_per_s`` is the median over sweeps of the
    geometric mean over sizes of gates/s. Every size weighs the same, so the
    memory-bound n = 9 and 10, whose speed a shared machine varies most,
    do not swamp the others.
    """

    name = "circuit_scaling"
    min_sample_s = 0.0

    def __init__(self, seed: int, rep_size: int = 10, trace_size: int = 10):
        # The circuits are fixed; the seed does not change them.
        self.seed, self.rep_size, self.trace_size = seed, rep_size, trace_size
        self._next = 0

    def setup(self) -> None:
        self.gates = (register.hadamard_gate(), register.cnot_gate(), register.t_gate())
        self.starts = [register.QRegister.computational(n, 0)
                       for n in range(2, self.rep_size + 1)]
        self.group = len(self.starts)

    def check_reference(self, ref: dict, checks: Checks) -> None:
        with np.load(REFERENCE / "circuit_final_amplitudes.npz") as data:
            self.reference = {key: data[key] for key in data.files}

    def circuit(self, reg):
        h, cnot, t = self.gates
        n = reg.n
        for q in range(1, n + 1):
            reg = register.apply_gate(reg, h, [q])
        for q in range(1, n):
            reg = register.apply_gate(reg, cnot, [q, q + 1])
        for q in range(1, n + 1):
            reg = register.apply_gate(reg, t, [q])
        return reg

    def rep(self, size: int):
        start_reg = self.starts[self._next % self.group]
        self._next += 1
        repeats = CIRCUIT_REPEATS[start_reg.n]
        begin = time.perf_counter()
        for _ in range(repeats):
            final = self.circuit(start_reg)
        wall = time.perf_counter() - begin
        return repeats * (3 * start_reg.n - 1), wall, {start_reg.n: final.amps.components}

    def summarize(self, rates: list[float]) -> float:
        g = self.group
        return statistics.median(statistics.geometric_mean(rates[i:i + g])
                                 for i in range(0, len(rates) - g + 1, g))

    def trace_pass(self, size: int):
        """One circuit of every size up to ``size``."""
        wall, gates, finals = 0.0, 0, {}
        for start_reg in self.starts:
            if start_reg.n > size:
                break
            begin = time.perf_counter()
            final = self.circuit(start_reg)
            wall += time.perf_counter() - begin
            gates += 3 * start_reg.n - 1
            finals[start_reg.n] = final.amps.components
        return gates, wall, finals

    def check(self, size: int, output, checks: Checks) -> None:
        for n, amps in output.items():
            ref = self.reference[f"n{n}"]
            ok = amps.shape == ref.shape and bool(np.all(np.abs(amps - ref) <= AMPLITUDE_TOL))
            checks.expect(f"circuit_scaling.n{n}", ok,
                          "final amplitudes differ from the recorded ones")


AUDIT_COMMANDS = {
    "bell": ["bell"],
    "verify": ["verify"],
    "audit": ["audit"],
    "audit_json": ["audit", "--format", "json"],
    "syndrome_table_three": ["syndrome-table", "--code", "three"],
    "syndrome_table_paper5": ["syndrome-table", "--code", "paper5"],
    "syndrome_table_perfect5": ["syndrome-table", "--code", "perfect5"],
    "report": ["report"],
}

# The audits' frozen findings, as they appear in the text outputs.
FROZEN_FINDINGS = {
    "bell": "gate H: unitary=FAIL max_deviation=1 ",
    "report": "mismatch count: 9 of 15 rows",
    "verify": "codeword_check_paper5=FAIL",
}


class AuditReports(Workload):
    """In-process ``hqec.cli.main`` for every audit and table report."""

    name = "audit_reports"

    def __init__(self, seed: int, rep_size: int = 1, trace_size: int = 10):
        # The reports take no random input; the seed does not change them.
        self.seed, self.rep_size, self.trace_size = seed, rep_size, trace_size

    def setup(self) -> None:
        for argv in AUDIT_COMMANDS.values():
            cli.parse_args(argv)

    def check_reference(self, ref: dict, checks: Checks) -> None:
        self.reference = ref
        for key, needle in FROZEN_FINDINGS.items():
            _, out, _ = run_cli(AUDIT_COMMANDS[key])
            checks.expect(f"audit_reports.finding.{key}", needle in out,
                          f"{needle!r} missing from {key} output")

    def rep(self, size: int):
        wall, outputs = 0.0, []
        for _ in range(size):
            for key, argv in AUDIT_COMMANDS.items():
                code, out, seconds = run_cli(argv)
                wall += seconds
                outputs.append((key, code, out))
        return len(outputs), wall, outputs

    def check(self, size: int, output, checks: Checks) -> None:
        for key, code, out in output:
            checks.expect(f"audit_reports.{key}", code == 0 and sha256(out) == self.reference[key],
                          f"exit code {code} or output bytes differ from the recorded ones")


WORKLOADS = {w.name: w for w in (PauliSweep, RotationPair, CircuitScaling, AuditReports)}


# -- measurement ----------------------------------------------------------------

def measure(workload, seconds: float, checks: Checks) -> dict:
    """Repeat ``workload.rep`` for about ``seconds`` in samples; summarize the
    sample throughputs, each scaled to the reference machine speed measured
    on both sides of the sample when the work runs in this process."""
    deadline = time.perf_counter() + seconds
    raw, scaled, speeds, total_ops, reps = [], [], [machine.speed()], 0, 0
    sample_elapsed = 0.0
    while (not raw or len(raw) % workload.group
           or time.perf_counter() + sample_elapsed < deadline):
        begin = time.perf_counter()
        ops, wall = 0, 0.0
        while not ops or wall < workload.min_sample_s:
            rep_ops, rep_wall, output = workload.rep(workload.rep_size)
            workload.check(workload.rep_size, output, checks)
            ops, wall, reps = ops + rep_ops, wall + rep_wall, reps + 1
        speeds.append(machine.speed())
        sample_elapsed = time.perf_counter() - begin
        raw.append(ops / wall)
        scale = machine.REFERENCE_SPEED * 2 / (speeds[-2] + speeds[-1])
        scaled.append(ops / wall * (scale if workload.in_process else 1.0))
        total_ops += ops
    return {"ops_per_s": workload.summarize(scaled), "raw_ops_per_s": workload.summarize(raw),
            "samples": len(raw), "speed": statistics.median(speeds), "reps": reps,
            "ops": total_ops}


class LayerProbes:
    """The spans and counters of the traced run, installed on one ``Tracer``."""

    # span name -> targets, each as the calling module sees it
    SPANS = {
        "cli.main": ("hqec.cli.main",),
        "experiments.run_sweep": ("hqec.cli.run_sweep", "hqec.experiments.run_sweep"),
        "experiments.score_event": ("hqec.experiments.score_event",),
        "experiments.fit_threshold": ("hqec.experiments.fit_threshold",),
        "experiments.format": ("hqec.cli.sweep_csv", "hqec.cli.figure1_csv",
                               "hqec.cli.figure1_fits_json"),
        "noise.sample": ("hqec.noise.ErrorSampler.sample",),
        "noise.rotate": ("hqec.experiments._rotate_components",),
        "noise.detect_rotations": ("hqec.experiments.detect_rotations",),
        "noise.correct_rotation": ("hqec.experiments.correct_rotation",),
        "noise.jk_excess": ("hqec.experiments.jk_excess",),
        "codes.get_code": ("hqec.cli.get_code", "hqec.experiments.get_code"),
        "codes.syndrome_of": ("hqec.experiments.syndrome_of",),
        "codes.decode": ("hqec.experiments.decode",),
        "codes.build_syndrome_table": ("hqec.cli.build_syndrome_table",),
        "codes.verify_codewords": ("hqec.cli.verify_codewords",),
        "codes.audit_against_paper": ("hqec.cli.audit_against_paper",),
        "register.from_components": ("hqec.register.QRegister.from_components",),
        "register.apply_gate": ("hqec.register.apply_gate",),
        "register.embed": ("hqec.register._embed",),
        "linalg.matvec": ("hqec.register.matvec",),
        "linalg.is_unitary": ("hqec.cli.is_unitary",),
    }
    # Spans recorded only inside another span: register construction counts
    # on the trial-scoring path, not while codes are being built.
    WITHIN = {"register.from_components": "experiments.score_event"}
    COUNTED = {"quaternion.mul": ("hqec.quaternion.Quaternion.__mul__",)}
    SIZES = range(2, 11)

    def __init__(self, tracer):
        self.tracer = tracer
        self.counters = tracer.counters
        self.gate_ns = {n: 0 for n in self.SIZES}
        self.gate_calls = {n: 0 for n in self.SIZES}
        self.matvec_bytes = 0
        observers = {
            "noise.sample": self._on_sample,
            "codes.decode": self._on_decode,
            "experiments.score_event": self._on_score,
            "register.apply_gate": self._on_apply_gate,
            "linalg.matvec": self._on_matvec,
        }
        for span, targets in self.SPANS.items():
            tracer.wrap(span, targets, observers.get(span), within=self.WITHIN.get(span))
        for name, targets in self.COUNTED.items():
            tracer.wrap(name, targets, count_only=True)

    def _on_sample(self, event, args, kwargs, span):
        if event.rotations:
            self.counters["noise.sample.rotation_events"] += 1

    def _on_decode(self, outcome, args, kwargs, span):
        self.counters["codes.decode.unknown"] += bool(outcome.unknown)
        self.counters["codes.decode.ambiguous"] += bool(outcome.ambiguous)

    def _on_score(self, failed, args, kwargs, span):
        event = args[1] if len(args) > 1 else kwargs["event"]
        detect = args[2] if len(args) > 2 else kwargs.get("quaternionic_detection", False)
        if detect:
            self.counters["noise.detect.rotations_sampled"] += len(event.rotations)

    def _on_apply_gate(self, reg, args, kwargs, span):
        if reg.n in self.gate_ns:
            self.gate_ns[reg.n] += span[2] - span[1]
            self.gate_calls[reg.n] += 1

    def _on_matvec(self, out, args, kwargs, span):
        # Computed from operand shapes, not measured: the matrix, the vector,
        # the (rows, cols, 4) product temporary and the result.
        matrix, vector = args[0], args[1]
        size = (2 * matrix.components.nbytes + vector.components.nbytes
                + out.components.nbytes)
        self.matvec_bytes = max(self.matvec_bytes, size)

    def totals(self) -> dict:
        summary = self.tracer.summary()
        spans = {name: summary.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
                 for name in self.SPANS}
        rotations = self.counters["noise.detect.rotations_sampled"]
        corrected = spans["noise.correct_rotation"]["calls"]
        return {
            "spans": spans,
            "counts": {
                "quaternion.mul.calls": self.counters["quaternion.mul"],
                "codes.decode.unknown": self.counters["codes.decode.unknown"],
                "codes.decode.ambiguous": self.counters["codes.decode.ambiguous"],
                "noise.sample.rotation_events": self.counters["noise.sample.rotation_events"],
                "noise.detect.rotations_sampled": rotations,
            },
            "noise.detect.yield": corrected / rotations if rotations else 0.0,
            "linalg.matvec.bytes_computed": self.matvec_bytes,
            "apply_gate_ms": {n: self.gate_ns[n] / self.gate_calls[n] / 1e6
                              for n in self.SIZES if self.gate_calls[n]},
        }


def layer_metrics(passes: list[dict], untraced_walls: list[float],
                  traced_walls: list[float]) -> dict:
    """Per-layer metrics: counts from the first traced pass, times as medians."""
    first = passes[0]
    metrics = {}
    for name, span in first["spans"].items():
        metrics[f"{name}.calls"] = (span["calls"], "count")
        self_s = statistics.median(p["spans"][name]["self_ns"] for p in passes) / 1e9
        metrics[f"{name}.self_s"] = (self_s, "s")
    for name, value in first["counts"].items():
        metrics[name] = (value, "count")
    metrics["noise.detect.yield"] = (first["noise.detect.yield"], "ratio")
    metrics["linalg.matvec.bytes_computed"] = (first["linalg.matvec.bytes_computed"], "bytes")
    for n in LayerProbes.SIZES:
        per_pass = [p["apply_gate_ms"][n] for p in passes if n in p["apply_gate_ms"]]
        metrics[f"register.apply_gate.ms_per_call.n{n}"] = (
            statistics.median(per_pass) if per_pass else 0.0, "ms")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls), "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def measure_traced(workload, seconds: float, checks: Checks, trace_file: Path) -> dict:
    """Alternate untraced and traced passes of ``trace_size`` for about ``seconds``."""
    deadline = time.perf_counter() + seconds
    passes, untraced_walls, traced_walls, first_spans = [], [], [], None
    size = workload.trace_size
    workload.check(size, workload.trace_pass(size)[2], checks)  # warm-up, not timed
    while True:
        begin = time.perf_counter()
        _, wall, plain = workload.trace_pass(size)
        untraced_walls.append(wall)
        tracer = Tracer()
        try:
            probes = LayerProbes(tracer)
            _, wall, traced = workload.trace_pass(size)
        finally:
            tracer.restore()
        traced_walls.append(wall)
        passes.append(probes.totals())
        if first_spans is None:
            first_spans = tracer.spans
        workload.check(size, plain, checks)
        workload.check(size, traced, checks)
        if time.perf_counter() + (time.perf_counter() - begin) > deadline:
            break
    metrics = layer_metrics(passes, untraced_walls, traced_walls)
    write_trace(trace_file, workload, metrics, tracer.absent, passes, first_spans)
    return {"layers": metrics, "absent": tracer.absent, "passes": len(passes)}


def write_trace(path: Path, workload, metrics, absent, passes, spans) -> None:
    names = sorted({span[0] for span in spans})
    index = {name: i for i, name in enumerate(names)}
    origin = spans[0][1] if spans else 0
    payload = {
        "workload": workload.name,
        "seed": workload.seed,
        "pass_size": workload.trace_size,
        "passes": len(passes),
        "metrics": metrics,
        "absent": absent,
        "span_names": names,
        "spans_total": len(spans),
        # First traced pass: [name index, start ns, duration ns, parent index].
        "spans": [[index[name], start - origin, end - start, parent]
                  for name, start, end, parent in spans[:MAX_TRACE_SPANS_WRITTEN]],
    }
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def peak_rss_kb() -> int:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name](seed)
    workload.setup()
    checks = Checks()
    workload.check_reference(load_reference()[name], checks)
    result = {"numpy": np.__version__}
    if trace:
        trace_file = TRACE_DIR / f"trace-{name}-seed{seed}.json"
        result.update(measure_traced(workload, seconds, checks, trace_file))
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        result.update(measure(workload, seconds, checks))
    result.update(attempted=checks.attempted, failed=checks.failed,
                  failures=checks.failures, peak_rss_kb=peak_rss_kb())
    return result


def record() -> None:
    """Write the reference hashes and amplitudes from the current tree."""
    ref = {"seed": REFERENCE_SEED}
    _, out, _ = run_cli(PauliSweep.argv(REFERENCE_SEED, 2000))
    ref["pauli_sweep"] = {"trials": 2000, "csv": sha256(out)}
    rotation = RotationPair(REFERENCE_SEED)
    rotation.setup()
    run_cli(rotation.argv(REFERENCE_SEED, 1000))
    csv_text, fit_text = rotation._read()
    ref["rotation_pair"] = {"trials": 1000, "csv": sha256(csv_text), "fit_json": sha256(fit_text)}
    ref["circuit_scaling"] = {}
    ref["audit_reports"] = {key: sha256(run_cli(argv)[1]) for key, argv in AUDIT_COMMANDS.items()}
    with open(REFERENCE / "outputs.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    circuits = CircuitScaling(REFERENCE_SEED)
    circuits.setup()
    finals = {f"n{s.n}": circuits.circuit(s).amps.components for s in circuits.starts}
    np.savez_compressed(REFERENCE / "circuit_final_amplitudes.npz", **finals)


def main(argv: list[str]) -> int:
    import_hqec()
    mode = argv[0]
    try:
        if mode == "record":
            record()
        elif mode == "setup":
            WORKLOADS[argv[1]](int(argv[2])).setup()
            ready = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            print("ready", ready, machine.speed())
        else:
            name, seed, seconds, trace = argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
            print(json.dumps(run(name, seed, seconds, trace)))
    finally:
        for leftover in WORK.glob(f"figure1-{os.getpid()}*"):
            leftover.unlink()
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
