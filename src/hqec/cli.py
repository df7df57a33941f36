"""Command-line interface.

Subcommands::

    bell            print the two-qubit benchmark state and gate audits
    verify          machine-readable audit summary line
    audit           full published-table diff and codeword verification
    syndrome-table  per-error syndrome table as CSV or text
    mc              Monte Carlo logical-error-rate sweep to CSV
    fit             log-log threshold fit of a sweep CSV
    figure1         paired standard/quaternionic sweep with annotations
    report          combined human-readable report

Exit codes: 0 ok, 1 internal error, 2 usage error, 3 config validation
error.  All randomness flows from ``--seed`` (default 0); repeated runs
with the same configuration produce byte-identical output regardless of
the ``HQEC_THREADS`` parallelism cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import quaternion as quat
from .quaternion import ImaginaryAxis, parse_float, parse_int
from .linalg import UnitarityReport, is_unitary, matrix_to_dict, phase_alignment_check
from .register import (
    Gate,
    bell_prepare,
    cnot_gate,
    hadamard_gate,
    identity_gate,
    pauli_gate,
    phased_pauli_gate,
    t_gate,
)
from .codes import (
    CODE_IDS,
    MAPPING_TABLE,
    MAPPING_TEXT,
    AuditReport,
    CodewordReport,
    StabilizerCode,
    Syndrome,
    SyndromeTable,
    audit_against_paper,
    build_syndrome_table,
    codeword_action_diff,
    get_code,
    verify_codewords,
)
if TYPE_CHECKING:  # the sweep stack loads only on the mc, fit and figure1 paths
    from .noise import AngleDistribution


class ConfigError(Exception):
    """Configuration or validation problem; maps to exit code 3."""


@dataclass
class RunConfig:
    command: str
    parameters: dict
    output_path: str | None


def _parse_p_range(spec: str) -> tuple[float, ...]:
    parts = spec.split(":")
    if len(parts) != 4:
        raise ConfigError(f"p range must be start:stop:scale:count, got {spec!r}")
    try:
        start, stop = parse_float(parts[0]), parse_float(parts[1])
        count = parse_int(parts[3])
    except ValueError:
        raise ConfigError(f"p range has non-numeric fields: {spec!r}") from None
    scale = parts[2]
    if scale not in ("log", "lin"):
        raise ConfigError(f"p range scale must be 'log' or 'lin', got {scale!r}")
    if count < 1:
        raise ConfigError(f"p range count must be >= 1, got {count}")
    if not (0.0 < start < 1.0 and 0.0 < stop < 1.0):
        raise ConfigError(f"p range endpoints must lie in (0, 1): {spec!r}")
    if count == 1:
        return (start,)
    if start >= stop:
        raise ConfigError(f"p range must be ascending, got {spec!r}")
    if scale == "log":
        ratio = (stop / start) ** (1.0 / (count - 1))
        values = [start * ratio**k for k in range(count)]
    else:
        step = (stop - start) / (count - 1)
        values = [start + step * k for k in range(count)]
    values[-1] = stop
    return tuple(values)


def _parse_axis(spec) -> ImaginaryAxis:
    named = {"i": quat.I_AXIS, "j": quat.J_AXIS, "k": quat.K_AXIS}
    if isinstance(spec, str) and spec in named:
        return named[spec]
    parts = spec.split(",") if isinstance(spec, str) else []
    if len(parts) != 3:
        raise ConfigError(f"rot_axis must be i|j|k or x,y,z, got {spec!r}")
    try:
        x, y, z = map(parse_float, parts)
        return ImaginaryAxis.normalized(x, y, z)
    except ValueError as exc:
        raise ConfigError(f"bad rot_axis {spec!r}: {exc}") from None


def _parse_angle(spec) -> AngleDistribution:
    from .noise import AngleDistribution

    parts = spec.split(":") if isinstance(spec, str) else []
    if len(parts) != 2 or parts[0] not in ("fixed", "uniform"):
        raise ConfigError(f"rot_angle must be fixed:THETA or uniform:THETA_MAX, got {spec!r}")
    try:
        return AngleDistribution(parts[0], parse_float(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"bad rot_angle {spec!r}: {exc}") from None


def _parse_weights(spec: str) -> tuple[float, float, float]:
    parts = spec.split(",")
    if len(parts) != 3:
        raise ConfigError(f"weights must be wx,wy,wz, got {spec!r}")
    try:
        wx, wy, wz = map(parse_float, parts)
    except ValueError:
        raise ConfigError(f"weights have non-numeric fields: {spec!r}") from None
    return (wx, wy, wz)


def _unrepeated(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members, refusing a key given twice (``json`` keeps the last)."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"repeated config key: {key}")
        data[key] = value
    return data


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unrepeated)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(data) - {key for key, *_ in _SWEEP_INPUTS} - {"out"}
    if unknown:
        raise ConfigError(f"unknown config key: {sorted(unknown)[0]}")
    return data


def _int(text: str) -> int:
    return parse_int(text)


_int.__name__ = "int"  # argparse's message reads "invalid int value: ..."


def _float(text: str) -> float:
    return parse_float(text)


_float.__name__ = "float"  # and "invalid float value: ..."

# The one place a sweep input is written: its key, which is its ``mc --config``
# key and, with "_" written "-", its flag after "--"; its mc default (None:
# required); its figure1 default, or None when only mc takes the flag (figure1
# then runs with the mc default); and its argparse options.
_SWEEP_INPUTS = (
    ("code", None, "perfect5", {"choices": CODE_IDS}),
    ("p", None, "0.001:0.03:log:8", {"help": "range start:stop:{log|lin}:count"}),
    ("trials", 1000, 20000, {"type": _int}),
    ("seed", 0, 0, {"type": _int}),
    ("rotations", 0.0, 0.05, {"type": _float, "help": "rotation rate per qubit"}),
    ("rot_axis", "k", "k", {"help": "i|j|k or x,y,z"}),
    ("rot_angle", f"fixed:{math.pi / 8}", f"fixed:{math.pi / 8}",
     {"help": "fixed:T or uniform:T"}),
    ("threshold", 0.01, 0.01, {"type": _float, "help": "detection threshold"}),
    ("weights", "0.3333333333333333,0.3333333333333333,0.3333333333333334", None,
     {"help": "Pauli mixture wx,wy,wz"}),
    ("rot_mode", "zero", None, {"choices": ("zero", "all")}),
    ("detect", False, None, {"action": argparse.BooleanOptionalAction,
                             "help": "quaternionic detection and correction (default off)"}),
)


@functools.cache  # parse_args reuses one parser; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqec",
        description="Quaternion-amplitude stabilizer-code laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bell = sub.add_parser("bell", help="print the benchmark state and gate audits")
    p_bell.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="machine-readable audit summary")
    p_verify.add_argument("--out", default=None)

    p_audit = sub.add_parser("audit", help="published-table diff and codeword checks")
    p_audit.add_argument("--format", default="text", choices=("text", "json"))
    p_audit.add_argument("--out", default=None)

    p_table = sub.add_parser("syndrome-table", help="single-qubit error syndrome table")
    p_table.add_argument("--code", required=True, choices=CODE_IDS)
    p_table.add_argument("--format", default="csv", choices=("csv", "text"))
    p_table.add_argument("--out", default=None)

    p_mc = sub.add_parser("mc", help="Monte Carlo logical-error-rate sweep")

    p_fit = sub.add_parser("fit", help="log-log threshold fit of a sweep CSV")
    p_fit.add_argument("--in", dest="input", required=True)
    p_fit.add_argument("--out", default=None)

    p_fig = sub.add_parser("figure1", help="paired standard/quaternionic sweep")
    p_fig.add_argument("--out", required=True, help="output path prefix")
    # Unset flags stay None, so a config file's value is kept.
    for key, _, figure1, options in _SWEEP_INPUTS:
        for p_cmd in (p_mc,) if figure1 is None else (p_mc, p_fig):
            p_cmd.add_argument("--" + key.replace("_", "-"), default=None, **options)
    p_mc.add_argument("--config", default=None, help="JSON config file; flags override")
    p_mc.add_argument("--out", default=None)
    p_fig.add_argument("--include-model", dest="include_model", action="store_true",
                       help="append suppression-law rows at the target parameters")

    p_report = sub.add_parser("report", help="combined human-readable report")
    p_report.add_argument("--out", default=None)

    return parser


def _merge_sweep_parameters(args: argparse.Namespace) -> dict:
    """Defaults, then the ``mc --config`` file, then the flags given."""
    merged = {key: mc if args.command == "mc" or figure1 is None else figure1
              for key, mc, figure1, _ in _SWEEP_INPUTS}
    merged["out"] = None
    if getattr(args, "config", None) is not None:
        merged.update(_load_config_file(args.config))
    for key in merged:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    for key, mc, *_ in _SWEEP_INPUTS:
        if mc is None and merged[key] is None:
            raise ConfigError(f"missing required parameter: {key}")
    if merged["out"] is not None and not isinstance(merged["out"], str):
        raise ConfigError(f"out must be a path string, got {merged['out']!r}")
    return merged


def parse_args(argv: list[str] | None = None) -> RunConfig:
    """Parse and validate a command line into a :class:`RunConfig`.

    Usage problems exit with code 2 via argparse; validation problems
    raise :class:`ConfigError`, which :func:`main` maps to exit code 3.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command

    if command in ("mc", "figure1"):
        merged = _merge_sweep_parameters(args)
        params = _validate_sweep(merged)
        if command == "figure1":
            params["include_model"] = bool(args.include_model)
        return RunConfig(command, params, merged["out"])

    params = {key: value for key, value in vars(args).items() if key not in ("command", "out")}
    return RunConfig(command, params, args.out)


def _validate_sweep(merged: dict) -> dict:
    """The fields of the :class:`SweepConfig` that ``merged`` describes, once it is built.

    The value rules are :class:`SweepConfig`'s, :class:`NoiseModel`'s (at p = 0)
    and ``HQEC_THREADS``'s; a value they refuse raises :class:`ConfigError`
    here, before any work.
    """
    from .experiments import SweepConfig, thread_count
    from .noise import NoiseModel

    weights = merged["weights"]
    try:
        thread_count()  # run_sweep reads HQEC_THREADS again; checked here for exit 3
        p_values = _parse_p_range(str(merged["p"]))
        if not isinstance(weights, (tuple, list)):
            weights = _parse_weights(str(weights))
        noise = NoiseModel(p=0.0, pauli_weights=tuple(weights), p_rot=merged["rotations"],
                           rot_axis=_parse_axis(merged["rot_axis"]),
                           rot_angle=_parse_angle(merged["rot_angle"]), rot_mode=merged["rot_mode"])
        sweep = SweepConfig(code_id=merged["code"], noise=noise, p_values=p_values,
                            trials=merged["trials"], seed=merged["seed"],
                            quaternionic_detection=merged["detect"],
                            detection_threshold=merged["threshold"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return dict(vars(sweep))


def _emit(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
    else:
        _write_file(output_path, text)


def _temporary_path(path: str) -> str:
    return f"{path}.{os.getpid()}.tmp"


def _write_file(path: str, text: str) -> None:
    """Write ``text`` whole: to a temporary file beside ``path``, then renamed onto it."""
    temporary = _temporary_path(path)
    try:
        with open(temporary, "x", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(temporary, path)
    finally:
        if os.path.exists(temporary):
            os.remove(temporary)


def _figure1_paths(prefix: str) -> tuple[str, str]:
    return f"{prefix}.csv", f"{prefix}_fit.json"


def _check_output_paths(config: RunConfig) -> None:
    """Raise :class:`ConfigError` unless every file the command writes can be written."""
    if config.output_path is None:
        return
    if config.command == "figure1":
        paths = _figure1_paths(config.output_path)
    else:
        paths = (config.output_path,)
    for path in paths:
        if not path:
            raise ConfigError("output path is empty")
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise ConfigError(f"output directory {directory!r} does not exist")
        if not os.access(directory, os.W_OK | os.X_OK):
            raise ConfigError(f"output directory {directory!r} is not writable")
        if os.path.isdir(path):
            raise ConfigError(f"output path {path!r} is a directory")
        # A name the file system refuses (too long, a null byte) passes the
        # checks above, so the write's temporary file is made and removed here.
        temporary = _temporary_path(path)
        try:
            open(temporary, "x").close()
            os.remove(temporary)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot write output path {path!r}: {exc}") from None


# name -> factory of each gate the audits cover, in report order
_AUDIT_GATES = {
    "H": hadamard_gate,
    "CNOT": cnot_gate,
    **{letter: functools.partial(pauli_gate, letter) for letter in "XYZ"},
    "T": t_gate,
    **{f"{unit}{letter}": functools.partial(phased_pauli_gate, letter)
       for unit, letter in zip("ijk", "XYZ")},
    "I": identity_gate,
}


class _Findings:
    """What the audit commands report, each part computed the first time it is read.

    One instance serves one command call and its parameters, so a command
    computes only the parts its renderer reads, each once, and nothing outlives the call.
    """

    def __init__(self, parameters: dict) -> None:
        self._parameters = parameters
        self._gates: dict[str, tuple[Gate, UnitarityReport]] = {}

    def gate(self, name: str) -> tuple[Gate, UnitarityReport]:
        """The named audit gate and its unitarity report."""
        if name not in self._gates:
            gate = _AUDIT_GATES[name]()
            self._gates[name] = gate, is_unitary(gate.matrix)
        return self._gates[name]

    @functools.cached_property
    def bell(self) -> str:
        """The rendered benchmark state."""
        return bell_prepare().render()

    @functools.cached_property
    def codes(self) -> dict[str, StabilizerCode]:
        return {code_id: get_code(code_id) for code_id in CODE_IDS}

    @functools.cached_property
    def codewords(self) -> dict[str, CodewordReport]:
        return {code_id: verify_codewords(code) for code_id, code in self.codes.items()}

    @functools.cached_property
    def table2(self) -> AuditReport:
        """The paper5 syndrome table against the published rows."""
        return audit_against_paper(build_syndrome_table(self.codes["paper5"]))

    @functools.cached_property
    def mappings(self) -> tuple[tuple[str, int], ...]:
        """Codeword slot action: mapping name, rows matching the published table."""
        return tuple(
            (name, codeword_action_diff(mapping)[1])
            for name, mapping in (("table-implied", MAPPING_TABLE), ("prose", MAPPING_TEXT))
        )

    @functools.cached_property
    def syndrome_table(self) -> tuple[SyndromeTable, dict[str, bool] | None]:
        """The ``--code`` table and, for paper5 only, each row's published match by label."""
        table = build_syndrome_table(get_code(self._parameters["code"]))
        if table.code_id != "paper5":
            return table, None
        return table, {row.error_label: row.match for row in audit_against_paper(table).rows}


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _gate_line(gate: Gate, report: UnitarityReport) -> str:
    return (
        f"gate {gate.name}: unitary={_verdict(report.passed)} "
        f"max_deviation={report.max_deviation:.12g} worst_entry={report.worst_entry}"
    )


def _summary_line(f: _Findings) -> str:
    return (
        f"AUDIT hadamard_unitary={_verdict(f.gate('H')[1].passed)} "
        f"cnot_unitary={_verdict(f.gate('CNOT')[1].passed)} "
        f"table2_mismatches={f.table2.mismatch_count} "
        f"codeword_check_paper5={_verdict(f.codewords['paper5'].passed)}"
    )


def _codeword_lines(code_id: str, report: CodewordReport) -> list[str]:
    lines = [f"codeword verification [{code_id}]: {_verdict(report.passed)}"]
    for check in report.checks:
        lines.append(
            f"  generator {check.generator}: fixes |0_L> "
            f"{'yes' if check.fixes_zero else 'NO'}, fixes |1_L> "
            f"{'yes' if check.fixes_one else 'NO'}"
        )
    lines.append(f"  logical Z action: {'ok' if report.logical_z_ok else 'WRONG'}")
    lines.append(f"  logical X action: {'ok' if report.logical_x_ok else 'WRONG'}")
    return lines


def _collision_lines(audit: AuditReport) -> list[str]:
    return [
        f"collision {Syndrome(bits)}: {' '.join(labels)}"
        for bits, labels in sorted(audit.collisions.items())
    ]


def _bell_lines(f: _Findings) -> list[str]:
    return [f"bell state: {f.bell}", *(_gate_line(*f.gate(name)) for name in ("H", "CNOT"))]


def _verify_lines(f: _Findings) -> list[str]:
    lines = [f"codewords {code_id}: {_verdict(r.passed)}" for code_id, r in f.codewords.items()]
    return [*lines, _summary_line(f)]


def _audit_lines(f: _Findings) -> list[str]:
    audit = f.table2
    lines = ["published syndrome table diff [paper5]:"]
    for row in audit.rows:
        status = "match" if row.match else "MISMATCH"
        lines.append(
            f"  {row.error_label}: computed {row.computed} reference {row.reference} {status}"
        )
    lines.append(f"mismatch count: {audit.mismatch_count}")
    lines.extend(_collision_lines(audit))
    if audit.trivial_syndrome_errors:
        lines.append("trivial computed syndrome: " + " ".join(audit.trivial_syndrome_errors))
    for code_id, report in f.codewords.items():
        lines.extend(_codeword_lines(code_id, report))
    return [*lines, _summary_line(f)]


def _audit_json_lines(f: _Findings) -> list[str]:
    """Machine-readable audit: gate matrices in the standard serialization
    plus the row-level table diff and codeword verdicts."""
    audit = f.table2
    gates = {name: f.gate(name) for name in ("H", "CNOT")}
    payload = {
        "gates": {
            name: {"matrix": matrix_to_dict(gate.matrix), "side": gate.side.value,
                   "unitary": report.passed, "max_deviation": report.max_deviation}
            for name, (gate, report) in gates.items()
        },
        "table2": {
            "mismatch_count": audit.mismatch_count,
            "rows": [
                {"error": row.error_label, "computed": list(row.computed.bits),
                 "reference": list(row.reference.bits), "match": row.match}
                for row in audit.rows
            ],
            "collisions": {
                ",".join(str(b) for b in bits): list(labels)
                for bits, labels in sorted(audit.collisions.items())
            },
            "trivial_syndrome_errors": list(audit.trivial_syndrome_errors),
        },
        "codewords": {code_id: report.passed for code_id, report in f.codewords.items()},
    }
    return [json.dumps(payload)]


def _report_lines(f: _Findings) -> list[str]:
    lines = ["state and gate benchmark", "-" * 40, f"bell state: {f.bell}"]
    for gate, report in map(f.gate, _AUDIT_GATES):
        aligned = phase_alignment_check(gate.matrix)
        lines.append(
            f"{_gate_line(gate, report)} phase_aligned={'yes' if aligned else 'no'} "
            f"side={gate.side.value}"
        )
    # Kept word for word (the report bytes are frozen), though the library has no conditional flip.
    lines.append("note: the conditional-flip operation is non-linear and therefore "
                 "excluded from the unitary audit")
    lines += ["", "codes", "-" * 40]
    for code_id, code in f.codes.items():
        words = " ".join(g.word() for g in code.generators)
        lines.append(f"{code_id}: [[{code.n},{code.k},{code.d}]] generators: {words}")
        lines.extend(_codeword_lines(code_id, f.codewords[code_id]))
    lines += ["", "published syndrome table audit [paper5]", "-" * 40]
    lines.append(f"mismatch count: {f.table2.mismatch_count} of {len(f.table2.rows)} rows")
    lines.extend(_collision_lines(f.table2))
    lines += ["", "codeword slot action vs published rows", "-" * 40]
    for name, matches in f.mappings:
        lines.append(f"mapping {name}: {matches}/6 rows match the published table")
    return [*lines, "", _summary_line(f)]


def _syndrome_csv_lines(f: _Findings) -> list[str]:
    table, matches = f.syndrome_table
    header = "error_label,phase," + ",".join(f"s{i + 1}" for i in range(table.generator_count))
    lines = [header if matches is None else header + ",matches_paper"]
    for row in table.rows:
        cells = [row.error_label, quat.phase_label(row.phase)]
        cells += [f"{b:+d}" for b in row.syndrome.bits]
        if matches is not None:
            cells.append("yes" if matches[row.error_label] else "no")
        lines.append(",".join(cells))
    return lines


def _syndrome_text_lines(f: _Findings) -> list[str]:
    table, matches = f.syndrome_table
    lines = [f"syndrome table [{table.code_id}] ({table.generator_count} generators)"]
    for row in table.rows:
        extra = ""
        if matches is not None:
            extra = f"  matches_paper={'yes' if matches[row.error_label] else 'no'}"
        lines.append(f"  {row.error_label:>3} ({'/'.join(row.variants)}): {row.syndrome}{extra}")
    return lines


# (command, --format) -> renderer of the findings
_RENDERERS = {
    ("bell", "text"): _bell_lines,
    ("verify", "text"): _verify_lines,
    ("audit", "text"): _audit_lines,
    ("audit", "json"): _audit_json_lines,
    ("report", "text"): _report_lines,
    ("syndrome-table", "csv"): _syndrome_csv_lines,
    ("syndrome-table", "text"): _syndrome_text_lines,
}


def _cmd_findings(config: RunConfig) -> int:
    render = _RENDERERS[config.command, config.parameters.get("format", "text")]
    _emit("\n".join(render(_Findings(config.parameters))) + "\n", config.output_path)
    return 0


def _cmd_mc(config: RunConfig) -> int:
    from . import experiments

    sweep = experiments.SweepConfig(**config.parameters)
    _emit(experiments.sweep_csv(experiments.run_sweep(sweep)), config.output_path)
    return 0


def _cmd_fit(config: RunConfig) -> int:
    from . import experiments

    try:
        with open(config.parameters["input"], "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read input CSV: {exc}") from None
    try:
        fit = experiments.fit_threshold(experiments.parse_sweep_csv(text))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _emit(experiments.fit_json(fit) + "\n", config.output_path)
    return 0


def _cmd_figure1(config: RunConfig) -> int:
    from . import experiments

    params = dict(config.parameters)
    include_model = params.pop("include_model")
    data = experiments.figure1_data(experiments.SweepConfig(**params))
    csv_path, json_path = _figure1_paths(config.output_path)
    csv_text = experiments.figure1_csv(data, include_model_curves=include_model)
    _write_file(csv_path, csv_text)
    _write_file(json_path, experiments.figure1_fits_json(data) + "\n")
    sys.stdout.write(f"wrote {csv_path}\nwrote {json_path}\n")
    return 0


# The sweep commands; every other command renders the findings.
_DISPATCH = {"mc": _cmd_mc, "fit": _cmd_fit, "figure1": _cmd_figure1}


def run(config: RunConfig) -> int:
    """Dispatch a parsed configuration; returns the process exit code.

    Output paths are checked before any work, so a run that could not
    write its result fails at once with :class:`ConfigError`.
    """
    _check_output_paths(config)
    return _DISPATCH.get(config.command, _cmd_findings)(config)


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        return run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # internal failure -> exit 1
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
