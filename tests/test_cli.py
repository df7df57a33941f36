import collections
import hashlib
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from unittest import mock

from hqec import cli
from hqec.cli import ConfigError, main, parse_args, _parse_p_range
from hqec.codes import CODE_IDS
from hqec.register import (
    cnot_gate,
    hadamard_gate,
    identity_gate,
    pauli_gate,
    phased_pauli_gate,
    t_gate,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- argument parsing ------------------------------------------------------

def test_parse_p_range_log():
    values = _parse_p_range("0.001:0.1:log:10")
    assert len(values) == 10
    assert values[0] == pytest.approx(0.001)
    assert values[-1] == pytest.approx(0.1)
    ratios = [b / a for a, b in zip(values, values[1:])]
    assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)


def test_parse_p_range_lin():
    values = _parse_p_range("0.1:0.3:lin:3")
    assert values == pytest.approx((0.1, 0.2, 0.3))


def test_parse_p_range_rejects_descending():
    with pytest.raises(ConfigError, match="p range"):
        _parse_p_range("0.5:0.1:log:5")


def test_parse_p_range_rejects_garbage():
    for spec in ("1:2:3", "a:b:log:3", "0.1:0.2:geo:3", "0.1:0.2:log:0", "0:0.5:log:4"):
        with pytest.raises(ConfigError):
            _parse_p_range(spec)


def test_parse_args_mc():
    config = parse_args(
        ["mc", "--code", "perfect5", "--p", "0.001:0.1:log:10", "--trials", "1000",
         "--seed", "7"]
    )
    assert config.command == "mc"
    assert len(config.parameters["p_values"]) == 10
    assert config.parameters["trials"] == 1000
    assert config.parameters["seed"] == 7


def test_parse_args_reuses_one_parser_without_leaking_flags():
    base = ["mc", "--code", "three", "--p", "0.1:0.2:lin:2"]
    detect = "quaternionic_detection"
    assert parse_args([*base, "--detect"]).parameters[detect] is True
    assert parse_args([*base, "--detect", "--no-detect"]).parameters[detect] is False
    assert parse_args(base).parameters[detect] is False
    first = parse_args(["figure1", "--out", "a", "--trials", "7", "--rotations", "0.2",
                        "--include-model"]).parameters
    second = parse_args(["figure1", "--out", "b"])
    assert (first["trials"], first["noise"].p_rot, first["include_model"]) == (7, 0.2, True)
    assert second.output_path == "b"
    assert (second.parameters["trials"], second.parameters["noise"].p_rot,
            second.parameters["include_model"]) == (20000, 0.05, False)
    assert cli._build_parser() is cli._build_parser()


def test_mc_and_figure1_parse_shared_flags_alike(tmp_path):
    shared = ["--code", "three", "--p", "0.01:0.1:log:3", "--trials", "9", "--seed", "4",
              "--rotations", "0.2", "--rot-axis", "i", "--rot-angle", "uniform:0.5",
              "--threshold", "0.03"]
    mc = parse_args(["mc", *shared]).parameters
    figure1 = parse_args(["figure1", "--out", str(tmp_path / "fig"), *shared]).parameters
    for key in ("noise", "p_values", "trials", "seed", "detection_threshold"):
        assert mc[key] == figure1[key], key
    assert mc["noise"].p_rot == 0.2
    assert mc["noise"].rot_angle.kind == "uniform"


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("raw", ["0_0.1", "+0.1", " 1e-2", "1e-2 ", "\u0663", "Infinity"])
@pytest.mark.parametrize("flag", ["--rotations", "--threshold"])
@pytest.mark.parametrize("command", ["mc", "figure1"])
def test_a_float_flag_not_in_ascii_decimal_exits_2(capsys, tmp_path, command, flag, raw):
    if command == "mc":
        argv = ["mc", "--code", "three", "--p", "0.01:0.1:log:3"]
    else:
        argv = ["figure1", "--out", str(tmp_path / "fig")]
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"{flag}={raw}"])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid float value: {raw!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_descending_p_range_exits_3(capsys):
    code, _, err = run_cli(capsys, "mc", "--code", "three", "--p", "0.5:0.1:log:5",
                           "--trials", "10")
    assert code == 3
    assert "p range" in err


@pytest.mark.parametrize("raw", ["1_000", "+1", " 2 ", "\u0663"])
@pytest.mark.parametrize("flag", ["--trials", "--seed"])
@pytest.mark.parametrize("command", ["mc", "figure1"])
def test_an_integer_flag_not_in_ascii_digits_exits_2(capsys, tmp_path, command, flag, raw):
    if command == "mc":
        argv = ["mc", "--code", "three", "--p", "0.01:0.1:log:3"]
    else:
        argv = ["figure1", "--out", str(tmp_path / "fig")]
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"{flag}={raw}"])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid int value: {raw!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_negative_seed_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "mc", "--code", "three", "--p", "0.01:0.1:log:3", "--seed", "-1"
    )
    assert code == 3
    assert "seed" in err


def test_help_exits_zero():
    for sub in ("bell", "verify", "audit", "syndrome-table", "mc", "fit", "figure1", "report"):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0


# -- config files -------------------------------------------------------------

def test_config_file_unknown_key_exits_3(tmp_path, capsys):
    config = tmp_path / "run.json"
    for key, value in (("bogus", 1), ("noise", {"p_rot": 0.0, "axis": [0, 0, 1]})):
        config.write_text(json.dumps({"code": "three", "p": "0.01:0.1:log:3", key: value}))
        code, _, err = run_cli(capsys, "mc", "--config", str(config))
        assert code == 3
        assert f"unknown config key: {key}" in err


def test_config_file_provides_values(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({"code": "three", "p": "0.05:0.2:log:3", "trials": 50, "seed": 4})
    )
    code, out, _ = run_cli(capsys, "mc", "--config", str(config))
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 4
    assert rows[1].startswith("three,0.05,50,")


_OVERRIDE_BASE = {"code": "perfect5", "p": "0.05:0.2:log:3", "trials": 200, "seed": 4,
                  "rotations": 0.2}
# sweep key -> the file's value, the flag that overrides it
_OVERRIDES = {
    "trials": (50, ["--trials", "20"]),
    "weights": ("1,0,0", ["--weights", "0,0.5,0.5"]),
    "rotations": (0.0, ["--rotations", "0.3"]),
    "rot_axis": ("i", ["--rot-axis", "0,0,1"]),
    "rot_angle": ("fixed:0.05", ["--rot-angle", "uniform:1.2"]),
    "rot_mode": ("all", ["--rot-mode", "zero"]),
    "threshold": (0.5, ["--threshold", "0"]),
    "detect": (False, ["--detect"]),
}


def test_flags_override_config(tmp_path, capsys):
    config = tmp_path / "run.json"
    for key, (file_value, flag) in _OVERRIDES.items():
        config.write_text(json.dumps({**_OVERRIDE_BASE, key: file_value}))
        flags_only = ["mc", *(arg for k, v in _OVERRIDE_BASE.items() if k != key
                              for arg in (f"--{k}", str(v))), *flag]
        # the file's value is one the flag really replaces
        assert parse_args(["mc", "--config", str(config)]) != parse_args(flags_only), key
        expected = run_cli(capsys, *flags_only)
        assert expected[0] == 0, key
        assert run_cli(capsys, "mc", "--config", str(config), *flag) == expected, key


def test_no_detect_flag_overrides_config_detect(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"code": "three", "p": "0.05:0.2:log:3", "trials": 300,
                                  "seed": 3, "rotations": 0.3, "detect": True}))
    flags = ("mc", "--code", "three", "--p", "0.05:0.2:log:3", "--trials", "300",
             "--seed", "3", "--rotations", "0.3")
    code, without, err = run_cli(capsys, *flags)
    assert code == 0, err
    assert run_cli(capsys, "mc", "--config", str(config), "--no-detect") == (0, without, "")
    # the file's detection really changes the counts, so the flag is what turned it off
    assert run_cli(capsys, "mc", "--config", str(config))[1] != without


def test_missing_required_parameter_exits_3(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"code": "three"}))
    code, _, err = run_cli(capsys, "mc", "--config", str(config))
    assert code == 3
    assert "p" in err


@pytest.mark.parametrize(
    ("key", "value"),
    [
        ("threshold", "abc"),
        ("threshold", math.nan),
        ("threshold", math.inf),
        ("threshold", -0.01),
        ("threshold", True),
        ("threshold", None),
        ("detect", "false"),
        ("detect", 1),
        ("detect", None),
        ("trials", 1.5),
        ("trials", 20.0),
        ("trials", True),
        ("seed", 3.7),
        ("seed", False),
    ],
)
def test_config_bad_detection_values_exit_3(tmp_path, capsys, key, value):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"code": "three", "p": "0.05:0.2:log:3", "trials": 20,
                                  key: value}))
    code, out, err = run_cli(capsys, "mc", "--config", str(config))
    assert code == 3
    assert out == ""
    assert key in err


_BAD_WEIGHTS = ([math.nan, 1, 1], [math.inf, 0, 0], [True, False, False])


@pytest.mark.parametrize(
    ("section", "key", "value"),
    [
        ("flat", "rotations", True),
        ("flat", "rotations", False),
        ("flat", "weights", 1.0),
        ("flat", "phase_mode", True),  # no longer a key: it exits 3 as an unknown one
        ("flat", "rot_mode", False),
        *(("flat", "weights", w) for w in _BAD_WEIGHTS),
        ("flat", "phase_mode", "both"),
    ],
)
def test_config_bool_and_non_finite_noise_values_exit_3(tmp_path, capsys, section, key, value):
    body = {"code": "three", "p": "0.05:0.2:log:3", "trials": 20, key: value}
    config = tmp_path / "run.json"
    config.write_text(json.dumps(body))  # NaN and Infinity as JSON literals
    code, out, err = run_cli(capsys, "mc", "--config", str(config))
    assert code == 3
    assert out == ""
    assert key in err


@pytest.mark.parametrize(
    ("section", "key", "value"),
    [
        ("flat", "trials", "5"),
        ("flat", "seed", "3"),
        ("flat", "threshold", "0.02"),
        ("flat", "rotations", "0.1"),
    ],
)
def test_config_numeric_strings_exit_3(tmp_path, capsys, section, key, value):
    body = {"code": "three", "p": "0.05:0.2:log:3", "trials": 20, key: value}
    config = tmp_path / "run.json"
    config.write_text(json.dumps(body))
    code, out, err = run_cli(capsys, "mc", "--config", str(config))
    assert code == 3
    assert out == ""
    assert key in err


@pytest.mark.parametrize("raw", ["nan,1,1", "1,inf,0", "0,0,inf"])
def test_bad_weights_flag_exits_3(capsys, raw):
    code, out, err = run_cli(capsys, "mc", "--code", "three", "--p", "0.05:0.2:log:3",
                             "--trials", "20", "--weights", raw)
    assert code == 3
    assert out == ""
    assert "weights" in err


def test_config_integer_noise_values_accepted(tmp_path, capsys):
    flags = ("mc", "--code", "three", "--p", "0.05:0.2:log:3", "--trials", "20",
             "--seed", "4", "--weights", "1,0,0")
    expected = run_cli(capsys, *flags)[1]
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"code": "three", "p": "0.05:0.2:log:3", "trials": 20,
                                  "seed": 4, "weights": [1, 0, 0], "rotations": 0}))
    code, out, _ = run_cli(capsys, "mc", "--config", str(config))
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("raw", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["mc", "figure1"])
def test_bad_threshold_flag_exits_3(capsys, tmp_path, command, raw):
    if command == "mc":
        argv = ("mc", "--code", "three", "--p", "0.01:0.1:log:3", "--trials", "10")
    else:
        argv = ("figure1", "--out", str(tmp_path / "fig"), "--trials", "10")
    code, out, err = run_cli(capsys, *argv, "--threshold", raw)
    assert code == 3
    assert out == ""
    assert "threshold" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source", ["mc flag", "figure1 flag", "config key"])
def test_non_finite_rot_angle_exits_3(capsys, tmp_path, source):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    mc = ("mc", "--code", "three", "--p", "0.01:0.1:log:3", "--out", str(out_dir / "x.csv"))
    if source == "mc flag":
        argv = (*mc, "--rot-angle", "fixed:nan")
    elif source == "figure1 flag":
        argv = ("figure1", "--out", str(out_dir / "x"), "--rot-angle", "uniform:inf")
    else:
        config = tmp_path / "run.json"
        config.write_text('{"code": "three", "p": "0.01:0.1:log:3", "rot_angle": "fixed:1e400"}')
        argv = ("mc", "--config", str(config), "--out", str(out_dir / "x.csv"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "rot_angle" in err
    assert list(out_dir.iterdir()) == []


def test_config_valid_detection_values_accepted(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"code": "three", "p": "0.05:0.2:log:3", "trials": 20,
                                  "seed": 4, "detect": True, "threshold": 0}))
    code, out, _ = run_cli(capsys, "mc", "--config", str(config))
    assert code == 0
    flags = ("mc", "--code", "three", "--p", "0.05:0.2:log:3", "--trials", "20",
             "--seed", "4", "--detect", "--threshold", "0")
    assert run_cli(capsys, *flags)[1] == out


# Values of every JSON kind a config key might hold by mistake.
_FUZZ_VALUES = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from([2**64 - 1, 2**64, 2**64 + 1, 2**70, -(2**63), 1e308, -1e308]),  # huge
    st.sampled_from([5e-324, -5e-324, 1e-300, -0.0]),  # tiny
    st.integers(-3, 30) | st.floats(-2, 2),
    st.sampled_from(["", " ", "nan", "-inf", "1e999", "0.1:0.2", ":::", "0.1:0.2:log:x",
                     "fixed:", "uniform:nan", "fixed:1:2", "1,2", "a,b,c", "0,0,0", "\x00",
                     "k,", "perfect5 ", "\u00e9", "a/b/c"]),
    st.text(max_size=6),
    st.lists(st.none() | st.booleans() | st.integers(-2, 2) | st.floats(), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2) | st.text(max_size=3), max_size=2),
)

_FUZZ_TRIALS_CAP = 20


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.dictionaries(st.sampled_from(sorted({key for key, *_ in cli._SWEEP_INPUTS} | {"out"})),
                       _FUZZ_VALUES, min_size=1, max_size=4))
def test_fuzzed_config_file_exits_0_or_3(tmp_path, monkeypatch, capsys, fuzzed):
    monkeypatch.chdir(tmp_path)  # a fuzzed ``out`` that is valid lands here
    body = {"code": "three", "p": "0.05:0.2:log:3", "trials": _FUZZ_TRIALS_CAP, **fuzzed}
    trials = body["trials"]
    if type(trials) is int and _FUZZ_TRIALS_CAP < trials <= 2**64:
        body["trials"] = _FUZZ_TRIALS_CAP  # valid, but too many to run here
    config = tmp_path / "run.json"
    config.write_text(json.dumps(body))
    code, _, err = run_cli(capsys, "mc", "--config", str(config))
    assert code in (0, 3), (body, err)


# The fuzzed flags of each command: every sweep flag it takes but ``--trials``,
# which the test sets below its cap, and ``--out``; and the text of every value
# class above.
_FUZZ_FLAGS = {
    command: (*("--" + key.replace("_", "-") for key, _, figure1, _ in cli._SWEEP_INPUTS
                if key != "trials" and (command == "mc" or figure1 is not None)),
              "--out")
    for command in ("mc", "figure1")
}
_FUZZ_TEXT = _FUZZ_VALUES.map(str) | _FUZZ_VALUES.map(json.dumps)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(_FUZZ_FLAGS)), st.integers(-1, 3), st.data())
def test_fuzzed_sweep_flags_exit_0_2_or_3(tmp_path, monkeypatch, capsys, command, trials, data):
    monkeypatch.chdir(tmp_path)  # a fuzzed ``--out`` that is valid lands here
    flags = data.draw(st.dictionaries(st.sampled_from(_FUZZ_FLAGS[command]), _FUZZ_TEXT,
                                      min_size=1, max_size=4))
    argv = [command, "--trials", str(trials)]
    argv += ["--code", "three", "--p", "0.05:0.2:log:3"] if command == "mc" else ["--out", "f"]
    # ``--flag=value`` hands argparse a value that starts with "-" as it is
    argv += [f"{flag}={text}" for flag, text in flags.items()]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refused the command line
        code = exc.code
    assert code in (0, 2, 3), (argv, capsys.readouterr().err)


# -- subcommand outputs ----------------------------------------------------------

def test_bell_output(capsys):
    code, out, _ = run_cli(capsys, "bell")
    assert code == 0
    assert "bell state:" in out
    assert "0.707106781187" in out
    assert "-0.707106781187j" in out
    assert "gate H: unitary=FAIL" in out
    assert "gate CNOT: unitary=PASS" in out


def test_verify_summary_line(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert (
        "AUDIT hadamard_unitary=FAIL cnot_unitary=PASS "
        "table2_mismatches=9 codeword_check_paper5=FAIL"
    ) in out


def test_audit_output(capsys):
    code, out, _ = run_cli(capsys, "audit")
    assert code == 0
    assert "mismatch count: 9" in out
    assert "X1: computed (+1,-1,+1,+1) reference (-1,-1,+1,+1) MISMATCH" in out
    assert "collision (+1,+1,+1,-1): X4 X5 Y5" in out
    assert "table2_mismatches=9" in out


def test_syndrome_table_three_csv(capsys):
    code, out, _ = run_cli(capsys, "syndrome-table", "--code", "three")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "error_label,phase,s1,s2"
    assert len(lines) == 10
    assert lines[1] == "X1,+i,-1,+1"


def test_syndrome_table_paper5_matches_column(capsys):
    code, out, _ = run_cli(capsys, "syndrome-table", "--code", "paper5")
    lines = out.strip().splitlines()
    assert lines[0] == "error_label,phase,s1,s2,s3,s4,matches_paper"
    assert len(lines) == 16
    by_label = {line.split(",")[0]: line for line in lines[1:]}
    assert by_label["Y2"].endswith("yes")
    assert by_label["X1"].endswith("no")


def test_syndrome_table_perfect5_distinct(capsys):
    code, out, _ = run_cli(capsys, "syndrome-table", "--code", "perfect5")
    lines = out.strip().splitlines()
    assert lines[0] == "error_label,phase,s1,s2,s3,s4"
    syndromes = {tuple(line.split(",")[2:6]) for line in lines[1:]}
    assert len(syndromes) == 15


def test_syndrome_table_text_format(capsys):
    code, out, _ = run_cli(capsys, "syndrome-table", "--code", "three", "--format", "text")
    assert code == 0
    assert "X1 (iX1): (-1,+1)" in out


def test_mc_roundtrip_with_fit(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "mc", "--code", "three", "--p", "0.02:0.2:log:5", "--trials", "4000",
        "--seed", "11", "--weights", "1,0,0", "--out", str(csv_path)
    )
    assert code == 0
    fit_path = tmp_path / "fit.json"
    code, _, _ = run_cli(capsys, "fit", "--in", str(csv_path), "--out", str(fit_path))
    assert code == 0
    payload = json.loads(fit_path.read_text())
    assert list(payload) == ["slope", "p_th_intercept", "p_th_crossing", "residual"]
    assert 1.5 < payload["slope"] < 2.5


def test_mc_deterministic_output(capsys):
    args = ("mc", "--code", "perfect5", "--p", "0.01:0.05:log:3", "--trials", "500",
            "--seed", "2")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# Frozen SHA-256 digests of the `hqec mc` CSV; any change to sampling,
# decoding or scoring moves them.
_MC_NOISE_FLAGS = {
    "pauli": (),
    "rotations": ("--rotations", "0.05"),
    "detect": ("--rotations", "0.05", "--detect"),
    # A j/k excess at or below quaternion.TOLERANCE counts as zero, so at
    # threshold 0 each corrected trial passes and the bytes equal
    # paper5-detect (and paper5-pauli).
    "guard": ("--rotations", "0.05", "--rot-mode", "all", "--threshold", "0", "--detect"),
    "uniform": ("--rotations", "0.3", "--rot-mode", "all", "--rot-angle", "uniform:3"),
}
_MC_GOLDEN_SHA256 = {
    ("three", "pauli"): "712e7c45ebd7d8b0a4ec727c4035aa2f4caa95dfc30b378a09948ca01a659c1b",
    ("three", "rotations"): "7b1398ddb8648155c8b22f366a67169c5fe8677d7785cfd7027cd0b7db18ec12",
    ("three", "detect"): "712e7c45ebd7d8b0a4ec727c4035aa2f4caa95dfc30b378a09948ca01a659c1b",
    ("paper5", "pauli"): "4009276e0a08af0ca927e245252c667826ff410d997821aaf26c7882ed45201d",
    ("paper5", "rotations"): "6844484a79502c39b3e690eef50ba7b7093e4c1e97f7b5ec10d0567f6d2e22c7",
    ("paper5", "detect"): "4009276e0a08af0ca927e245252c667826ff410d997821aaf26c7882ed45201d",
    ("perfect5", "pauli"): "2acfb1d42b8a91ed04cb0887a6dbd38ee2e7309f441561268fc7dc4585c84395",
    ("perfect5", "rotations"): "f94230a3f42fb362c64d0432efed1307309e3ce196e2042f6ea6c8449ba3da25",
    ("perfect5", "detect"): "2acfb1d42b8a91ed04cb0887a6dbd38ee2e7309f441561268fc7dc4585c84395",
    ("paper5", "guard"): "4009276e0a08af0ca927e245252c667826ff410d997821aaf26c7882ed45201d",
    ("three", "uniform"): "56ecf9e11bbfc7312d281d9e258ea8a76cf8f9182c6742319270f4c6a394ae9c",
}


@pytest.mark.parametrize(("code_id", "noise"), list(_MC_GOLDEN_SHA256))
def test_mc_csv_golden_bytes(capsys, code_id, noise):
    code, out, _ = run_cli(
        capsys, "mc", "--code", code_id, "--p", "0.01:0.2:log:4", "--trials", "300",
        "--seed", "11", *_MC_NOISE_FLAGS[noise]
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _MC_GOLDEN_SHA256[(code_id, noise)]


@pytest.mark.parametrize("value", ["none", "table1"])
def test_the_phase_mode_flag_is_gone_and_exits_2(capsys, value):
    # A unit phase cannot flip a commutator, so no sweep setting selects one.
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--code", "three", "--p", "0.05:0.2:log:3", "--phase-mode", value])
    assert exc.value.code == 2
    assert "unrecognized arguments: --phase-mode" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["none", "table1"])
def test_a_phase_mode_config_key_is_unknown_and_exits_3(tmp_path, capsys, value):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"code": "three", "p": "0.05:0.2:log:3", "phase_mode": value}))
    code, out, err = run_cli(capsys, "mc", "--config", str(config))
    assert (code, out) == (3, "")
    assert "unknown config key: phase_mode" in err


@pytest.mark.parametrize("raw", ["abc", "-1", "1_0", "+1", " 2 ", "\u0663"])
@pytest.mark.parametrize("command", ["mc", "figure1"])
def test_bad_thread_env_exits_3(monkeypatch, capsys, tmp_path, command, raw):
    monkeypatch.setenv("HQEC_THREADS", raw)
    if command == "mc":
        argv = ("mc", "--code", "three", "--p", "0.01:0.1:log:3", "--trials", "10")
    else:
        argv = ("figure1", "--out", str(tmp_path / "fig"), "--trials", "10")
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "HQEC_THREADS" in err
    if raw != "-1":
        assert f"HQEC_THREADS must be an integer, got {raw!r}" in err
    assert list(tmp_path.iterdir()) == []


def test_mc_detect_flag(capsys):
    args = ("mc", "--code", "perfect5", "--p", "0.01:0.05:log:3", "--trials", "300",
            "--seed", "2", "--rotations", "0.1", "--detect")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    args_std = args[:-1]
    code, out_std, _ = run_cli(capsys, *args_std)
    for detected, standard in zip(out.splitlines()[1:], out_std.splitlines()[1:]):
        assert int(detected.split(",")[3]) <= int(standard.split(",")[3])


def test_fit_missing_file_exits_3(capsys, tmp_path):
    code, _, err = run_cli(capsys, "fit", "--in", str(tmp_path / "absent.csv"))
    assert code == 3


def test_fit_of_a_nearly_flat_curve_exits_0_with_warnings_as_errors(capsys, tmp_path):
    # exp(-intercept / slope) overflows for this slope; the threshold reads inf.
    path = tmp_path / "flat.csv"
    path.write_text(
        "code_id,p,trials,failures,p_L,stderr,seed\n"
        "three,0.01,10000,5000,0.5,0.005,0\n"
        "three,0.02,10000,5001,0.5001,0.0049999999,0\n"
        "three,0.03,10000,5002,0.5002,0.0049999996,0\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "fit", "--in", str(path))
    assert (code, err) == (0, "")
    assert out == (
        '{"slope": 0.0003558915261085902, "p_th_intercept": Infinity, '
        '"p_th_crossing": 0.5006905546074932, "residual": 2.439674985694883e-05}\n'
    )


@pytest.mark.parametrize("command", ["fit --in", "mc --config"])
def test_non_utf8_input_exits_3(capsys, tmp_path, command):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, *command.split(), str(path))
    assert code == 3
    assert out == ""
    assert "cannot read" in err


_MC = ["mc", "--code", "three", "--p", "0.05:0.2:log:3", "--trials", "5"]

# case -> argv (IN is a file holding the text), file text, a fragment of the message
_BAD_INPUTS = {
    "rot-axis two fields": ([*_MC, "--rot-axis", "1,0"], None, "x,y,z, got '1,0'"),
    "rot-axis zero": ([*_MC, "--rot-axis", "0,0,0"], None, "bad rot_axis '0,0,0'"),
    "rot-axis letters": ([*_MC, "--rot-axis", "a,b,c"], None, "bad rot_axis 'a,b,c'"),
    "rot-angle malformed": ([*_MC, "--rot-angle", "fixed"], None, "THETA_MAX, got 'fixed'"),
    "weights two fields": ([*_MC, "--weights", "1,2"], None, "wx,wy,wz, got '1,2'"),
    "weights letters": ([*_MC, "--weights", "a,b,c"], None, "non-numeric fields: 'a,b,c'"),
    "trials above 2**64": ([*_MC, "--trials", "18446744073709551617"], None,
                           "trials must be an integer in [1, 2**64], got 18446744073709551617"),
    "config trials above 2**64": (["mc", "--config", "IN"],
                                  '{"code": "three", "p": "0.05:0.2:log:3", '
                                  '"trials": 18446744073709551617}',
                                  "trials must be an integer in [1, 2**64]"),
    "config not JSON": (["mc", "--config", "IN"], "{", "is not valid JSON"),
    "config not object": (["mc", "--config", "IN"], "[1]", "must hold a JSON object"),
    "config without code": (["mc", "--config", "IN"], '{"p": "0.05:0.2:log:3"}',
                            "missing required parameter: code"),
    "noise not object": (["mc", "--config", "IN"],
                         '{"code": "three", "p": "0.05:0.2:log:3", "noise": 5}',
                         "unknown config key: noise"),
    "config rot_axis number": (["mc", "--config", "IN"],
                               '{"code": "three", "p": "0.05:0.2:log:3", "rot_axis": 5}',
                               "rot_axis must be i|j|k or x,y,z, got 5"),
    "config rot_angle number": (["mc", "--config", "IN"],
                                '{"code": "three", "p": "0.05:0.2:log:3", "rot_angle": 5}',
                                "rot_angle must be fixed:THETA or uniform:THETA_MAX, got 5"),
    "config rot_axis list": (["mc", "--config", "IN"],
                             '{"code": "three", "p": "0.05:0.2:log:3", "rot_axis": [0, 0, 1]}',
                             "rot_axis must be i|j|k or x,y,z, got [0, 0, 1]"),
    "config rot_axis zero": (["mc", "--config", "IN"],
                             '{"code": "three", "p": "0.05:0.2:log:3", "rot_axis": "0,0,0"}',
                             "bad rot_axis '0,0,0'"),
    "config rot_angle true": (["mc", "--config", "IN"],
                              '{"code": "three", "p": "0.05:0.2:log:3", "rot_angle": true}',
                              "rot_angle must be fixed:THETA or uniform:THETA_MAX, got True"),
    "config repeated key": (["mc", "--config", "IN"],
                            '{"code": "three", "p": "0.05:0.2:log:3", "trials": 5, "trials": 6}',
                            "repeated config key: trials"),
    "p count with an underscore": (["mc", "--code", "three", "--p", "0.05:0.2:log:1_0"], None,
                                   "p range has non-numeric fields: '0.05:0.2:log:1_0'"),
    "p count with a plus": (["mc", "--code", "three", "--p", "0.05:0.2:log:+3"], None,
                            "p range has non-numeric fields: '0.05:0.2:log:+3'"),
    "p start with a space": (["mc", "--code", "three", "--p", " 0.05:0.2:log:3"], None,
                             "p range has non-numeric fields: ' 0.05:0.2:log:3'"),
    "p stop with an underscore": (["mc", "--code", "three", "--p", "0.05:0_0.2:log:3"], None,
                                  "p range has non-numeric fields: '0.05:0_0.2:log:3'"),
    "weights with an underscore": ([*_MC, "--weights", "0.5,0.5,0_0"], None,
                                   "weights have non-numeric fields: '0.5,0.5,0_0'"),
    "weights with a plus": ([*_MC, "--weights", "+1,0,0"], None,
                            "weights have non-numeric fields: '+1,0,0'"),
    "rot-angle with a space": ([*_MC, "--rot-angle", "fixed: 0.3"], None,
                               "bad rot_angle 'fixed: 0.3': could not convert string to float"),
    "rot-angle with an underscore": ([*_MC, "--rot-angle", "uniform:0_1"], None,
                                     "bad rot_angle 'uniform:0_1'"),
    "rot-axis with an underscore": ([*_MC, "--rot-axis", "1_0,0,0"], None,
                                    "bad rot_axis '1_0,0,0': could not convert string to float"),
    "rot-axis with a non-ASCII digit": ([*_MC, "--rot-axis", "\u0663,0,0"], None,
                                        "bad rot_axis '\u0663,0,0'"),
    "config p with a space": (["mc", "--config", "IN"],
                              '{"code": "three", "p": "0.05:0.2 :log:3"}',
                              "p range has non-numeric fields: '0.05:0.2 :log:3'"),
    "config weights with an underscore": (["mc", "--config", "IN"],
                                          '{"code": "three", "p": "0.05:0.2:log:3", '
                                          '"weights": "0.5,0.5,0_0"}',
                                          "weights have non-numeric fields: '0.5,0.5,0_0'"),
    "config rot_axis with a plus": (["mc", "--config", "IN"],
                                    '{"code": "three", "p": "0.05:0.2:log:3", "rot_axis": "+1,0,0"}',
                                    "bad rot_axis '+1,0,0'"),
    "config rot_angle with a space": (["mc", "--config", "IN"],
                                      '{"code": "three", "p": "0.05:0.2:log:3", '
                                      '"rot_angle": "fixed:0.3 "}',
                                      "bad rot_angle 'fixed:0.3 '"),
    "fit bad header": (["fit", "--in", "IN"], "p,failures\n0.1,1\n", "bad CSV header"),
    "fit short row": (["fit", "--in", "IN"],
                      "code_id,p,trials,failures,p_L,stderr,seed\nthree,0.1\n",
                      "CSV line 2 has 2 fields, not 7: 'three,0.1'"),
    "fit long row": (["fit", "--in", "IN"],
                     "code_id,p,trials,failures,p_L,stderr,seed\nthree,0.1,10,1,0.1,0.09,7,8\n",
                     "CSV line 2 has 8 fields, not 7: 'three,0.1,10,1,0.1,0.09,7,8'"),
}

# Rows that no sweep writes; the fit must refuse them. A bare row follows two
# good ones as CSV line 4, and its fragment follows "CSV line 4"; a tuple holds
# every data row, and its fragment names the line.
_GOOD_FIT_ROWS = ("three,0.01,100,1,0.01,0.00994987437107,0",
                  "three,0.02,100,4,0.04,0.0195959179423,0")
_BAD_FIT_ROWS = {
    "p_L inf": ("three,0.05,100,9,inf,0.0286,0", " has a bad p_L, not in [0, 1]"),
    "p_L nan": ("three,0.05,100,9,nan,0.0286,0", " has a bad p_L, not in [0, 1]"),
    "p_L above 1": ("three,0.05,100,9,1.5,0.0286,0", " has a bad p_L, not in [0, 1]"),
    "p nan": ("three,nan,100,9,0.09,0.0286,0", " has a bad p, not in (0, 1)"),
    "p negative": ("three,-1,100,9,0.09,0.0286,0", " has a bad p, not in (0, 1)"),
    "p one": ("three,1,100,9,0.09,0.0286,0", " has a bad p, not in (0, 1)"),
    "trials zero": ("three,0.05,0,0,0.09,0.0286,0", " has a bad trials, below 1"),
    "failures negative": ("three,0.05,100,-1,0.09,0.0286,0",
                          " has a bad failures, not in [0, trials]"),
    "failures above trials": ("three,0.05,100,101,0.09,0.0286,0",
                              " has a bad failures, not in [0, trials]"),
    "stderr inf": ("three,0.05,100,9,0.09,inf,0", " has a bad stderr, not finite"),
    "stderr nan": ("three,0.05,100,9,0.09,nan,0", " has a bad stderr, not finite"),
    "trials not integer": ("three,0.05,1e2,9,0.09,0.0286,0", ": invalid literal for int()"),
    "p_L not failures / trials": ("three,0.05,100,9,0.5,0.0286,0",
                                  " has a bad p_L, not failures / trials"),
    "seed not integer on line 3": (
        (_GOOD_FIT_ROWS[0], "three,0.02,100,4,0.04,0.0196,abc"),
        "CSV line 3: invalid literal for int() with base 10: 'abc'"),
    "first seed not integer": (("three,0.01,100,1,0.01,0.00995,abc", *_GOOD_FIT_ROWS[1:]),
                               "CSV line 2: invalid literal for int() with base 10: 'abc'"),
    "code unknown and seed negative": (
        "not-a-code,0.05,100,9,0.09,0.0286,-5",
        ": seed must be an integer in [0, 2**64), got -5"),
    "code unknown": ("not-a-code,0.05,100,9,0.09,0.0286,0",
                     " has a bad code_id, not one of three, paper5, perfect5"),
    "every seed negative": (("three,0.01,100,1,0.01,0.00995,-3",
                             "three,0.02,100,4,0.04,0.0196,-3"),
                            "CSV line 2: seed must be an integer in [0, 2**64), got -3"),
    "code not the first row's": ("perfect5,0.05,100,9,0.09,0.0286,0",
                                 " has a bad code_id, not the first row's three"),
    "seed not the first row's": ("three,0.05,100,9,0.09,0.0286,1",
                                 " has a bad seed, not the first row's 0"),
    "trials with an underscore": ("three,0.05,1_00,9,0.09,0.0286181760425,0",
                                  ": invalid literal for int() with base 10: '1_00'"),
    "seed with a plus": ("three,0.05,100,9,0.09,0.0286181760425,+0",
                         ": invalid literal for int() with base 10: '+0'"),
    "p falling, then repeated": (
        (_GOOD_FIT_ROWS[1], _GOOD_FIT_ROWS[0], _GOOD_FIT_ROWS[0]),
        "CSV line 3 has a bad p, not above the previous row's 0.02"),
    "p repeated": ((_GOOD_FIT_ROWS[0], _GOOD_FIT_ROWS[0], _GOOD_FIT_ROWS[1]),
                   "CSV line 3 has a bad p, not above the previous row's 0.01"),
    "trials not the first row's": (
        (_GOOD_FIT_ROWS[0], "three,0.02,50,2,0.04,0.0277128129211,0",
         "three,0.05,100,9,0.09,0.0286181760425,0"),
        "CSV line 3 has a bad trials, not the first row's 100"),
    "stderr not the computed one": ("three,0.05,100,9,0.09,0.0286,0",
                                    " has a bad stderr, not 0.0286181760425 as a sweep writes it"),
    "p not as a sweep writes it": ("three,0.050,100,9,0.09,0.0286181760425,0",
                                   " has a bad p, not 0.05 as a sweep writes it"),
    "header only": ((), "CSV has no data rows"),
}


def _fit_input(rows, fragment: str) -> tuple[str, str]:
    """The CSV text of a ``_BAD_FIT_ROWS`` case, and the fragment its error holds."""
    if isinstance(rows, str):
        rows, fragment = (*_GOOD_FIT_ROWS, rows), f"CSV line 4{fragment}"
    header = "code_id,p,trials,failures,p_L,stderr,seed"
    return "".join(f"{row}\n" for row in (header, *rows)), fragment


_BAD_INPUTS.update({
    f"fit {case}": (["fit", "--in", "IN"], *_fit_input(*entry))
    for case, entry in _BAD_FIT_ROWS.items()
})


@pytest.mark.parametrize("case", list(_BAD_INPUTS))
def test_bad_input_exits_3_with_a_message_naming_it(capsys, tmp_path, case):
    argv, text, fragment = _BAD_INPUTS[case]
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(capsys, *(str(path) if arg == "IN" else arg for arg in argv))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and fragment in err, err


def test_internal_error_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_Findings", mock.Mock(side_effect=RuntimeError("boom")))
    assert run_cli(capsys, "verify") == (1, "", "internal error: boom\n")


def test_comma_triple_rot_axis_equals_named_axis(capsys):
    argv = ["mc", "--code", "perfect5", "--p", "0.01:0.1:log:3", "--trials", "500",
            "--rotations", "0.2", "--detect", "--rot-axis"]
    code, named, err = run_cli(capsys, *argv, "k")
    assert code == 0, err
    assert run_cli(capsys, *argv, "0,0,2") == (0, named, "")


@pytest.mark.parametrize("extreme, plain", [("1e200,1e200,0", "1,1,0"), ("1e-200,0,0", "i")])
def test_rot_axis_past_the_double_range_equals_its_direction(capsys, extreme, plain):
    # Squares that overflow or underflow are rescaled, not refused.
    argv = ["mc", "--code", "perfect5", "--p", "0.01:0.1:log:3", "--trials", "500",
            "--rotations", "0.2", "--rot-angle", "uniform:1.2", "--detect", "--rot-axis"]
    code, plain_out, err = run_cli(capsys, *argv, plain)
    assert code == 0, err
    assert run_cli(capsys, *argv, extreme) == (0, plain_out, "")


@pytest.mark.parametrize("out", [5, True, "", "a\x00b", "a" * 300],
                         ids=["int", "bool", "empty", "null byte", "long name"])
def test_bad_config_out_exits_3_before_any_work(monkeypatch, capsys, tmp_path, out):
    from hqec import experiments

    monkeypatch.setattr(experiments, "count_failures", mock.Mock(side_effect=AssertionError))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps({"code": "three", "p": "0.05:0.2:log:3",
                                                   "trials": 5, "out": out}))
    code, stdout, err = run_cli(capsys, "mc", "--config", "run.json")
    assert code == 3, err
    assert stdout == ""
    assert "out" in err
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


_OUT_COMMANDS = [
    ["bell"],
    ["verify"],
    ["audit"],
    ["audit", "--format", "json"],
    ["syndrome-table", "--code", "three"],
    ["syndrome-table", "--code", "paper5", "--format", "text"],
    ["mc", "--code", "three", "--p", "0.05:0.2:log:3", "--trials", "5"],
    ["fit", "--in", "IN"],
    ["figure1", "--trials", "5"],
    ["report"],
]


@pytest.mark.parametrize("argv", _OUT_COMMANDS, ids=" ".join)
def test_unwritable_output_exits_3_before_any_work(monkeypatch, capsys, tmp_path, argv):
    calls = []

    def no_work(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} ran")
        return record

    from hqec import experiments

    monkeypatch.setattr(experiments, "count_failures", no_work("engine"))
    monkeypatch.setattr(cli, "_Findings", no_work("findings"))
    monkeypatch.setattr(cli, "build_syndrome_table", no_work("syndrome table"))
    monkeypatch.setattr(experiments, "fit_threshold", no_work("fit"))
    sweep = tmp_path / "sweep.csv"
    sweep.write_text("code_id,p,trials,failures,p_L,stderr,seed\nthree,0.1,10,1,0.1,0.09,0\n")
    argv = [str(sweep) if arg == "IN" else arg for arg in argv]
    # an output path that is a directory (figure1 writes <prefix>.csv)
    taken = tmp_path / ("taken.csv" if argv[0] == "figure1" else "taken")
    taken.mkdir()
    for out in (tmp_path / "missing" / "x", tmp_path / "taken"):
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 3, err
        assert "output" in err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["sweep.csv", taken.name])


def test_output_files_are_replaced_whole(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    out.write_text("stale\n" * 1000)
    argv = ["mc", "--code", "three", "--p", "0.05:0.2:log:3", "--trials", "50"]
    code, _, _ = run_cli(capsys, *argv, "--out", str(out))
    assert code == 0
    code, stdout, _ = run_cli(capsys, *argv)
    assert out.read_text() == stdout
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_figure1_writes_files(tmp_path, capsys):
    prefix = tmp_path / "fig"
    code, out, _ = run_cli(
        capsys, "figure1", "--out", str(prefix), "--p", "0.005:0.02:log:3",
        "--trials", "400", "--seed", "6"
    )
    assert code == 0
    csv_text = (tmp_path / "fig.csv").read_text()
    assert csv_text.splitlines()[0].startswith("pipeline,code_id,p,")
    fits = json.loads((tmp_path / "fig_fit.json").read_text())
    assert fits["targets"]["quaternionic"]["p_th"] == 0.015
    assert fits["targets"]["standard"]["exponent"] == 2.0


# Frozen SHA-256 digests of the `hqec figure1` CSV and fit JSON (both
# pipelines, rotation and Pauli channels, fitted slopes); any change to
# sampling, decoding, scoring or the fit moves them.  The "defaults" run
# leaves every sweep flag at its figure1 default and adds the model rows.
_FIGURE1_GOLDEN_SHA256 = {
    "small": (
        "d8d56df7a05e399bdee88752c564bcc38c6cbec0c51c4222265776001723894b",
        "d18b205d527d0464b94d604af8dadbd74bfcdbc0404ef2329fc8521b2f00b847",
    ),
    "defaults": (
        "432d47c3b583606140d272ea432a3daa143d5e689b23ca16aa713d65f700c463",
        "8b699d702f24c262dbf7af12ca604b14281c2b1ee02c0d3ec1a5887e4e45da0a",
    ),
}
_FIGURE1_GOLDEN_FLAGS = {
    "small": ("--p", "0.005:0.05:log:4", "--trials", "600", "--seed", "5",
              "--rotations", "0.1"),
    "defaults": ("--include-model",),
}


@pytest.mark.parametrize(("run", "threads"), [
    pytest.param("small", "1", id="1"),
    pytest.param("small", "2", id="2"),
    pytest.param("defaults", "1", id="defaults-1"),
    pytest.param("defaults", "2", id="defaults-2"),
])
def test_figure1_golden_bytes(tmp_path, capsys, monkeypatch, run, threads):
    monkeypatch.setenv("HQEC_THREADS", threads)
    code, _, _ = run_cli(
        capsys, "figure1", "--out", str(tmp_path / "fig"), *_FIGURE1_GOLDEN_FLAGS[run]
    )
    assert code == 0
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("fig.csv", "fig_fit.json")
    )
    assert digests == _FIGURE1_GOLDEN_SHA256[run]


def test_tiny_trial_counts_and_certain_failure(tmp_path, capsys):
    # One trial per point: no failures anywhere, so neither pipeline can be fit.
    code, _, _ = run_cli(capsys, "figure1", "--out", str(tmp_path / "fig"), "--trials", "1")
    assert code == 0
    rows = (tmp_path / "fig.csv").read_text().splitlines()[1:]
    assert len(rows) == 16
    assert all(row.split(",")[3:7] == ["1", "0", "0", "0"] for row in rows)
    fits = json.loads((tmp_path / "fig_fit.json").read_text())
    assert (fits["standard"], fits["quaternionic"]) == (None, None)
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("fig.csv", "fig_fit.json")
    )
    assert digests == (
        "d9c7df9ddb6b3b01bd5b131ea7397cf75de65d62d068643727cb4038e106b9b0",
        "d0513af40821df49af75dbdcf3571668603c20dce681449fe8b8d2f3a25da37a",
    )
    # At p >= 0.9 every trial of the three-qubit code fails: p_L = 1, stderr 0.
    code, out, _ = run_cli(capsys, "mc", "--code", "three", "--p", "0.9:0.99:lin:2",
                           "--trials", "3")
    assert code == 0
    assert out == ("code_id,p,trials,failures,p_L,stderr,seed\n"
                   "three,0.9,3,3,1,0,0\nthree,0.99,3,3,1,0,0\n")


def test_a_one_point_p_range_sweeps_its_start(capsys):
    code, out, _ = run_cli(capsys, "mc", "--code", "three", "--p", "0.05:0.2:log:1",
                           "--trials", "100")
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "code_id,p,trials,failures,p_L,stderr,seed"
    assert len(rows) == 1 and rows[0].startswith("three,0.05,100,")


def test_figure1_at_one_p_fits_neither_pipeline(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "figure1", "--out", str(tmp_path / "fig"),
                         "--p", "0.01:0.01:log:1")
    assert code == 0
    assert len((tmp_path / "fig.csv").read_text().splitlines()) == 3
    fits = json.loads((tmp_path / "fig_fit.json").read_text())
    assert (fits["standard"], fits["quaternionic"]) == (None, None)


def test_report_runs(capsys):
    code, out, _ = run_cli(capsys, "report")
    assert code == 0
    assert "mismatch count: 9 of 15 rows" in out
    assert "mapping table-implied: 4/6" in out
    assert "mapping prose: 2/6" in out
    assert "non-linear" in out


def test_audit_json_embeds_matrices(capsys):
    code, out, _ = run_cli(capsys, "audit", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    h = payload["gates"]["H"]["matrix"]
    assert set(h) == {"rows", "cols", "entries"}
    assert h["rows"] == 2 and h["cols"] == 2
    assert h["entries"][1] == pytest.approx([0.0, 1 / math.sqrt(2), 0.0, 0.0])
    assert payload["gates"]["CNOT"]["matrix"]["entries"][11] == [0.0, 0.0, 1.0, 0.0]  # (2,3)=j
    assert payload["gates"]["H"]["unitary"] is False
    assert payload["table2"]["mismatch_count"] == 9
    assert payload["codewords"] == {"three": True, "paper5": False, "perfect5": True}


# stdout SHA-256 of the audit and syndrome-table commands, recorded before the
# audit commands shared one findings build; the eight runs the benchmark
# covers equal its bench/reference/outputs.json digests.
_AUDIT_GOLDEN_SHA256 = {
    ("bell",): "8073fa16030f67677643fa89d60fce96322342556f407a87a995dcf39843a3bb",
    ("verify",): "c053c15f7aaffc69aba21ce8ebc0515b3263e4807f9628dee4064ae6b82c7cc0",
    ("report",): "5c462e54d9f3069619aa63b7c6673027b36473d9b42aeed3bc74b88d436634d4",
    ("audit",): "16be2427333fd225588c8180187b3e95c7bdf3d4a9499669ea4aa5d94f30121b",
    ("audit", "--format", "json"):
        "b1403e75869f053b5b2be22c768c309f4b1dc26f0ea1e91c40b859e9cc354212",
    ("syndrome-table", "--code", "three", "--format", "csv"):
        "687ed737ae127a922591d23bc8479bf723515f6b43d10251740d339c505e4195",
    ("syndrome-table", "--code", "three", "--format", "text"):
        "ccaf03a8133911da0bcc5bae217bf0c03ea9a66d177774a120eb5e2e34dd471d",
    ("syndrome-table", "--code", "paper5", "--format", "csv"):
        "fb9a2ca8f6ab828d311d40330fb0cf1af17c1ffe3e6907ad82dd7904ec0cc19e",
    ("syndrome-table", "--code", "paper5", "--format", "text"):
        "a5e7b29cdc27a0a3c5c53e83d850522551f864940ee58aaf69a4731358c3c93b",
    ("syndrome-table", "--code", "perfect5", "--format", "csv"):
        "e885a7127e8db8526648ec9a137890f7c1a86d76f66d2d527a5b0fd36997dcb4",
    ("syndrome-table", "--code", "perfect5", "--format", "text"):
        "349c635e967fa2fce87c7adbcc5c010a0b8f6fa99e711190571ba33e850f8251",
}


@pytest.mark.parametrize("argv", list(_AUDIT_GOLDEN_SHA256), ids=" ".join)
def test_audit_golden_bytes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _AUDIT_GOLDEN_SHA256[argv]


# name in hqec.cli -> the thing one call of it is about
_AUDIT_CALL_KEYS = {
    "get_code": lambda code_id: code_id,
    "verify_codewords": lambda code: code.code_id,
    "build_syndrome_table": lambda code, *_: code.code_id,
    "audit_against_paper": lambda table: table.code_id,
    "is_unitary": lambda m, *_: hashlib.sha256(m.components.tobytes()).hexdigest()[:12],
}


def _unitarity_calls(*gates):
    return {("is_unitary", _AUDIT_CALL_KEYS["is_unitary"](gate.matrix)) for gate in gates}


_BELL_CALLS = _unitarity_calls(hadamard_gate(), cnot_gate())
_CODE_CALLS = {
    *((name, code_id) for code_id in CODE_IDS for name in ("get_code", "verify_codewords")),
    ("build_syndrome_table", "paper5"),
    ("audit_against_paper", "paper5"),
}
_ALL_GATES = (hadamard_gate(), cnot_gate(), *map(pauli_gate, "XYZ"), t_gate(),
              *map(phased_pauli_gate, "XYZ"), identity_gate())

# command -> every (name, key) call it makes through hqec.cli: only what it prints
_AUDIT_CALLS = {
    ("bell",): _BELL_CALLS,
    ("verify",): _BELL_CALLS | _CODE_CALLS,
    ("audit",): _BELL_CALLS | _CODE_CALLS,
    ("audit", "--format", "json"): _BELL_CALLS | _CODE_CALLS,
    ("report",): _unitarity_calls(*_ALL_GATES) | _CODE_CALLS,
    # only the --code table, and the published-row audit for paper5 alone
    **{
        ("syndrome-table", "--code", code_id, "--format", fmt): {
            ("get_code", code_id), ("build_syndrome_table", code_id),
            *((("audit_against_paper", code_id),) if code_id == "paper5" else ()),
        }
        for code_id in CODE_IDS for fmt in ("csv", "text")
    },
}


@pytest.mark.parametrize("argv", list(_AUDIT_CALLS), ids=" ".join)
def test_audit_commands_compute_each_finding_once(monkeypatch, capsys, argv):
    calls = collections.Counter()

    def counted(name, key):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name, key(*args, **kwargs)] += 1
            return original(*args, **kwargs)

        return wrapper

    for name, key in _AUDIT_CALL_KEYS.items():
        monkeypatch.setattr(cli, name, counted(name, key))
    assert run_cli(capsys, *argv)[0] == 0
    # Each finding a command prints goes through the names hqec.cli imports,
    # once per code or gate, and no finding it does not print is computed.
    assert set(calls) == _AUDIT_CALLS[argv]
    assert max(calls.values()) == 1, calls


def test_audit_gates_are_keyed_by_their_names():
    assert [factory().name for factory in cli._AUDIT_GATES.values()] == list(cli._AUDIT_GATES)
    # ten distinct matrices, so the report's expected calls name every gate
    assert len(_unitarity_calls(*_ALL_GATES)) == len(cli._AUDIT_GATES) == 10
