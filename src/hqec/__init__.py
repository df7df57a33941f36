"""hqec: a quaternion-amplitude stabilizer-code laboratory.

Quaternion arithmetic, right-module Hilbert-space linear algebra, an
n-qubit state-vector simulator with side-explicit gates, stabilizer codes
with commutation syndromes and published-table audits, rotation-error
noise channels, and seeded Monte Carlo threshold experiments.

Each exported name, and each submodule, is imported on first access
(PEP 562), so ``import hqec`` loads nothing else and ``from hqec import
cli`` loads only what the command line needs.
"""

import importlib

_SUBMODULES = ("quaternion", "linalg", "register", "codes", "noise", "experiments", "cli")

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "I", "I_AXIS", "J", "J_AXIS", "K", "K_AXIS", "ONE", "TOLERANCE", "ZERO",
        "ImaginaryAxis", "Quaternion", "exp_axis", "format_quaternion", "parse_quaternion",
    ), "quaternion"),
    **dict.fromkeys((
        "MulSide", "QMatrix", "QVector", "UnitarityReport", "adjoint", "inner_product",
        "is_unitary", "matvec", "phase_alignment_check", "real_norm_sq",
    ), "linalg"),
    **dict.fromkeys((
        "Gate", "QRegister", "apply_gate", "bell_prepare", "cnot_gate", "hadamard_gate",
        "pauli_gate", "phased_pauli_gate", "substitute_units", "t_gate",
    ), "register"),
    **dict.fromkeys((
        "AuditReport", "CodewordReport", "DecodeOutcome", "PauliString", "StabilizerCode",
        "Syndrome", "SyndromeTable", "audit_against_paper", "build_syndrome_table",
        "codeword_action_table", "commute_sign", "decode", "get_code", "hqubit_expand",
        "paper_five_qubit_code", "standard_perfect_code", "syndrome_of", "three_qubit_code",
        "verify_codewords",
    ), "codes"),
    **dict.fromkeys((
        "AngleDistribution", "ErrorEvent", "NoiseModel", "RotationError", "apply_event",
        "correct_rotation", "detect_rotations", "sample_error",
    ), "noise"),
    **dict.fromkeys((
        "FitResult", "SweepConfig", "SweepResult", "closed_form_three_qubit", "figure1_data",
        "fit_threshold", "run_sweep", "scaling_model", "suppression_factor",
    ), "experiments"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
