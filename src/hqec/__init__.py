"""hqec: a quaternion-amplitude stabilizer-code laboratory.

Quaternion arithmetic, right-module Hilbert-space linear algebra, an
n-qubit state-vector simulator with side-explicit gates, stabilizer codes
with commutation syndromes and published-table audits, rotation-error
noise channels, and seeded Monte Carlo threshold experiments.
"""

from .quaternion import (
    I,
    I_AXIS,
    J,
    J_AXIS,
    K,
    K_AXIS,
    ONE,
    TOLERANCE,
    ZERO,
    ImaginaryAxis,
    Quaternion,
    exp_axis,
    format_quaternion,
    parse_quaternion,
)
from .linalg import (
    MulSide,
    QMatrix,
    QVector,
    UnitarityReport,
    adjoint,
    inner_product,
    is_unitary,
    matvec,
    phase_alignment_check,
    real_norm_sq,
)
from .register import (
    Gate,
    QRegister,
    apply_gate,
    bell_prepare,
    cnot_gate,
    hadamard_gate,
    pauli_gate,
    phased_pauli_gate,
    substitute_units,
    t_gate,
)
from .codes import (
    AuditReport,
    CodewordReport,
    DecodeOutcome,
    PauliString,
    StabilizerCode,
    Syndrome,
    SyndromeTable,
    audit_against_paper,
    build_syndrome_table,
    codeword_action_table,
    commute_sign,
    decode,
    get_code,
    hqubit_expand,
    paper_five_qubit_code,
    standard_perfect_code,
    syndrome_of,
    three_qubit_code,
    verify_codewords,
)
from .noise import (
    AngleDistribution,
    ErrorEvent,
    NoiseModel,
    RotationError,
    apply_event,
    correct_rotation,
    detect_rotations,
    sample_error,
)
from .experiments import (
    FitResult,
    SweepConfig,
    SweepResult,
    closed_form_three_qubit,
    figure1_data,
    fit_threshold,
    run_sweep,
    run_trial,
    scaling_model,
    suppression_factor,
)

__version__ = "0.1.0"
