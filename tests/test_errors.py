"""Each refused input raises its exception type with its own message."""

import dataclasses
import math

import numpy as np
import pytest

from hqec.quaternion import K_AXIS, ONE, ImaginaryAxis
from hqec.linalg import MulSide, QMatrix, QVector, phase_alignment_check
from hqec.register import Gate, QRegister, pauli_gate, phased_pauli_gate
from hqec.codes import PauliString, Syndrome, apply_pauli, get_code, syndrome_of
from hqec.noise import (
    AngleDistribution, NoiseModel, RotationError, apply_rotations, detect_rotations, sample_error)
from hqec.experiments import closed_form_three_qubit

# (module and case, call, exception type, message): one case per raise
REFUSALS = [
    ("codes: empty Pauli string", lambda: PauliString(()), ValueError, "empty Pauli string"),
    ("codes: syndrome bit 0", lambda: Syndrome((1, 0)), ValueError,
     "syndrome bits must be +1 or -1, got 0"),
    ("codes: operator longer than the code",
     lambda: dataclasses.replace(get_code("three"), logical_x=PauliString.identity(4)),
     ValueError, "operator length 4 does not match n=3"),
    ("codes: codeword smaller than the code",
     lambda: dataclasses.replace(get_code("three"), codeword_zero=QRegister.computational(2, 0)),
     ValueError, "codeword register size does not match n"),
    ("codes: syndrome of a longer error",
     lambda: syndrome_of(PauliString.identity(4), get_code("three")),
     ValueError, "error length 4 does not match code n=3"),
    ("codes: Pauli string shorter than the register",
     lambda: apply_pauli(PauliString.identity(2), QRegister.computational(3, 0)),
     ValueError, "operator length 2 does not match register n=3"),
    ("linalg: three components per amplitude", lambda: QVector.from_components(np.zeros((2, 3))),
     ValueError, "expected shape (..., 4) with ndim 2, got (2, 3)"),
    ("linalg: non-finite matrix component",
     lambda: QMatrix.from_components(np.full((1, 1, 4), np.nan)),
     ValueError, "components must be finite"),
    ("linalg: empty vector from quaternions", lambda: QVector([]),
     ValueError, "vector must have at least one amplitude"),
    ("linalg: empty vector from components", lambda: QVector.from_components(np.zeros((0, 4))),
     ValueError, "vector must have at least one amplitude"),
    ("linalg: basis index past the dimension", lambda: QVector.basis(2, 2),
     ValueError, "basis index 2 out of range for dim 2"),
    ("linalg: empty matrix", lambda: QMatrix([[]]),
     ValueError, "matrix must have at least one row and one column"),
    ("linalg: ragged matrix", lambda: QMatrix([[ONE, ONE], [ONE]]), ValueError, "ragged rows"),
    ("linalg: phase alignment of a non-square matrix",
     lambda: phase_alignment_check(QMatrix([[ONE, ONE]])),
     ValueError, "phase alignment check needs a square matrix, got (1, 2)"),
    ("noise: unknown angle law", lambda: AngleDistribution("normal", 0.1),
     ValueError, "kind must be 'fixed' or 'uniform', got 'normal'"),
    ("noise: Pauli rate above 1", lambda: sample_error(NoiseModel(), 1.5, 3, 0, 0),
     ValueError, "p must be a real number in [0, 1], got 1.5"),
    ("noise: event on no qubits", lambda: sample_error(NoiseModel(), 0.1, 0, 0, 0),
     ValueError, "n must be >= 1"),
    ("noise: rotation on a qubit past the register",
     lambda: apply_rotations(QRegister.computational(2, 0), (RotationError(3, K_AXIS, 0.1),),
                             "zero"),
     ValueError, "rotation qubit 3 out of range 1..2"),
    ("noise: detection against a larger reference",
     lambda: detect_rotations(QRegister.computational(2, 0), QRegister.computational(3, 0), 0.01),
     ValueError, "register and reference sizes differ"),
    ("quaternion: non-finite axis component", lambda: ImaginaryAxis(math.nan, 0.0, 1.0),
     ValueError, "axis component x must be finite"),
    ("register: bit string with a 2", lambda: QRegister.computational(2, "12"),
     ValueError, "bad bit string '12' for 2 qubits"),
    ("register: gate matrix too small for its arity",
     lambda: Gate("G", pauli_gate("X").matrix, MulSide.LEFT, 2),
     ValueError, "gate G: arity 2 needs a 4x4 matrix, got (2, 2)"),
    ("register: Pauli gate of a bad letter", lambda: pauli_gate("W"),
     ValueError, "letter must be one of I, X, Y, Z, got 'W'"),
    ("register: phased Pauli gate of a bad letter", lambda: phased_pauli_gate("W"),
     ValueError, "letter must be one of I, X, Y, Z, got 'W'"),
    ("experiments: closed form above p = 1", lambda: closed_form_three_qubit(1.5),
     ValueError, "p must be in [0, 1], got 1.5"),
]


@pytest.mark.parametrize("call, kind, message", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_each_refused_input_raises_its_message(call, kind, message):
    with pytest.raises(kind) as raised:
        call()
    assert type(raised.value) is kind
    assert str(raised.value) == message
