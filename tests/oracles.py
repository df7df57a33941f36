"""Slow reference implementations that tests compare the library against.

Each one takes the plain route to its answer (a dense product, an exact
eigenvalue read off a state) rather than the library's fast path, so a
test that sets the two side by side checks the library independently.
"""

import numpy as np

from hqec import quaternion as quat
from hqec.linalg import QMatrix, QVector, left_mul_matrix, qmul_components
from hqec.register import QRegister
from hqec.codes import PauliString, StabilizerCode, Syndrome, apply_pauli


def left_scalar_mul(reg: QRegister, q: quat.Quaternion) -> QRegister:
    """Every amplitude times ``q`` on the left."""
    return QRegister.from_components(reg.n, reg.amps.components @ left_mul_matrix(q).T)


def right_scalar_mul(psi: QVector, q: quat.Quaternion) -> QVector:
    """Every amplitude times ``q`` on the right: ``psi_n -> psi_n * q``."""
    return QVector.from_components(qmul_components(psi.components, np.array(q.as_tuple())))


def matrix_from_dict(data: dict) -> QMatrix:
    """The matrix that ``linalg.matrix_to_dict`` wrote out."""
    entries = np.asarray(data["entries"], dtype=float)
    return QMatrix.from_components(entries.reshape(data["rows"], data["cols"], 4))


def measure_stabilizer_eigenvalue(
    reg: QRegister, s: PauliString, tol: float = quat.TOLERANCE
) -> int:
    """Exact +-1 eigenvalue of ``s`` on ``reg``; raises if ``reg`` is not an eigenstate."""
    moved = apply_pauli(s, reg)
    if moved.amps.isclose(reg.amps, tol):
        return 1
    negated = QVector.from_components(-moved.amps.components)
    if negated.isclose(reg.amps, tol):
        return -1
    raise ValueError(f"register is not a +-1 eigenstate of {s.word()}")


def state_based_syndrome(e: PauliString, code: StabilizerCode, codeword: int = 0) -> Syndrome:
    """Syndrome measured on a damaged codeword instead of via commutation.

    Applies ``e`` to the chosen codeword and reads each generator's exact
    eigenvalue.  Valid only for codes whose codewords the generators fix,
    which is what makes it an independent check of ``codes.syndrome_of``.
    """
    cw = code.codeword_zero if codeword == 0 else code.codeword_one
    damaged = apply_pauli(e, cw)
    return Syndrome(tuple(measure_stabilizer_eigenvalue(damaged, g) for g in code.generators))
