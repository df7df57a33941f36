import itertools
import math

import numpy as np
import pytest

from hqec import quaternion as quat
from hqec.quaternion import Quaternion
from hqec.linalg import (
    HAMILTON_SIGNS,
    MulSide,
    QMatrix,
    QVector,
    adjoint,
    inner_product,
    is_unitary,
    matrix_to_dict,
    matvec,
    phase_alignment_check,
    qmul_components,
    real_norm_sq,
)
from hqec.register import (
    QRegister,
    cnot_gate,
    hadamard_gate,
    pauli_gate,
    phased_pauli_gate,
    t_gate,
)

from oracles import (
    hamilton_product,
    identity_matrix,
    matmul,
    matrix_from_dict,
    right_scalar_mul,
)

ONE, I, J, K, ZERO = quat.ONE, quat.I, quat.J, quat.K, quat.ZERO


def rand_vector(rng, dim):
    return QVector.from_components(rng.uniform(-2, 2, size=(dim, 4)))


def rand_matrix(rng, rows, cols):
    return QMatrix.from_components(rng.uniform(-2, 2, size=(rows, cols, 4)))


def test_from_components_copies_unless_handed_over():
    arr = np.random.default_rng(3).uniform(-2, 2, size=(8, 4))
    copied = QVector.from_components(arr)
    assert not np.shares_memory(copied.components, arr) and arr.flags.writeable
    assert copied.bound == np.abs(arr).max()  # adopt takes the copy, with its exact bound
    taken = QVector.adopt(arr)  # the handoff that apply_gate's result goes through
    assert np.shares_memory(taken.components, arr)
    assert not taken.components.flags.writeable
    assert taken.bound == np.abs(arr).max()  # no bound given, so the exact one is taken
    for bad in (np.inf, -np.inf, np.nan):
        for build in (QVector.adopt, QVector.from_components):
            with pytest.raises(ValueError, match="components must be finite"):
                build(np.full((2, 4), bad))


# -- inner product -----------------------------------------------------------

def test_inner_product_orthonormal_basis():
    e0 = QVector.basis(2, 0)
    e1 = QVector.basis(2, 1)
    assert inner_product(e0, e0) == ONE
    assert inner_product(e0, e1) == ZERO


def test_inner_product_example():
    phi = QVector([ONE, I])
    psi = QVector([J, ONE])
    # conj(1)*j + conj(i)*1 = j - i
    assert inner_product(phi, psi) == Quaternion(0, -1, 1, 0)


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(21)
    for _ in range(50):
        phi, psi = rand_vector(rng, 4), rand_vector(rng, 4)
        lhs = inner_product(phi, psi)
        rhs = inner_product(psi, phi).conj()
        assert lhs.isclose(rhs, tol=1e-10)


def test_inner_product_dim_mismatch():
    with pytest.raises(ValueError):
        inner_product(QVector.basis(2, 0), QVector.basis(4, 0))


# -- norms ---------------------------------------------------------------------

def test_real_norm_sq_values():
    inv = 1 / math.sqrt(2)
    psi = QVector([inv * ONE, inv * I])
    assert real_norm_sq(psi) == pytest.approx(1.0, abs=1e-12)
    assert real_norm_sq(QVector.from_components(np.zeros((3, 4)))) == 0.0
    assert real_norm_sq(QVector([Quaternion(1, 1, 0, 0), Quaternion(0, 0, 1, 1)])) == 4.0


def test_positivity():
    rng = np.random.default_rng(22)
    for _ in range(50):
        v = rand_vector(rng, 3)
        if np.any(v.components):
            assert real_norm_sq(v) > 0.0


# -- the Hamilton product ------------------------------------------------------

@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e150, 1e-12])
def test_qmul_components_equals_the_written_out_product_bit_for_bit(scale):
    rng = np.random.default_rng(31)
    shapes = [((50, 4), (50, 4)), ((3, 1, 4), (1, 5, 4)), ((4,), (7, 4)), ((2, 3, 4), (4,))]
    for shape_a, shape_b in shapes:
        a, b = rng.normal(size=shape_a) * scale, rng.normal(size=shape_b) * scale
        for arr in (a, b):
            draw = rng.random(arr.shape)
            arr[draw < 0.2] = 0.0
            arr[draw > 0.9] = -0.0
        got, want = qmul_components(a, b), hamilton_product(a, b)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_the_sign_table_gives_all_sixteen_unit_products():
    units = list(quat.UNIT_BY_NAME.values())
    for a, b in itertools.product(range(4), repeat=2):
        assert units[a] * units[b] == units[a ^ b] * float(HAMILTON_SIGNS[a, a ^ b])


# -- right scalar multiplication --------------------------------------------------

def test_right_scalar_mul_values():
    psi = QVector([ONE, ZERO])
    assert right_scalar_mul(psi, J)[0] == J
    assert right_scalar_mul(psi, ONE)[0] == ONE
    assert right_scalar_mul(QVector([I]), J)[0] == K  # i*j = k


def test_right_linearity():
    rng = np.random.default_rng(23)
    for _ in range(50):
        phi, psi = rand_vector(rng, 3), rand_vector(rng, 3)
        q = Quaternion(*rng.uniform(-2, 2, size=4))
        lhs = inner_product(phi, right_scalar_mul(psi, q))
        rhs = inner_product(phi, psi) * q
        assert math.sqrt((lhs - rhs).norm_sq()) <= 1e-10


# -- adjoint -------------------------------------------------------------------

def test_adjoint_diagonal():
    a = QMatrix([[ONE, ZERO], [ZERO, I]])
    assert Quaternion(*adjoint(a).components[1, 1]) == -I
    assert Quaternion(*adjoint(a).components[0, 0]) == ONE


def test_adjoint_involution():
    rng = np.random.default_rng(24)
    a = rand_matrix(rng, 3, 2)
    assert adjoint(adjoint(a)).isclose(a)


def test_adjoint_transposes_and_conjugates_cnot():
    c = cnot_gate().matrix
    ct = adjoint(c)
    assert Quaternion(*ct.components[3, 2]) == -J  # conj of entry (2, 3) = j
    assert Quaternion(*ct.components[2, 3]) == -K  # conj of entry (3, 2) = k


def test_adjoint_contract():
    rng = np.random.default_rng(25)
    for dim in (2, 4, 8):
        a = rand_matrix(rng, dim, dim)
        phi, psi = rand_vector(rng, dim), rand_vector(rng, dim)
        lhs = inner_product(phi, matvec(a, psi, MulSide.LEFT))
        rhs = inner_product(matvec(adjoint(a), phi, MulSide.LEFT), psi)
        assert math.sqrt((lhs - rhs).norm_sq()) <= 1e-10


# -- matvec -------------------------------------------------------------------

def test_matvec_hadamard_worked_example():
    rng = np.random.default_rng(26)
    inv = 1 / math.sqrt(2)
    for _ in range(20):
        w, x, y, z = rng.uniform(-1, 1, size=4)
        psi = QVector([Quaternion(w), Quaternion(0, x, y, z)])
        out = matvec(hadamard_gate().matrix, psi, MulSide.LEFT)
        alpha = Quaternion(inv * (w - x), 0, -inv * z, inv * y)
        beta = Quaternion(0, inv * (w - x), -inv * y, -inv * z)
        assert out[0].isclose(alpha, tol=1e-12)
        assert out[1].isclose(beta, tol=1e-12)


def test_matvec_identity_both_sides():
    rng = np.random.default_rng(27)
    psi = rand_vector(rng, 4)
    eye = identity_matrix(4)
    assert matvec(eye, psi, MulSide.LEFT).isclose(psi)
    assert matvec(eye, psi, MulSide.RIGHT).isclose(psi)


def test_matvec_cnot_right_worked_example():
    rng = np.random.default_rng(28)
    w, x, y, z = rng.uniform(-1, 1, size=4)
    psi = QVector([Quaternion(w), ZERO, Quaternion(0, x, y, z), ZERO])
    out = matvec(cnot_gate().matrix, psi, MulSide.RIGHT)
    assert out[0].isclose(Quaternion(w), tol=1e-12)
    # (xi + yj + zk) * k = yi - xj - z
    assert out[3].isclose(Quaternion(-z, y, -x, 0), tol=1e-12)


def test_matvec_side_distinction_witness():
    m = QMatrix([[K]])
    psi = QVector([I])
    assert matvec(m, psi, MulSide.LEFT)[0] == J  # k*i = j
    assert matvec(m, psi, MulSide.RIGHT)[0] == -J  # i*k = -j


def test_matvec_shape_mismatch():
    with pytest.raises(ValueError):
        matvec(identity_matrix(2), QVector.basis(4, 0), MulSide.LEFT)


def test_matvec_overflow_raises_not_finite():
    a = QMatrix.from_components(np.full((2, 2, 4), 1e300))
    psi = QVector.from_components(np.full((2, 4), 1e300))
    # Whether the product warns depends on numpy's build; the error must not.
    with np.errstate(over="ignore", invalid="ignore"):
        for side in MulSide:
            with pytest.raises(ValueError, match="components must be finite"):
                matvec(a, psi, side)


def test_reprs_name_the_shape():
    assert repr(QVector.basis(4, 1)) == "QVector(dim=4)"
    assert repr(QMatrix([[ONE, ZERO]])) == "QMatrix(shape=(1, 2))"
    assert repr(QRegister.computational(3, 0)) == "QRegister(n=3)"


def test_matvec_result_carries_its_exact_bound():
    out = matvec(QMatrix([[I, J], [ONE, K]]), QVector([ONE, 2 * ONE]), MulSide.LEFT)
    assert out.bound == 2.0


# -- unitarity ------------------------------------------------------------------

def test_is_unitary_cnot_passes():
    report = is_unitary(cnot_gate().matrix, tol=1e-12)
    assert report.passed
    assert report.max_deviation <= 1e-12


def test_is_unitary_identity():
    assert is_unitary(identity_matrix(3)).passed


def test_is_unitary_hadamard_fails_with_unit_deviation():
    report = is_unitary(hadamard_gate().matrix, tol=1e-12)
    assert not report.passed
    assert report.max_deviation == pytest.approx(1.0, abs=1e-12)
    assert report.worst_entry == (0, 1)
    # the offending product entry is -i
    product = matmul(hadamard_gate().matrix, adjoint(hadamard_gate().matrix))
    assert Quaternion(*product.components[0, 1]).isclose(-I, tol=1e-12)


def test_is_unitary_requires_square():
    with pytest.raises(ValueError):
        is_unitary(QMatrix.from_components(np.zeros((2, 3, 4))))


def test_is_unitary_equals_the_matmul_adjoint_reference_bit_for_bit():
    rng = np.random.default_rng(16)
    matrices = [g().matrix for g in (cnot_gate, hadamard_gate, t_gate)]
    matrices += [rand_matrix(rng, n, n) for n in rng.integers(1, 9, size=300)]
    for u in matrices:
        delta = matmul(u, adjoint(u)).components - identity_matrix(u.rows).components
        norms = np.sqrt(np.sum(delta * delta, axis=-1))
        worst = np.unravel_index(np.argmax(norms), norms.shape)
        report = is_unitary(u)
        assert report.max_deviation == float(norms[worst])
        assert report.worst_entry == tuple(map(int, worst))


def _audit_gates():
    """The ten gates the audit commands check, from their public factories."""
    return [
        hadamard_gate(), cnot_gate(), *(pauli_gate(letter) for letter in "XYZ"), t_gate(),
        *(phased_pauli_gate(letter) for letter in "XYZ"), pauli_gate("I"),
    ]


def _reference_unitarity(u):
    """Largest deviation of the written-out ``U * U+`` from I, and its entry."""
    delta = matmul(u, adjoint(u)).components - identity_matrix(u.rows).components
    norms = np.sqrt(np.sum(delta * delta, axis=-1))
    worst = np.unravel_index(np.argmax(norms), norms.shape)
    return float(norms[worst]), tuple(map(int, worst))


def _sparse_unit_matrix(rng, n):
    """An ``n x n`` matrix of signed units and zeros; every zero component has a random sign."""
    arr = rng.choice(np.array([0.0, -0.0]), size=(n, n, 4))
    rows, cols = np.nonzero(rng.random((n, n)) < 0.5)
    arr[rows, cols, rng.integers(4, size=rows.size)] = rng.choice([1.0, -1.0], size=rows.size)
    return QMatrix.from_components(arr)


def test_is_unitary_equals_the_reference_on_gates_tiny_and_sparse_unit_matrices():
    rng = np.random.default_rng(22)
    matrices = [gate.matrix for gate in _audit_gates()]
    matrices += [rand_matrix(rng, 1, 1) for _ in range(50)]
    matrices += [_sparse_unit_matrix(rng, n) for n in rng.integers(1, 7, size=300)]
    for u in matrices:
        report = is_unitary(u)
        max_dev, worst = _reference_unitarity(u)
        assert repr(report.max_deviation) == repr(max_dev)
        assert report.worst_entry == worst


def test_is_unitary_pins_the_audit_gates_deviation_and_worst_entry():
    unitary = ("CNOT", "X", "Y", "Z", "T", "iX", "jY", "kZ", "I")
    expected = {name: ("0.0", (0, 0)) for name in unitary}
    expected["H"] = ("0.9999999999999998", (0, 1))
    pinned = {}
    for gate in _audit_gates():
        report = is_unitary(gate.matrix)
        pinned[gate.name] = (repr(report.max_deviation), report.worst_entry)
        assert report.passed == (gate.name != "H"), gate.name
    assert pinned == expected


# -- phase alignment ---------------------------------------------------------------

def test_phase_alignment():
    assert phase_alignment_check(t_gate().matrix)
    assert phase_alignment_check(identity_matrix(2))
    assert not phase_alignment_check(cnot_gate().matrix)


# -- serialization ----------------------------------------------------------------

def test_matrix_dict_roundtrip():
    m = cnot_gate().matrix
    data = matrix_to_dict(m)
    assert data["rows"] == 4 and data["cols"] == 4
    assert len(data["entries"]) == 16
    assert matrix_from_dict(data).isclose(m)
