"""Quaternion-amplitude linear algebra.

Vectors and matrices store their entries as ``(..., 4)`` float arrays in
``(w, x, y, z)`` component order.  Because quaternion multiplication is
non-commutative, a matrix entry can multiply an amplitude from the left
or from the right; :class:`MulSide` makes that choice explicit and
:func:`matvec` implements both conventions.

The inner product is right-linear: ``<phi|psi * q> == <phi|psi> * q``.
Norms are real, taken from the scalar part of ``<psi|psi>``.

``HAMILTON_INDEX`` and ``HAMILTON_SIGNS`` are the one array definition of
the Hamilton product: :func:`qmul_components`, :func:`left_mul_matrix`,
:func:`is_unitary` and the codeword checks in ``hqec.codes`` all read it.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .quaternion import TOLERANCE, Quaternion

_LARGEST = sys.float_info.max
_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])
# The one array definition of the Hamilton product: component t of a * b is the
# sum over u = 0..3, in order, of a[u] * b[t ^ u] * HAMILTON_SIGNS[u, t], and
# HAMILTON_INDEX[u, t] is t ^ u.  So units a and b multiply to unit a ^ b
# with sign HAMILTON_SIGNS[a, a ^ b].
HAMILTON_INDEX = np.arange(4) ^ np.arange(4)[:, None]
HAMILTON_SIGNS = np.array([[1, 1, 1, 1], [-1, 1, -1, 1], [-1, 1, 1, -1], [-1, -1, 1, 1]], float)


def qmul_components(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcasted Hamilton product of ``(..., 4)`` component arrays."""
    terms = a[..., :, None] * b[..., HAMILTON_INDEX] * HAMILTON_SIGNS
    return terms[..., 0, :] + terms[..., 1, :] + terms[..., 2, :] + terms[..., 3, :]


def qconj_components(a: np.ndarray) -> np.ndarray:
    return a * _CONJ_SIGNS


def left_mul_matrix(q: Quaternion) -> np.ndarray:
    """4x4 real matrix L with ``L @ v == components of q * v``; ``L[t, t ^ u]`` is signed q[u]."""
    terms = HAMILTON_SIGNS * np.array(q.as_tuple())[:, None]
    return terms[HAMILTON_INDEX, np.arange(4)[:, None]]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def _validate_components(arr: np.ndarray, expected_ndim: int) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != expected_ndim or arr.shape[-1] != 4:
        raise ValueError(f"expected shape (..., 4) with ndim {expected_ndim}, got {arr.shape}")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError("components must be finite")
    return arr


class QVector:
    """Dense quaternion-amplitude vector.

    :attr:`bound` is an upper bound on its largest absolute component: 1.0
    for a basis vector, exact where :meth:`adopt` scans the array, and
    ``inf`` where it is unknown.
    """

    __slots__ = ("_c", "_bound")

    def __init__(self, amps: Iterable[Quaternion]):
        rows = [q.as_tuple() for q in amps]
        if not rows:
            raise ValueError("vector must have at least one amplitude")
        self._c = _freeze(np.array(rows))
        self._bound = math.inf

    @classmethod
    def from_components(cls, arr: np.ndarray) -> "QVector":
        """Vector of a copy of a ``(dim, 4)`` component array, which must be finite."""
        arr = _validate_components(arr, 2)
        if arr.shape[0] < 1:
            raise ValueError("vector must have at least one amplitude")
        return cls._wrap(arr.copy())

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "QVector":
        v = object.__new__(cls)
        v._c, v._bound = _freeze(arr), math.inf
        return v

    @classmethod
    def adopt(cls, arr: np.ndarray, bound: float = math.inf) -> "QVector":
        """Vector that takes over a new C-contiguous float64 ``(dim, 4)`` ``arr``.

        ``bound`` must be an upper bound on the largest absolute component.
        One at most the largest double proves ``arr`` finite, so it is kept
        and nothing is scanned.  Otherwise ``arr.max()`` and ``arr.min()``,
        which allocate nothing and return NaN or inf if any component is one,
        give the exact bound, and a non-finite one raises ``ValueError``.
        """
        if not bound <= _LARGEST:  # also true for a NaN bound
            high, low = arr.max(), arr.min()
            if not (high <= _LARGEST and -low <= _LARGEST):
                raise ValueError("components must be finite")
            bound = float(max(high, -low))
        arr.setflags(write=False)
        v = object.__new__(cls)
        v._c, v._bound = arr, bound
        return v

    @classmethod
    def basis(cls, dim: int, index: int) -> "QVector":
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for dim {dim}")
        arr = np.zeros((dim, 4))
        arr[index, 0] = 1.0
        return cls.adopt(arr, 1.0)

    @property
    def dim(self) -> int:
        return self._c.shape[0]

    @property
    def components(self) -> np.ndarray:
        """Read-only ``(dim, 4)`` component array."""
        return self._c

    @property
    def bound(self) -> float:
        """Upper bound on the largest absolute component; ``inf`` if unknown."""
        return self._bound

    def __len__(self) -> int:
        return self.dim

    def __getitem__(self, index: int) -> Quaternion:
        w, x, y, z = self._c[index]
        return Quaternion(w, x, y, z)

    def __iter__(self):
        for row in self._c:
            yield Quaternion(*row)

    def isclose(self, other: "QVector", tol: float = TOLERANCE) -> bool:
        return self.dim == other.dim and bool(np.all(np.abs(self._c - other._c) <= tol))

    def __repr__(self) -> str:
        return f"QVector(dim={self.dim})"


class QMatrix:
    """Dense quaternion-entry matrix, row-major."""

    __slots__ = ("_c",)

    def __init__(self, rows: Sequence[Sequence[Quaternion]]):
        data = [[q.as_tuple() for q in row] for row in rows]
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        if any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        self._c = _freeze(np.array(data))

    @classmethod
    def from_components(cls, arr: np.ndarray) -> "QMatrix":
        arr = _validate_components(arr, 3)
        return cls._wrap(arr.copy())

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "QMatrix":
        m = object.__new__(cls)
        m._c = _freeze(arr)
        return m

    @property
    def rows(self) -> int:
        return self._c.shape[0]

    @property
    def cols(self) -> int:
        return self._c.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def components(self) -> np.ndarray:
        """Read-only ``(rows, cols, 4)`` component array."""
        return self._c

    def isclose(self, other: "QMatrix", tol: float = TOLERANCE) -> bool:
        return self.shape == other.shape and bool(np.all(np.abs(self._c - other._c) <= tol))

    def __repr__(self) -> str:
        return f"QMatrix(shape={self.shape})"


class MulSide(enum.Enum):
    """Which side a matrix entry multiplies an amplitude on."""

    LEFT = "left"
    RIGHT = "right"


def inner_product(phi: QVector, psi: QVector) -> Quaternion:
    """Quaternion-valued inner product ``sum_n conj(phi_n) * psi_n``.

    Conjugate-symmetric: ``inner_product(phi, psi) == conj(inner_product(psi, phi))``.
    """
    if phi.dim != psi.dim:
        raise ValueError(f"dimension mismatch: {phi.dim} vs {psi.dim}")
    total = qmul_components(qconj_components(phi.components), psi.components).sum(axis=0)
    return Quaternion(*total)


def real_norm_sq(psi: QVector) -> float:
    """Real squared norm: the scalar part of ``<psi|psi>``, i.e. the component sum of squares."""
    return float(np.sum(psi.components * psi.components))


def adjoint(a: QMatrix) -> QMatrix:
    """Conjugate transpose: entry ``(r, c)`` becomes ``conj(entry(c, r))``."""
    return QMatrix._wrap(qconj_components(np.swapaxes(a.components, 0, 1)))


def entry_products(entries: np.ndarray, amps: np.ndarray, side: MulSide) -> np.ndarray:
    """Broadcast products of entry and amplitude components on ``side``.

    LEFT gives ``entry * amp`` and RIGHT gives ``amp * entry``; any other
    ``side`` raises ``ValueError``.
    """
    if side is MulSide.LEFT:
        return qmul_components(entries, amps)
    if side is MulSide.RIGHT:
        return qmul_components(amps, entries)
    raise ValueError(f"side must be a MulSide, got {side!r}")


def matvec(a: QMatrix, psi: QVector, side: MulSide) -> QVector:
    """Apply a matrix to a vector with an explicit entry-multiplication side.

    LEFT:  ``out_r = sum_c entry(r, c) * psi_c``
    RIGHT: ``out_r = sum_c psi_c * entry(r, c)``
    """
    if a.cols != psi.dim:
        raise ValueError(f"shape mismatch: matrix cols {a.cols} vs vector dim {psi.dim}")
    prod = entry_products(a.components, psi.components[None, :, :], side)
    return QVector.adopt(prod.sum(axis=1))


@dataclass(frozen=True)
class UnitarityReport:
    """Result of checking ``U @ adjoint(U) == I`` entrywise."""

    passed: bool
    max_deviation: float
    worst_entry: tuple[int, int]


def is_unitary(u: QMatrix, tol: float = TOLERANCE) -> UnitarityReport:
    """Check ``U * U+ == I`` (left entry-multiplication throughout).

    The report carries the largest entrywise quaternion-norm deviation
    from the identity and the offending entry index.  The residual equals
    :func:`qmul_components` summed over k bit for bit: term ``[u, r, k, c, t]``
    is ``U[r, k, u]`` times the adjoint's signed component ``t ^ u`` at
    ``(k, c)``, and the terms are added over u in that order, then over k.
    """
    if u.rows != u.cols:
        raise ValueError(f"unitarity check needs a square matrix, got {u.shape}")
    signed = adjoint(u).components[:, :, HAMILTON_INDEX] * HAMILTON_SIGNS
    # C order keeps each term contiguous, so the k sum runs in row order.
    left = u.components.transpose(2, 0, 1)[:, :, :, None, None]
    terms = np.multiply(left, signed.transpose(2, 0, 1, 3)[:, None], order="C")
    delta = (terms[0] + terms[1] + terms[2] + terms[3]).sum(axis=1).reshape(-1, 4)
    delta[:: u.rows + 1, 0] -= 1.0
    norms = np.sqrt(np.add.reduce(delta * delta, axis=-1))
    worst = int(norms.argmax())
    max_dev = float(norms[worst])
    return UnitarityReport(max_dev <= tol, max_dev, divmod(worst, u.rows))


def phase_alignment_check(u: QMatrix, tol: float = TOLERANCE) -> bool:
    """True iff every entry commutes with ``i``, i.e. has no j or k component."""
    if u.rows != u.cols:
        raise ValueError(f"phase alignment check needs a square matrix, got {u.shape}")
    return bool(np.max(np.abs(u.components[..., 2:4]), initial=0.0) <= tol)


# -- JSON-friendly serialization ----------------------------------------

def matrix_to_dict(a: QMatrix) -> dict:
    """``{"rows": r, "cols": c, "entries": [[w, x, y, z], ...]}`` row-major."""
    return {
        "rows": a.rows,
        "cols": a.cols,
        "entries": [[float(v) for v in entry] for entry in a.components.reshape(-1, 4)],
    }
