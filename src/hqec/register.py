"""n-qubit quaternion-amplitude state vectors and the gate set.

Basis ordering is big-endian: qubit 1 is the leftmost label, so for two
qubits the amplitudes are ordered ``|00>, |01>, |10>, |11>``.  Qubit
indices in the public API are 1-based to match that labelling.

Each gate carries the side on which its matrix entries multiply the
amplitudes.  The quaternionic Hadamard applies on the LEFT and the
quaternionic CNOT on the RIGHT; the two conventions are genuinely
different because the entries do not commute with the amplitudes.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from . import quaternion as quat
from .quaternion import Quaternion, exp_axis, format_quaternion
from .linalg import MulSide, QMatrix, QVector, entry_products

#: Unit phase paired with each Pauli letter (identity, bit flip, combined
#: flip, phase flip -> 1, i, j, k).
UNIT_FOR_LETTER = {"I": quat.ONE, "X": quat.I, "Y": quat.J, "Z": quat.K}


class QRegister:
    """Immutable register of ``n`` qubits with quaternion amplitudes."""

    __slots__ = ("_n", "_amps")

    def __init__(self, n: int, amps: QVector):
        if n < 1:
            raise ValueError("register needs at least one qubit")
        if amps.dim != 2**n:
            raise ValueError(f"expected {2**n} amplitudes for {n} qubits, got {amps.dim}")
        self._n = n
        self._amps = amps

    @classmethod
    def computational(cls, n: int, bits: str | int) -> "QRegister":
        """Basis state, e.g. ``computational(2, "10")`` or ``computational(2, 2)``."""
        if isinstance(bits, str):
            if len(bits) != n or any(b not in "01" for b in bits):
                raise ValueError(f"bad bit string {bits!r} for {n} qubits")
            index = int(bits, 2)
        else:
            index = int(bits)
        return cls(n, QVector.basis(2**n, index))

    @classmethod
    def from_components(cls, n: int, arr: np.ndarray) -> "QRegister":
        return cls(n, QVector.from_components(arr))

    @property
    def n(self) -> int:
        return self._n

    @property
    def dim(self) -> int:
        return 2**self._n

    @property
    def amps(self) -> QVector:
        return self._amps

    def isclose(self, other: "QRegister", tol: float = quat.TOLERANCE) -> bool:
        return self._n == other._n and self._amps.isclose(other._amps, tol)

    def nonzero_terms(self, tol: float = quat.TOLERANCE) -> list[tuple[str, Quaternion]]:
        terms = []
        for index, amp in enumerate(self._amps):
            if amp.norm_sq() > tol:
                terms.append((format(index, f"0{self._n}b"), amp))
        return terms

    def render(self, digits: int = 12) -> str:
        """Text like ``(0.707...+0i+0j+0k)|00> + (0-0i-0.707...j+0k)|11>``."""
        terms = [
            f"({format_quaternion(amp, digits)})|{bits}>"
            for bits, amp in self.nonzero_terms()
        ]
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"QRegister(n={self._n})"


@dataclass(frozen=True)
class Gate:
    """Named gate matrix with its entry-multiplication side."""

    name: str
    matrix: QMatrix
    side: MulSide
    arity: int

    def __post_init__(self) -> None:
        dim = 2**self.arity
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"gate {self.name}: arity {self.arity} needs a {dim}x{dim} matrix, "
                f"got {self.matrix.shape}"
            )

    @functools.cached_property
    def operator(self) -> np.ndarray:
        """Read-only real ``(4*2**arity)``-square matrix of the gate.

        Row ``4*c + s``, column ``4*r + t`` holds component ``t`` of
        ``entry(r, c)`` times the unit ``s`` on the gate's side.  Built on
        first use; a side that is not a :class:`MulSide` raises and caches
        nothing.
        """
        units = np.eye(4)[None, None]
        products = entry_products(self.matrix.components[:, :, None, :], units, self.side)
        size = 4 << self.arity
        op = products.transpose(1, 2, 0, 3).reshape(size, size)
        op.flags.writeable = False
        return op

    @functools.cached_property
    def gain(self) -> float:
        """Largest column abs-sum of :attr:`operator`, correctly rounded.

        No component of ``row @ operator`` exceeds ``gain`` times the row's
        largest absolute component in exact arithmetic.
        """
        return max(map(math.fsum, np.abs(self.operator).T.tolist()))


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@functools.cache
def hadamard_gate() -> Gate:
    """Quaternionic Hadamard ``(1/sqrt2) [[1, i], [i, -1]]``, applied on the LEFT.

    As printed this matrix is not unitary; :func:`gate_audit` surfaces the
    failure rather than substituting a corrected matrix.
    """
    m = QMatrix(
        [
            [_INV_SQRT2 * quat.ONE, _INV_SQRT2 * quat.I],
            [_INV_SQRT2 * quat.I, -_INV_SQRT2 * quat.ONE],
        ]
    )
    return Gate("H", m, MulSide.LEFT, 1)


@functools.cache
def cnot_gate() -> Gate:
    """Quaternionic CNOT with unit entries ``1, i, j, k``, applied on the RIGHT."""
    z = quat.ZERO
    m = QMatrix(
        [
            [quat.ONE, z, z, z],
            [z, quat.I, z, z],
            [z, z, z, quat.J],
            [z, z, quat.K, z],
        ]
    )
    return Gate("CNOT", m, MulSide.RIGHT, 2)


@functools.cache
def t_gate() -> Gate:
    """Non-Clifford phase gate ``diag(1, cos(pi/4) + i sin(pi/4))``."""
    m = QMatrix([[quat.ONE, quat.ZERO], [quat.ZERO, exp_axis(quat.I_AXIS, math.pi / 4)]])
    return Gate("T", m, MulSide.LEFT, 1)


_PAULI_ROWS = {
    "I": [[quat.ONE, quat.ZERO], [quat.ZERO, quat.ONE]],
    "X": [[quat.ZERO, quat.ONE], [quat.ONE, quat.ZERO]],
    "Y": [[quat.ZERO, -quat.I], [quat.I, quat.ZERO]],
    "Z": [[quat.ONE, quat.ZERO], [quat.ZERO, -quat.ONE]],
}


def pauli_gate(letter: str) -> Gate:
    if letter not in _PAULI_ROWS:
        raise ValueError(f"letter must be one of I, X, Y, Z, got {letter!r}")
    return Gate(letter, QMatrix(_PAULI_ROWS[letter]), MulSide.LEFT, 1)


def phased_pauli_gate(letter: str) -> Gate:
    """Pauli letter premultiplied by its paired unit: ``iX``, ``jY``, ``kZ``, ``I``."""
    if letter not in _PAULI_ROWS:
        raise ValueError(f"letter must be one of I, X, Y, Z, got {letter!r}")
    unit = UNIT_FOR_LETTER[letter]
    rows = [[unit * entry for entry in row] for row in _PAULI_ROWS[letter]]
    name = letter if letter == "I" else f"{quat.phase_label(unit)[1]}{letter}"
    return Gate(name, QMatrix(rows), MulSide.LEFT, 1)


def identity_gate() -> Gate:
    return pauli_gate("I")


#: Byte budget of the layout cache, oldest out first; a layout holds 16 B per row.
_LAYOUT_CACHE_BYTES = 1 << 24
#: The layout of targets that already are the last qubits, in order: no gather.
_IN_ORDER = None, None
_layouts: dict[tuple[int, tuple[int, ...]], tuple[np.ndarray, np.ndarray] | tuple[None, None]] = {}


def _layout(n: int, targets: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray] | tuple[None, None]:
    """Cached row order with the ``targets`` bits last, in order, and its inverse.

    Targets that already are the last qubits, in order, give :data:`_IN_ORDER`.
    Raises unless the targets are distinct and in ``1..n``; no exception is
    cached.  The arrays stay writeable: ``take`` copies read-only indices.
    """
    cached = _layouts.get((n, targets))
    if cached is not None:
        return cached
    if len(set(targets)) != len(targets):
        raise ValueError("targets must be distinct")
    for q in targets:
        if not 1 <= q <= n:
            raise ValueError(f"target {q} out of range 1..{n}")
    axes = [q - 1 for q in targets]
    perm = [q for q in range(n) if q not in axes] + axes
    if perm == list(range(n)):
        _layouts[n, targets] = _IN_ORDER
        return _IN_ORDER
    order = np.arange(1 << n).reshape((2,) * n).transpose(perm).ravel()
    layout = order, np.argsort(order)
    if 2 * order.nbytes <= _LAYOUT_CACHE_BYTES:
        while 2 * sum(o.nbytes for o, _ in (layout, *_layouts.values()) if o is not None) \
                > _LAYOUT_CACHE_BYTES:
            del _layouts[next(iter(_layouts))]
        _layouts[n, targets] = layout
    return layout


_EPS = sys.float_info.epsilon
_TINY = math.ulp(0.0)


def apply_gate(reg: QRegister, gate: Gate, targets: list[int] | tuple[int, ...]) -> QRegister:
    """Apply ``gate`` to 1-based ``targets`` using the gate's multiplication side.

    The amplitude rows are gathered with the target bits last, in order, so
    each ``2**arity`` rows make one row multiplied by :attr:`Gate.operator`,
    and the product's rows are gathered back; no ``2**n x 2**n`` matrix is
    built.  When the targets already are the last qubits in order, both
    gathers are skipped: the rows and the product are the same, bit for bit.
    The first target is the most significant bit of the gate's row and
    column index.  Row orders and target checks are cached per layout.

    No pass checks the result for finiteness while its bound proves it.
    With ``B`` the input's :attr:`~hqec.linalg.QVector.bound`, ``G`` the
    gate's :attr:`Gate.gain`, ``w = 4 << arity`` and ``u = eps / 2``, every
    product component and each of its partial sums is at most
    ``(1 + gamma_w) (B G + w 2**-1075)``, ``gamma_w = w u / (1 - w u)``, in
    any summation order, with or without FMA, and with gradual underflow
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3).
    ``B G (1 + w eps) + w tiny``, worked out in doubles, is above that for
    ``w >= 8``: ``G`` and the three operations each lose at most a relative
    ``u`` or an absolute ``tiny / 2``, within the margins ``(w - 4) u`` and
    ``w tiny / 2``.  While it is at most the largest double nothing
    overflows, and :meth:`~hqec.linalg.QVector.adopt` keeps it unchecked;
    otherwise ``adopt`` takes the exact bound, raising if it is not finite.
    """
    if len(targets) != gate.arity:
        raise ValueError(f"gate {gate.name} has arity {gate.arity}, got {len(targets)} targets")
    n, amps = reg.n, reg.amps
    order, back = _layout(n, tuple(map(operator.index, targets)))
    width = 4 << gate.arity
    bound = amps.bound * gate.gain * (1.0 + width * _EPS) + width * _TINY
    if order is None:
        product = amps.components.reshape(-1, width).dot(gate.operator).reshape(-1, 4)
    else:
        # The gathered rows are a temporary, so at most two state-sized arrays live at once.
        rows = amps.components.take(order, axis=0).reshape(-1, width).dot(gate.operator)
        product = rows.reshape(-1, 4).take(back, axis=0)
    return QRegister(n, QVector.adopt(product, bound))


def bell_prepare() -> QRegister:
    """Two-qubit benchmark circuit: Hadamard (LEFT) then CNOT (RIGHT) on ``|00>``.

    Produces amplitudes ``1/sqrt2`` on ``|00>`` and ``-j/sqrt2`` on ``|11>``.
    """
    reg = QRegister.computational(2, "00")
    reg = apply_gate(reg, hadamard_gate(), [1])
    return apply_gate(reg, cnot_gate(), [1, 2])


def substitute_units(gate: Gate, mapping: dict[str, Quaternion]) -> Gate:
    """Re-express each entry's ``i``/``j``/``k`` coefficients under a substitution.

    An entry ``w + x*i + y*j + z*k`` becomes
    ``w + x*map(i) + y*map(j) + z*map(k)``; unmapped units stay themselves.
    Substitution targets must be unit quaternions.
    """
    units = {key: unit for key, unit in quat.UNIT_BY_NAME.items() if key != "1"}
    for key, value in mapping.items():
        if key not in units:
            raise ValueError(f"substitution key must be one of i, j, k, got {key!r}")
        if not value.is_unit():
            raise ValueError(f"substitution target for {key} is not a unit quaternion: {value}")
    comp = gate.matrix.components
    out = np.zeros_like(comp)
    out[..., 0] = comp[..., 0]
    for idx, (key, unit) in enumerate(units.items(), start=1):
        target = np.array(mapping.get(key, unit).as_tuple())
        out += comp[..., idx : idx + 1] * target
    name = gate.name if not mapping else gate.name + "*"
    return Gate(name, QMatrix.from_components(out), gate.side, gate.arity)
