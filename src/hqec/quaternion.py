"""Exact quaternion arithmetic over IEEE doubles.

A quaternion is ``w + x*i + y*j + z*k`` with real components and unit
relations ``i**2 == j**2 == k**2 == i*j*k == -1``.  Everything else in
this package (state vectors, gates, codes, noise) is built on this
number system, so the semantics here are kept strict: constructors
reject non-finite components and multiplication follows the Hamilton
product exactly.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from dataclasses import dataclass

# Library-wide absolute comparison tolerance for unit-scale data.
# Every tolerance-taking operation accepts an override per call.
TOLERANCE = 1e-12


def is_number(value, kind: type = numbers.Real) -> bool:
    """True when ``value`` is an instance of ``kind``, which a bool never is here.

    Python counts ``True`` as the integer 1, so without this rule a JSON
    ``true`` would run as a rate of 1 or a seed of 1.  Strings are not
    numbers either.
    """
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
class Quaternion:
    """Immutable quaternion ``w + x*i + y*j + z*k``.

    Supports ``+``, ``-``, unary ``-``, ``*`` (Hamilton product, or
    scaling by a real), and ``/`` by a real scalar.  Equality is exact
    componentwise; use :meth:`isclose` for tolerant comparison.
    """

    w: float
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self) -> None:
        w, x, y, z = self.w, self.x, self.y, self.z
        # Four floats with a finite sum are all finite: the common case, checked at once.
        if type(w) is type(x) is type(y) is type(z) is float and math.isfinite(w + x + y + z):
            return
        for name in ("w", "x", "y", "z"):
            value = getattr(self, name)
            if not is_number(value):
                raise TypeError(f"component {name} must be a real number, got {value!r}")
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"component {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a, b = self, other
            return Quaternion(
                a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
                a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
                a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
                a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
            )
        if is_number(other):
            s = float(other)
            return Quaternion(self.w * s, self.x * s, self.y * s, self.z * s)
        return NotImplemented

    def __rmul__(self, other):
        # Real scalars commute with quaternions, so this is unambiguous.
        return self.__mul__(other) if is_number(other) else NotImplemented

    def __truediv__(self, other):
        if is_number(other):
            s = float(other)
            return Quaternion(self.w / s, self.x / s, self.y / s, self.z / s)
        return NotImplemented

    # -- structure -----------------------------------------------------

    def conj(self) -> "Quaternion":
        """Quaternion conjugate ``w - x*i - y*j - z*k``."""
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        """Squared norm ``w**2 + x**2 + y**2 + z**2`` (the real value of ``q * conj(q)``)."""
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def inverse(self) -> "Quaternion":
        """Multiplicative inverse ``conj(q) / norm_sq(q)``.

        Raises ``ValueError`` for the zero quaternion.
        """
        n = self.norm_sq()
        if n == 0.0:
            raise ValueError("zero quaternion has no inverse")
        return Quaternion(self.w / n, -self.x / n, -self.y / n, -self.z / n)

    def is_unit(self, tol: float = TOLERANCE) -> bool:
        return abs(self.norm_sq() - 1.0) <= tol

    def isclose(self, other: "Quaternion", tol: float = TOLERANCE) -> bool:
        return (
            abs(self.w - other.w) <= tol
            and abs(self.x - other.x) <= tol
            and abs(self.y - other.y) <= tol
            and abs(self.z - other.z) <= tol
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)

    def __str__(self) -> str:
        return format_quaternion(self)


ZERO = Quaternion(0.0)
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)

#: The units by name, in component order: the unit at position ``c`` is the
#: one whose component ``c`` is 1, so a name also picks a component column.
UNIT_BY_NAME = {"1": ONE, "i": I, "j": J, "k": K}

#: The eight unit phases closed under multiplication.
UNIT_PHASES = (ONE, -ONE, I, -I, J, -J, K, -K)

_PHASE_LABELS = dict(zip(UNIT_PHASES, ("+1", "-1", "+i", "-i", "+j", "-j", "+k", "-k")))


def phase_label(q: Quaternion) -> str:
    """Canonical text for a member of :data:`UNIT_PHASES`."""
    try:
        return _PHASE_LABELS[q]
    except KeyError:
        raise ValueError(f"{q} is not one of the eight unit phases") from None


@dataclass(frozen=True)
class ImaginaryAxis:
    """Unit direction in the imaginary subspace spanned by ``i``, ``j``, ``k``."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            value = getattr(self, name)
            if not is_number(value):
                raise TypeError(f"axis component {name} must be a real number, got {value!r}")
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"axis component {name} must be finite")
            object.__setattr__(self, name, value)
        if abs(self.x * self.x + self.y * self.y + self.z * self.z - 1.0) > TOLERANCE:
            raise ValueError(f"axis ({self.x}, {self.y}, {self.z}) is not unit length")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "ImaginaryAxis":
        squares, m = x * x + y * y + z * z, max(abs(x), abs(y), abs(z))
        if 0.0 < m < math.inf and not sys.float_info.min <= squares < math.inf:
            x, y, z = x / m, y / m, z / m  # squares that under- or overflow, rescaled
            squares = x * x + y * y + z * z
        n = math.sqrt(squares)
        if n == 0.0:
            raise ValueError("cannot normalize the zero direction")
        return cls(x / n, y / n, z / n)


I_AXIS = ImaginaryAxis(1.0, 0.0, 0.0)
J_AXIS = ImaginaryAxis(0.0, 1.0, 0.0)
K_AXIS = ImaginaryAxis(0.0, 0.0, 1.0)


def exp_axis(axis: ImaginaryAxis, theta: float) -> Quaternion:
    """Unit quaternion ``cos(theta) + (ux*i + uy*j + uz*k) * sin(theta)``.

    ``exp_axis(u, 0) == 1`` and ``exp_axis(u, t) * exp_axis(u, -t) == 1``;
    the result always has unit norm.
    """
    if not isinstance(axis, ImaginaryAxis):
        raise ValueError("axis must be an ImaginaryAxis")
    c, s = math.cos(theta), math.sin(theta)
    return Quaternion(c, axis.x * s, axis.y * s, axis.z * s)


# -- text format -------------------------------------------------------

# The one ASCII number form of both readers; re.ASCII also keeps \s to ASCII space.
_NUM = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
_FLOAT_RE = re.compile(rf"-?(?:{_NUM}|inf|nan)", re.ASCII)
_QUAT_RE = re.compile(
    rf"\s*([+-]?{_NUM})\s*([+-]\s*{_NUM})i\s*([+-]\s*{_NUM})j\s*([+-]\s*{_NUM})k\s*", re.ASCII
)


def _fmt(value: float, digits: int) -> str:
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return f"{value:.{digits}g}"


def format_quaternion(q: Quaternion, digits: int = 12) -> str:
    """Render as ``w+xi+yj+zk`` with explicit signs, e.g. ``1-2i+0j+3k``."""
    parts = [_fmt(q.w, digits)]
    for value, unit in ((q.x, "i"), (q.y, "j"), (q.z, "k")):
        sign = "-" if value < 0 else "+"
        parts.append(f"{sign}{_fmt(abs(value), digits)}{unit}")
    return "".join(parts)


def parse_int(text: str) -> int:
    """``int(text)`` of ASCII digits after an optional ``-``: no ``_``, ``+`` or space."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def parse_float(text: str) -> float:
    """``float(text)`` of ASCII decimal or exponent form after an optional ``-``.

    Also ``inf`` and ``nan``, as ``repr`` and ``%g`` write them; no ``_``,
    ``+`` before the number, or space.
    """
    if _FLOAT_RE.fullmatch(text) is None:
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def parse_quaternion(text: str) -> Quaternion:
    """Parse the ``w+xi+yj+zk`` rendering produced by :func:`format_quaternion`."""
    m = _QUAT_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"cannot parse quaternion from {text!r}")
    w, x, y, z = (float("".join(g.split())) for g in m.groups())  # the spaces \s admits
    return Quaternion(w, x, y, z)
