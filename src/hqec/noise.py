"""Stochastic error generation: Pauli noise plus unit-quaternion rotations.

A rotation error multiplies amplitudes by ``exp_axis(axis, theta)`` on the
left without touching the basis states, so it is invisible to commutation
syndromes; it shows up only in the j/k component strengths that
:func:`detect_rotations` measures.  By default a rotation on qubit ``q``
acts on the amplitudes whose ``q`` bit is 0 (the ``"zero"`` slot mode);
``"all"`` applies it to the whole register instead.

Sampling is counter-based: the draws of a trial are the first
``DRAWS_PER_QUBIT * n`` uniforms of Philox4x64-10 keyed by the two integers
``(seed, trial)``, laid out as numpy's ``Philox`` generator gives them, so
trials are reproducible in any evaluation order and across any degree of
parallelism.  :func:`philox_uniforms` computes any prefix of those doubles
for a range of trials at once, its first two rounds folded into per-block
constants, so the batched engine in :mod:`hqec.experiments` draws only the
blocks of ``n`` it reads (Pauli hit, letter, rotation hit, angle).
:func:`pauli_letters` and :func:`rotation_angles` are the one rule from
those rows to letters and rotations, and :func:`sample_error` is one row
of the same draws read by the same rules.  numpy's generator itself is
the tests' oracle for the draws.  :func:`slot_cover` is the one rule for
which amplitude slots a rotation touches, read by the single-trial oracle
(:func:`apply_rotations`, :func:`detect_rotations`) and by that engine.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .quaternion import ImaginaryAxis, K_AXIS, exp_axis, is_number
from .linalg import qmul_components
from .register import QRegister
from .codes import PauliString, apply_pauli

ROT_MODES = ("zero", "all")

#: Uniforms a trial consumes per qubit: Pauli hit, letter, rotation hit, angle.
DRAWS_PER_QUBIT = 4


def check_counter(name: str, value) -> int:
    """``value`` as an ``int`` key or counter word of the Philox stream, in [0, 2**64)."""
    if not (is_number(value, numbers.Integral) and 0 <= value < 2**64):
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return int(value)


@dataclass(frozen=True)
class AngleDistribution:
    """Rotation angle law: ``fixed`` theta or ``uniform`` on [0, theta)."""

    kind: str
    theta: float

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "uniform"):
            raise ValueError(f"kind must be 'fixed' or 'uniform', got {self.kind!r}")
        if not (is_number(self.theta) and math.isfinite(self.theta)):
            raise ValueError(f"angle theta must be a finite real number, got {self.theta!r}")
        object.__setattr__(self, "theta", float(self.theta))


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit error law at any Pauli rate: letter mixture, rotations."""

    pauli_weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    p_rot: float = 0.0
    rot_axis: ImaginaryAxis = K_AXIS
    rot_angle: AngleDistribution = AngleDistribution("fixed", math.pi / 8)
    rot_mode: str = "zero"

    def __post_init__(self) -> None:
        if not (is_number(self.p_rot) and 0.0 <= self.p_rot <= 1.0):
            raise ValueError(
                f"p_rot (rotations per qubit) must be a real number in [0, 1], got {self.p_rot!r}"
            )
        weights = tuple(self.pauli_weights)
        if len(weights) != 3 or not all(is_number(w) and 0.0 <= w < math.inf for w in weights):
            raise ValueError(f"pauli_weights must be three finite reals >= 0, got {weights}")
        object.__setattr__(self, "p_rot", float(self.p_rot))
        object.__setattr__(self, "pauli_weights", tuple(float(w) for w in weights))
        if abs(sum(self.pauli_weights) - 1.0) > 1e-12:
            raise ValueError(f"pauli_weights must sum to 1, got {sum(self.pauli_weights)}")
        if self.rot_mode not in ROT_MODES:
            raise ValueError(f"rot_mode must be one of {ROT_MODES}, got {self.rot_mode!r}")


@dataclass(frozen=True)
class RotationError:
    qubit: int
    axis: ImaginaryAxis
    angle: float


@dataclass(frozen=True)
class ErrorEvent:
    """One sampled error: a Pauli string plus per-qubit rotations."""

    pauli: PauliString
    rotations: tuple[RotationError, ...]
    rot_mode: str = "zero"


# Philox4x64-10 (Salmon et al., SC'11) with numpy's constants and layout.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# Operands are 0-d uint64 arrays: a ufunc takes one faster than an np.uint64.
_u64 = functools.partial(np.array, dtype=np.uint64)
_LOW32, _SHIFT32, _SHIFT11 = _u64(0xFFFFFFFF), _u64(32), _u64(11)
#: Each multiplier with its low and high 32-bit halves, as :func:`_mulhilo` reads it.
_MULTIPLIERS = tuple((_u64(m), _u64(m & 0xFFFFFFFF), _u64(m >> 32)) for m in _PHILOX_M)
_W1 = _u64(_PHILOX_W[1])


def _mulhilo(multiplier: tuple[np.ndarray, ...], b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``m * b``, from 32-bit halves.

    ``multiplier`` is an entry of :data:`_MULTIPLIERS`.  ``b`` is
    overwritten: it comes back holding the high words.
    """
    m, m_lo, m_hi = multiplier
    lo = m * b
    b_lo = b & _LOW32
    b_hi = np.right_shift(b, _SHIFT32, out=b)
    # Each partial sum stays below 2**64: (2**32 - 1)**2 + 2 * (2**32 - 1) < 2**64.
    # In place: part holds the low partial product, b_lo the cross sum, b_hi hi.
    mid = b_hi * m_lo
    part = b_lo * m_lo
    mid += np.right_shift(part, _SHIFT32, out=part)
    b_lo *= m_hi
    b_lo += np.bitwise_and(mid, _LOW32, out=part)
    b_hi *= m_hi
    b_hi += np.right_shift(mid, _SHIFT32, out=mid)
    b_hi += np.right_shift(b_lo, _SHIFT32, out=b_lo)
    return b_hi, lo


def philox_uniforms(seed: int, trials, count: int) -> np.ndarray:
    """The first ``count`` doubles of each trial's stream, one row per trial.

    Row ``r`` equals ``np.random.Generator(np.random.Philox(key=key)).random(count)``
    bit for bit, with ``key`` the uint64 array ``[seed, trials[r]]``, as
    the tests check: block ``b`` of four words is
    Philox4x64-10 of the counter ``(b + 1, 0, 0, 0)`` under that key, and a
    word ``u`` becomes the double ``(u >> 11) * 2**-53``.

    Rounds 1 and 2 are folded, as they multiply one trial word between
    them: round 1 maps ``(b + 1, 0, 0, 0)`` to ``(seed, 0, hi ^ t, lo)``,
    with ``t`` the trial and ``(hi, lo)`` the words of ``M0 * (b + 1)`` in
    Python integers, and round 2 takes one array product, ``M1 * (hi ^ t)``.
    """
    seed = check_counter("seed", seed)
    trials = np.asarray(trials)
    if trials.ndim != 1 or trials.dtype.kind not in "ui" or (
        trials.dtype.kind == "i" and trials.size and trials.min() < 0
    ):
        raise ValueError("trials must be a 1-d array of integers in [0, 2**64)")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    # Words are (block, trial) arrays, so every step runs along the trials.  Keys
    # wrap in Python integers or arrays: numpy warns when a scalar addition wraps.
    blocks = -(-count // 4)
    key1 = trials.astype(np.uint64)
    # With (h, l) the words of M0 * seed, round 2 gives
    # (hi(M1 * c2) ^ (seed + W0), lo(M1 * c2), lo ^ h ^ (t + W1), l).
    h, l = divmod(_PHILOX_M[0] * seed, 2**64)
    products = (divmod(_PHILOX_M[0] * (b + 1), 2**64) for b in range(blocks))
    column = np.array([(hi, lo ^ h) for hi, lo in products], dtype=np.uint64).reshape(blocks, 2)
    c0, c1 = _mulhilo(_MULTIPLIERS[1], column[:, :1] ^ key1)
    key1 = key1 + _W1
    c0 ^= _u64((seed + _PHILOX_W[0]) % 2**64)
    c2, c3 = column[:, 1:] ^ key1, _u64(l)
    for rnd in range(2, _PHILOX_ROUNDS):
        key0, key1 = _u64((seed + rnd * _PHILOX_W[0]) % 2**64), key1 + _W1
        hi0, lo0 = _mulhilo(_MULTIPLIERS[0], c0)
        hi1, lo1 = _mulhilo(_MULTIPLIERS[1], c2)
        hi1 ^= c1 ^ key0  # in place: a round holds no words of the one before it
        hi0 ^= c3 ^ key1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    # Each word array becomes every fourth row of the doubles, in place.
    out = np.empty((count, trials.size))
    for i, words in enumerate((c0, c1, c2, c3)):
        words = words[: len(out[i::4])]
        words >>= _SHIFT11
        np.multiply(words, 2.0**-53, out=out[i::4])
    return out.T


def pauli_letters(model: NoiseModel, draws: np.ndarray, n: int) -> np.ndarray:
    """Letter of each qubit's Pauli draw, as int8 0, 1, 2 for X, Y, Z.

    ``draws`` holds one trial's uniforms per row, in the layout of
    :data:`DRAWS_PER_QUBIT`.  Whether the qubit is hit at all is
    ``draws[:, q - 1] < p``.
    """
    u_letter = draws[:, n : 2 * n]
    c1 = model.pauli_weights[0]
    c2 = c1 + model.pauli_weights[1]
    # As c1 <= c2, the letter is 2 less one for each bound the draw is below.
    return 2 - ((u_letter < c1).view(np.int8) + (u_letter < c2).view(np.int8))


def rotation_angles(
    model: NoiseModel, draws: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of ``draws`` whose event on ``n`` qubits has a rotation, its qubits and angles.

    Returns ``(rows, hit, angles)``: ``hit[r, q - 1]`` says whether row
    ``rows[r]`` rotates qubit ``q``, and ``angles[r, q - 1]`` is the angle,
    0.0 where the qubit is not rotated; a hit can have angle 0.0 as well.
    The rotations do not depend on ``p``.  A ``fixed`` angle reads the
    first ``3 * n`` draws of a row, a ``uniform`` one all ``4 * n``.  This
    is the one rule for which trials rotate which qubits by what, under
    either angle law.
    """
    hit = draws[:, 2 * n : 3 * n] < model.p_rot
    rows = np.flatnonzero(hit.any(axis=1))
    hit = hit[rows]
    if model.rot_angle.kind == "fixed":
        angles = np.where(hit, model.rot_angle.theta, 0.0)
    else:
        angles = np.where(hit, draws[rows, 3 * n : 4 * n] * model.rot_angle.theta, 0.0)
    return rows, hit, angles


def sample_error(model: NoiseModel, p: float, n: int, seed: int, trial: int) -> ErrorEvent:
    """The error event at Pauli rate ``p`` of the stream keyed by ``(seed, trial)``.

    It is one row of the engine's draws, :func:`philox_uniforms` of the
    one trial, read by the engine's rules: a qubit whose hit draw is below
    ``p`` carries the letter :func:`pauli_letters` gives (with no unit
    factor, which could not flip a commutator), and the rotation is
    :func:`rotation_angles`'.
    A fixed block of uniforms is consumed per trial, so the event for a
    given ``(seed, trial)`` never depends on other parameters being swept.
    """
    if not (is_number(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"p must be a real number in [0, 1], got {p!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    trials = np.array([check_counter("trial", trial)], dtype=np.uint64)
    draws = philox_uniforms(seed, trials, DRAWS_PER_QUBIT * n)
    hit = (draws[0, :n] < p).tolist()
    letters = pauli_letters(model, draws, n)[0].tolist()
    letters = ["XYZ"[x] if h else "I" for h, x in zip(hit, letters)]
    _, rotated, angles = rotation_angles(model, draws, n)
    rotations = tuple(RotationError(q + 1, model.rot_axis, float(angles.flat[q]))
                      for q in np.flatnonzero(rotated).tolist())
    return ErrorEvent(PauliString(letters), rotations, model.rot_mode)


def slot_cover(n: int, mode: str) -> np.ndarray:
    """``(n, 2**n)`` bool matrix: row ``q - 1`` marks the slots a rotation on ``q`` touches."""
    if mode == "all":
        return np.ones((n, 2**n), dtype=bool)
    if mode == "zero":
        return ((np.arange(2**n) >> np.arange(n - 1, -1, -1)[:, None]) & 1) == 0
    raise ValueError(f"rot_mode must be one of {ROT_MODES}, got {mode!r}")


def apply_rotations(reg: QRegister, rotations: tuple[RotationError, ...], mode: str) -> QRegister:
    """Apply each rotation in order, in slot mode ``mode``.

    A rotation multiplies its qubit's :func:`slot_cover` slots on the left
    by ``exp_axis(axis, angle)``; the basis-state support never changes.
    """
    cover = slot_cover(reg.n, mode)
    comp = reg.amps.components.copy()
    for rot in rotations:
        if not 1 <= rot.qubit <= reg.n:
            raise ValueError(f"rotation qubit {rot.qubit} out of range 1..{reg.n}")
        rows = cover[rot.qubit - 1]
        comp[rows] = qmul_components(np.array(exp_axis(rot.axis, rot.angle).as_tuple()), comp[rows])
    return QRegister.from_components(reg.n, comp)


def apply_event(reg: QRegister, event: ErrorEvent) -> QRegister:
    """Apply the Pauli string (its unit factor from the left), then each rotation."""
    return apply_rotations(apply_pauli(event.pauli, reg), event.rotations, event.rot_mode)


@dataclass(frozen=True)
class RotationFlag:
    """Detector hit: measured j/k strengths and their excess over the reference."""

    qubit: int
    j_strength: float
    k_strength: float
    j_excess: float
    k_excess: float


def _slot_jk_strength(comp: np.ndarray, rows: np.ndarray) -> tuple[float, float]:
    """Squared j and k components summed over ``rows``, correctly rounded, so in any order."""
    block = comp[rows]
    return math.fsum(block[:, 2] ** 2), math.fsum(block[:, 3] ** 2)


def detect_rotations(
    reg: QRegister,
    reference: QRegister,
    threshold: float,
    mode: str = "zero",
) -> tuple[RotationFlag, ...]:
    """Flag qubits whose slot-restricted j or k strength exceeds the reference.

    For each qubit the j/k component strengths are summed over the slots a
    rotation in ``mode`` would touch, and compared against the same sums
    for the known reference state; a flag is raised when either excess is
    above ``threshold``.
    """
    if reg.n != reference.n:
        raise ValueError("register and reference sizes differ")
    flags = []
    comp = reg.amps.components
    ref = reference.amps.components
    for qubit, rows in enumerate(slot_cover(reg.n, mode), start=1):
        j_strength, k_strength = _slot_jk_strength(comp, rows)
        j_ref, k_ref = _slot_jk_strength(ref, rows)
        j_excess = j_strength - j_ref
        k_excess = k_strength - k_ref
        if j_excess > threshold or k_excess > threshold:
            flags.append(RotationFlag(qubit, j_strength, k_strength, j_excess, k_excess))
    return tuple(flags)


def correct_rotation(
    reg: QRegister, qubit: int, axis: ImaginaryAxis, angle: float, mode: str = "zero"
) -> QRegister:
    """Undo a rotation by applying the inverse unit ``exp_axis(axis, -angle)``."""
    return apply_rotations(reg, (RotationError(qubit, axis, -angle),), mode)


def jk_excess(reg: QRegister, reference: QRegister) -> float:
    """Largest of the global j and k strength excesses over the reference."""
    comp = reg.amps.components
    ref = reference.amps.components
    j = math.fsum(comp[:, 2] ** 2) - math.fsum(ref[:, 2] ** 2)
    k = math.fsum(comp[:, 3] ** 2) - math.fsum(ref[:, 3] ** 2)
    return max(j, k)
