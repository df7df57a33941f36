"""Stochastic error generation: phased Pauli noise plus unit-quaternion rotations.

A rotation error multiplies amplitudes by ``exp_axis(axis, theta)`` on the
left without touching the basis states, so it is invisible to commutation
syndromes; it shows up only in the j/k component strengths that
:func:`detect_rotations` measures.  By default a rotation on qubit ``q``
acts on the amplitudes whose ``q`` bit is 0 (the ``"zero"`` slot mode);
``"all"`` applies it to the whole register instead.

Sampling is counter-based: the draws of a trial are the first
``DRAWS_PER_QUBIT * n`` uniforms of numpy's Philox4x64-10 keyed by the two
integers ``(seed, trial)``, so trials are reproducible in any evaluation
order and across any degree of parallelism.  :func:`sample_error` draws
one trial through numpy and is the single-trial oracle;
:func:`philox_uniforms` computes any prefix of the same doubles for a
whole range of trials at once in plain numpy, so the batched engine in
:mod:`hqec.experiments` draws only the blocks of ``n`` it reads (Pauli
hit, letter, rotation hit, angle), and :func:`pauli_letters` and
:func:`rotation_angles` turn those rows into what it scores, with the
same comparisons as :func:`sample_error`.  :func:`slot_cover` is the one rule for which
amplitude slots a rotation touches, read by the single-trial oracle
(:func:`apply_rotations`, :func:`detect_rotations`) and by that engine.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import quaternion as quat
from .quaternion import ImaginaryAxis, K_AXIS, exp_axis
from .linalg import left_mul_matrix
from .register import UNIT_FOR_LETTER, QRegister
from .codes import PauliString, apply_pauli

ROT_MODES = ("zero", "all")
PHASE_MODES = ("none", "table1")

#: Uniforms a trial consumes per qubit: Pauli hit, letter, rotation hit, angle.
DRAWS_PER_QUBIT = 4


def is_number(value, kind: type = numbers.Real) -> bool:
    """True when ``value`` is an instance of ``kind``, which a bool never is here.

    Python counts ``True`` as the integer 1, so without this rule a JSON
    ``true`` would run as a rate of 1 or a seed of 1.  Strings are not
    numbers either.
    """
    return isinstance(value, kind) and not isinstance(value, bool)


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

    def draw(self, u: float) -> float:
        return self.theta if self.kind == "fixed" else u * self.theta


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit error law: Pauli rate, letter mixture, phases, rotations."""

    p: float
    pauli_weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    phase_mode: str = "none"
    p_rot: float = 0.0
    rot_axis: ImaginaryAxis = K_AXIS
    rot_angle: AngleDistribution = AngleDistribution("fixed", math.pi / 8)
    rot_mode: str = "zero"

    def __post_init__(self) -> None:
        if not (is_number(self.p) and 0.0 <= self.p <= 1.0):
            raise ValueError(f"p must be a real number in [0, 1], got {self.p!r}")
        if not (is_number(self.p_rot) and 0.0 <= self.p_rot <= 1.0):
            raise ValueError(
                f"p_rot (rotations per qubit) must be a real number in [0, 1], got {self.p_rot!r}"
            )
        weights = tuple(self.pauli_weights)
        if len(weights) != 3 or not all(is_number(w) and 0.0 <= w < math.inf for w in weights):
            raise ValueError(f"pauli_weights must be three finite reals >= 0, got {weights}")
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "p_rot", float(self.p_rot))
        object.__setattr__(self, "pauli_weights", tuple(float(w) for w in weights))
        if abs(sum(self.pauli_weights) - 1.0) > 1e-12:
            raise ValueError(f"pauli_weights must sum to 1, got {sum(self.pauli_weights)}")
        if self.phase_mode not in PHASE_MODES:
            raise ValueError(f"phase_mode must be one of {PHASE_MODES}, got {self.phase_mode!r}")
        if self.rot_mode not in ROT_MODES:
            raise ValueError(f"rot_mode must be one of {ROT_MODES}, got {self.rot_mode!r}")


@dataclass(frozen=True)
class RotationError:
    qubit: int
    axis: ImaginaryAxis
    angle: float


@dataclass(frozen=True)
class ErrorEvent:
    """One sampled error: a phased Pauli string plus per-qubit rotations."""

    pauli: PauliString
    rotations: tuple[RotationError, ...]
    rot_mode: str = "zero"


def _event_from_draws(model: NoiseModel, n: int, draws: np.ndarray) -> ErrorEvent:
    u_err = draws[0:n]
    u_letter = draws[n : 2 * n]
    u_rot = draws[2 * n : 3 * n]
    u_angle = draws[3 * n : 4 * n]
    c1 = model.pauli_weights[0]
    c2 = c1 + model.pauli_weights[1]
    letters = []
    phase = quat.ONE
    for q in range(n):
        if u_err[q] < model.p:
            letter = "X" if u_letter[q] < c1 else ("Y" if u_letter[q] < c2 else "Z")
            letters.append(letter)
            if model.phase_mode == "table1":
                phase = phase * UNIT_FOR_LETTER[letter]
        else:
            letters.append("I")
    rotations = []
    if model.p_rot > 0.0:
        for q in range(n):
            if u_rot[q] < model.p_rot:
                angle = model.rot_angle.draw(float(u_angle[q]))
                rotations.append(RotationError(q + 1, model.rot_axis, angle))
    return ErrorEvent(PauliString(tuple(letters), phase), tuple(rotations), model.rot_mode)


def sample_error(model: NoiseModel, n: int, seed: int, trial: int) -> ErrorEvent:
    """Sample one error event from the stream keyed by ``(seed, trial)``.

    Per qubit, an independent draw decides whether a Pauli letter occurs
    (letter by ``pauli_weights``, phase per ``phase_mode``) and another
    whether a rotation occurs.  A fixed block of uniforms is consumed per
    trial, so the event for a given ``(seed, trial)`` never depends on
    other parameters being swept.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    key = np.array([check_counter("seed", seed), check_counter("trial", trial)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return _event_from_draws(model, n, rng.random(DRAWS_PER_QUBIT * n))


# Philox4x64-10 (Salmon et al., SC'11) with numpy's constants and layout.
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(m: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``m * b``, from 32-bit halves.

    ``b`` is overwritten: it comes back holding the high words.
    """
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
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
    bit for bit, with ``key`` the uint64 array ``[seed, trials[r]]`` that
    :func:`sample_error` builds: block ``b`` of four words is
    Philox4x64-10 of the counter ``(b + 1, 0, 0, 0)`` under that key, and a
    word ``u`` becomes the double ``(u >> 11) * 2**-53``.
    """
    seed = check_counter("seed", seed)
    trials = np.asarray(trials)
    if trials.ndim != 1 or trials.dtype.kind not in "ui" or (
        trials.dtype.kind == "i" and trials.size and trials.min() < 0
    ):
        raise ValueError("trials must be a 1-d array of integers in [0, 2**64)")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    # Words are (block, trial) arrays, so every step runs along the trials.  The
    # keys stay arrays: numpy warns when a scalar addition wraps around.
    blocks = -(-count // 4)
    key0, key1 = np.full(1, seed, dtype=np.uint64), trials.astype(np.uint64)
    c0 = np.repeat(np.arange(1, blocks + 1, dtype=np.uint64)[:, None], trials.size, axis=1)
    c1 = c3 = np.zeros_like(c0)
    c2 = np.zeros_like(c0)  # apart from c1 and c3: _mulhilo overwrites c0 and c2
    for rnd in range(_PHILOX_ROUNDS):
        if rnd:
            key0, key1 = key0 + _PHILOX_W[0], key1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        hi1 ^= c1 ^ key0  # in place: a round holds no words of the one before it
        hi0 ^= c3 ^ key1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    # Each word array becomes every fourth row of the doubles, in place.
    out = np.empty((count, trials.size))
    for i, words in enumerate((c0, c1, c2, c3)):
        words = words[: len(out[i::4])]
        words >>= np.uint64(11)
        np.multiply(words, 2.0**-53, out=out[i::4])
    return out.T


def pauli_letters(model: NoiseModel, draws: np.ndarray, n: int) -> np.ndarray:
    """Letter of each qubit's Pauli draw, as int8 0, 1, 2 for X, Y, Z.

    ``draws`` holds one trial's uniforms per row, as :func:`sample_error`
    consumes them; the letter comparisons are the ones it makes.  Whether
    the qubit is hit at all is ``draws[:, q - 1] < p``.
    """
    u_letter = draws[:, n : 2 * n]
    c1 = model.pauli_weights[0]
    c2 = c1 + model.pauli_weights[1]
    # As c1 <= c2, the letter is 2 less one for each bound the draw is below.
    return 2 - ((u_letter < c1).view(np.int8) + (u_letter < c2).view(np.int8))


def rotation_angles(
    model: NoiseModel, draws: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``draws`` whose event on ``n`` qubits has a rotation, and their angles.

    Returns ``(rows, angles)``: ``angles[r, q - 1]`` is the angle of the
    :func:`sample_error` rotation on qubit ``q`` in row ``rows[r]``, and 0.0
    where that qubit is not rotated.  The rotations do not depend on ``p``.
    A ``fixed`` angle reads the first ``3 * n`` draws of a row, a
    ``uniform`` one all ``4 * n``.
    """
    hit = draws[:, 2 * n : 3 * n] < model.p_rot
    rows = np.flatnonzero(hit.any(axis=1))
    hit = hit[rows]
    if model.rot_angle.kind == "fixed":
        angles = np.where(hit, model.rot_angle.theta, 0.0)
    else:
        angles = np.where(hit, draws[rows, 3 * n : 4 * n] * model.rot_angle.theta, 0.0)
    return rows, angles


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
    comp = reg.amps.components
    for rot in rotations:
        if not 1 <= rot.qubit <= reg.n:
            raise ValueError(f"rotation qubit {rot.qubit} out of range 1..{reg.n}")
        rows = cover[rot.qubit - 1]
        comp = comp.copy()
        comp[rows] = comp[rows] @ left_mul_matrix(exp_axis(rot.axis, rot.angle)).T
    return QRegister.from_components(reg.n, comp)


def apply_event(reg: QRegister, event: ErrorEvent) -> QRegister:
    """Apply the Pauli part (phase as left scalar), then each rotation."""
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
    block = comp[rows]
    return float(np.sum(block[:, 2] ** 2)), float(np.sum(block[:, 3] ** 2))


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
    j = float(np.sum(comp[:, 2] ** 2) - np.sum(ref[:, 2] ** 2))
    k = float(np.sum(comp[:, 3] ** 2) - np.sum(ref[:, 3] ** 2))
    return max(j, k)
