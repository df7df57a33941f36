"""Stochastic error generation: phased Pauli noise plus unit-quaternion rotations.

A rotation error multiplies amplitudes by ``exp_axis(axis, theta)`` on the
left without touching the basis states, so it is invisible to commutation
syndromes; it shows up only in the j/k component strengths that
:func:`detect_rotations` measures.  By default a rotation on qubit ``q``
acts on the amplitudes whose ``q`` bit is 0 (the ``"zero"`` slot mode);
``"all"`` applies it to the whole register instead.

Sampling is counter-based: the draw stream for a trial is derived solely
from the two integers ``(seed, trial)``, so trials are reproducible in any
evaluation order and across any degree of parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import quaternion as quat
from .quaternion import ImaginaryAxis, K_AXIS, Quaternion, exp_axis
from .linalg import left_mul_matrix
from .register import UNIT_FOR_LETTER, QRegister
from .codes import PauliString, apply_pauli

ROT_MODES = ("zero", "all")
PHASE_MODES = ("none", "table1")


@dataclass(frozen=True)
class AngleDistribution:
    """Rotation angle law: ``fixed`` theta or ``uniform`` on [0, theta)."""

    kind: str
    theta: float

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "uniform"):
            raise ValueError(f"kind must be 'fixed' or 'uniform', got {self.kind!r}")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")

    def draw(self, u: float) -> float:
        return self.theta if self.kind == "fixed" else u * self.theta

    def to_dict(self) -> dict:
        return {"fixed": self.theta} if self.kind == "fixed" else {"uniform_max": self.theta}

    @classmethod
    def from_dict(cls, data: dict) -> "AngleDistribution":
        if set(data) == {"fixed"}:
            return cls("fixed", float(data["fixed"]))
        if set(data) == {"uniform_max"}:
            return cls("uniform", float(data["uniform_max"]))
        raise ValueError(f"angle dict must have exactly 'fixed' or 'uniform_max', got {sorted(data)}")


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
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if not 0.0 <= self.p_rot <= 1.0:
            raise ValueError(f"p_rot must be in [0, 1], got {self.p_rot}")
        object.__setattr__(self, "pauli_weights", tuple(float(w) for w in self.pauli_weights))
        if len(self.pauli_weights) != 3 or any(w < 0 for w in self.pauli_weights):
            raise ValueError("pauli_weights must be three nonnegative reals")
        if abs(sum(self.pauli_weights) - 1.0) > 1e-12:
            raise ValueError(f"pauli_weights must sum to 1, got {sum(self.pauli_weights)}")
        if self.phase_mode not in PHASE_MODES:
            raise ValueError(f"phase_mode must be one of {PHASE_MODES}, got {self.phase_mode!r}")
        if self.rot_mode not in ROT_MODES:
            raise ValueError(f"rot_mode must be one of {ROT_MODES}, got {self.rot_mode!r}")

    def with_p(self, p: float) -> "NoiseModel":
        return replace(self, p=p)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "weights": list(self.pauli_weights),
            "phase_mode": self.phase_mode,
            "p_rot": self.p_rot,
            "axis": list(self.rot_axis.as_tuple()),
            "angle": self.rot_angle.to_dict(),
            "rot_mode": self.rot_mode,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseModel":
        allowed = {"p", "weights", "phase_mode", "p_rot", "axis", "angle", "rot_mode"}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown noise config keys: {sorted(unknown)}")
        kwargs: dict = {}
        if "p" in data:
            kwargs["p"] = float(data["p"])
        else:
            raise ValueError("noise config is missing 'p'")
        if "weights" in data:
            kwargs["pauli_weights"] = tuple(float(w) for w in data["weights"])
        if "phase_mode" in data:
            kwargs["phase_mode"] = str(data["phase_mode"])
        if "p_rot" in data:
            kwargs["p_rot"] = float(data["p_rot"])
        if "axis" in data:
            x, y, z = (float(c) for c in data["axis"])
            kwargs["rot_axis"] = ImaginaryAxis(x, y, z)
        if "angle" in data:
            kwargs["rot_angle"] = AngleDistribution.from_dict(data["angle"])
        if "rot_mode" in data:
            kwargs["rot_mode"] = str(data["rot_mode"])
        return cls(**kwargs)


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

    @property
    def is_identity(self) -> bool:
        return self.pauli.weight == 0 and self.pauli.phase == quat.ONE and not self.rotations


def _check_counter(name: str, value: int) -> int:
    value = int(value)
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must be in [0, 2**64), got {value}")
    return value


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
    key = np.array([_check_counter("seed", seed), _check_counter("trial", trial)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return _event_from_draws(model, n, rng.random(4 * n))


class ErrorSampler:
    """Reusable sampler producing the exact :func:`sample_error` streams.

    Resets one counter-based generator per trial instead of constructing a
    fresh one, which matters in Monte Carlo loops; equality of the two
    paths is part of the test suite.
    """

    def __init__(self, model: NoiseModel, n: int, seed: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self._model = model
        self._n = n
        self._seed = _check_counter("seed", seed)
        self._bit_gen = np.random.Philox(key=np.array([self._seed, 0], dtype=np.uint64))
        self._rng = np.random.Generator(self._bit_gen)

    def sample(self, trial: int) -> ErrorEvent:
        state = self._bit_gen.state
        state["state"]["counter"][:] = 0
        state["state"]["key"][0] = self._seed
        state["state"]["key"][1] = _check_counter("trial", trial)
        state["buffer_pos"] = 4
        self._bit_gen.state = state
        return _event_from_draws(self._model, self._n, self._rng.random(4 * self._n))


def _rotation_rows(dim: int, n: int, qubit: int, mode: str) -> np.ndarray:
    if mode == "all":
        return np.ones(dim, dtype=bool)
    if mode == "zero":
        return ((np.arange(dim) >> (n - qubit)) & 1) == 0
    raise ValueError(f"rot_mode must be one of {ROT_MODES}, got {mode!r}")


def _rotate_components(
    comp: np.ndarray, n: int, qubit: int, axis: ImaginaryAxis, angle: float, mode: str
) -> np.ndarray:
    rows = _rotation_rows(comp.shape[0], n, qubit, mode)
    out = comp.copy()
    out[rows] = comp[rows] @ left_mul_matrix(exp_axis(axis, angle)).T
    return out


def apply_rotations(reg: QRegister, rotations: tuple[RotationError, ...], mode: str) -> QRegister:
    """Apply each rotation in order, in slot mode ``mode``.

    A rotation multiplies its qubit's amplitude slots on the left by
    ``exp_axis(axis, angle)``; the basis-state support never changes.
    """
    comp = reg.amps.components
    for rot in rotations:
        if not 1 <= rot.qubit <= reg.n:
            raise ValueError(f"rotation qubit {rot.qubit} out of range 1..{reg.n}")
        comp = _rotate_components(comp, reg.n, rot.qubit, rot.axis, rot.angle, mode)
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
    for qubit in range(1, reg.n + 1):
        rows = _rotation_rows(reg.dim, reg.n, qubit, mode)
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
    if not 1 <= qubit <= reg.n:
        raise ValueError(f"qubit {qubit} out of range 1..{reg.n}")
    comp = _rotate_components(reg.amps.components, reg.n, qubit, axis, -angle, mode)
    return QRegister.from_components(reg.n, comp)


def jk_excess(reg: QRegister, reference: QRegister) -> float:
    """Largest of the global j and k strength excesses over the reference."""
    comp = reg.amps.components
    ref = reference.amps.components
    j = float(np.sum(comp[:, 2] ** 2) - np.sum(ref[:, 2] ** 2))
    k = float(np.sum(comp[:, 3] ** 2) - np.sum(ref[:, 3] ** 2))
    return max(j, k)
