"""Monte Carlo logical-error-rate estimation, scaling fits, and paired sweeps.

A trial samples one error event, decodes the commutation syndrome, and
scores failure on two independent channels:

* Pauli channel: the residual operator (error composed with the decoded
  correction) fails when it anticommutes with a logical representative.
  This is pure operator algebra; phases cannot flip a commutator, so only
  the letters decide.
* Rotation channel: when the event carries rotations, they are applied to
  the ``|0_L>`` codeword and the register fails when its j/k strength
  excess stays above the detection threshold.  A pipeline with
  quaternionic detection enabled first locates flagged qubits and undoes
  their rotations with the sampled parameters (oracle correction); the
  baseline pipeline never corrects, so with shared seeds its failure set
  contains the detecting pipeline's by construction.

Sweeps derive every trial from ``(seed, trial)`` alone, which makes the
results independent of the parallelism degree (``HQEC_THREADS``) and lets
paired configurations share their noise realizations.

:func:`score_event` scores the sampled event of one trial and is the
reference.  Sweeps run the batched engine, :func:`count_failures`: it
draws the uniforms of a chunk of trials at once (at most
:data:`CHUNK_TRIALS` trials and :data:`CHUNK_WORDS` words) and scores
them at every p of the grid, with counts equal to the per-trial loop bit
for bit, and draws only the words its pipelines read.  Syndrome and
logical commutation are linear over GF(2) in the error, so the Pauli
channel XORs the code's per-qubit ``signatures`` and looks the result up
in its ``verdicts``, for only the trials with an error at the largest p
while those are at most half of a chunk.  The rotation channel is scored
as arrays of damaged ``|0_L>`` states, over the slots where ``|0_L>`` is
nonzero: the rotations of an event share one axis, so each slot is the
reference slot times a product of unit quaternions, and detection and
correction are per-qubit slot sums and inverse units.  With a ``fixed``
angle a trial's verdict depends only on which qubits it rotates, so
:func:`rotation_verdicts` keeps a per-process memo of the ``2**n``
subsets and scores only those a chunk brings that it has not seen; with
a ``uniform`` angle each chunk scores its own rotated trials.  A subset
or trial whose compared excesses lie within :data:`GUARD` of the
threshold, where the other summation order could flip the verdict, is
scored by :func:`score_event` instead.  :func:`figure1_data` scores both
pipelines in one pass of the engine, so they share the draws, the Pauli
failures and the subset indices or damaged states.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import numbers
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .codes import (
    CODE_IDS,
    PauliString,
    StabilizerCode,
    decode,
    get_code,
    logical_failure,
    syndrome_of,
)
from .noise import (
    ErrorEvent,
    NoiseModel,
    RotationError,
    apply_rotations,
    check_counter,
    correct_rotation,
    detect_rotations,
    is_number,
    jk_excess,
    pauli_letters,
    philox_uniforms,
    rotation_angles,
    slot_cover,
)
from .linalg import left_mul_matrix
from .quaternion import TOLERANCE, ImaginaryAxis, Quaternion

# Published performance targets, pipeline -> (exponent, p_th), attached
# to outputs as annotations only.
_TARGETS = {"standard": (2.0, 0.01), "quaternionic": (2.2, 0.015)}

DEFAULT_DETECTION_THRESHOLD = 0.01


@dataclass(frozen=True)
class SweepConfig:
    """One logical-error-rate sweep: a code, a noise template, and a p grid."""

    code_id: str
    noise: NoiseModel
    p_values: tuple[float, ...]
    trials: int
    seed: int
    quaternionic_detection: bool = False
    detection_threshold: float = DEFAULT_DETECTION_THRESHOLD

    def __post_init__(self) -> None:
        if self.code_id not in CODE_IDS:
            raise ValueError(f"code_id must be one of {CODE_IDS}, got {self.code_id!r}")
        p_values = tuple(self.p_values)
        if not p_values:
            raise ValueError("p_values must be nonempty")
        for p in p_values:
            if not (is_number(p) and 0.0 <= p < 1.0):
                raise ValueError(f"p_values must be real numbers in [0, 1), got {p!r}")
        object.__setattr__(self, "p_values", tuple(map(float, p_values)))
        if any(b <= a for a, b in zip(self.p_values, self.p_values[1:])):
            raise ValueError("p_values must be strictly increasing")
        # Trials are numbered by 64-bit counters (count_failures).
        if not (is_number(self.trials, numbers.Integral) and 1 <= self.trials <= 2**64):
            raise ValueError(f"trials must be an integer in [1, 2**64], got {self.trials!r}")
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", check_counter("seed", self.seed))
        if not isinstance(self.quaternionic_detection, bool):
            raise ValueError(
                f"quaternionic_detection must be true or false, got {self.quaternionic_detection!r}"
            )
        threshold = self.detection_threshold
        # NaN would disable detection: every comparison with it is false.
        if not (is_number(threshold) and 0.0 <= threshold < math.inf):
            raise ValueError(
                f"detection_threshold must be a finite real number >= 0, got {threshold!r}"
            )
        object.__setattr__(self, "detection_threshold", float(threshold))


@dataclass(frozen=True)
class SweepPoint:
    p: float
    failures: int
    trials: int
    p_L: float
    stderr: float


@dataclass(frozen=True)
class SweepResult:
    code_id: str
    seed: int
    points: tuple[SweepPoint, ...]


@dataclass(frozen=True)
class FitResult:
    """Log-log line fit of a (p, p_L) curve.

    ``p_th`` follows the intercept convention ``exp(-intercept / slope)``;
    ``p_th_crossing`` is where the fitted line meets ``p_L == p`` (``None``
    when the slope is too close to 1 for that to exist).
    """

    exponent: float
    p_th: float
    p_th_crossing: float | None
    residual: float


def closed_form_three_qubit(p: float) -> float:
    """Failure probability of the 3-qubit bit-flip construction: ``3 p^2 (1-p) + p^3``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    return 3.0 * p * p * (1.0 - p) + p**3


def scaling_model(p: float, p_th: float, d: int) -> float:
    """Suppression law ``(p / p_th) ** ((d + 1) // 2)``."""
    if p_th <= 0.0:
        raise ValueError("p_th must be positive")
    if d < 1:
        raise ValueError("d must be >= 1")
    return (p / p_th) ** ((d + 1) // 2)


def suppression_factor(p_L_d: float, p_L_d2: float) -> float:
    """Ratio of logical error rates between distances d and d + 2."""
    if p_L_d <= 0.0 or p_L_d2 <= 0.0:
        raise ValueError("logical error rates must be positive")
    return p_L_d / p_L_d2


def score_event(
    code: StabilizerCode,
    event: ErrorEvent,
    quaternionic_detection: bool = False,
    detection_threshold: float = DEFAULT_DETECTION_THRESHOLD,
) -> bool:
    """Score one already-sampled event; True means logical failure.

    Pauli letters are scored algebraically against the decoded correction;
    rotations are scored on the ``|0_L>`` codeword as residual j/k
    strength after whatever corrections the pipeline performs.  An excess
    at or below :data:`~hqec.quaternion.TOLERANCE` is rounding residue and
    counts as zero, whatever the threshold.
    """
    outcome = decode(syndrome_of(event.pauli, code), code)
    if outcome.unknown or logical_failure(event.pauli, outcome.correction, code):
        return True
    if not event.rotations:
        return False
    threshold = max(detection_threshold, TOLERANCE)
    reference = code.codeword_zero
    damaged = apply_rotations(reference, event.rotations, event.rot_mode)
    if quaternionic_detection:
        flagged = {
            flag.qubit
            for flag in detect_rotations(damaged, reference, threshold, event.rot_mode)
        }
        for rot in event.rotations:
            if rot.qubit in flagged:
                damaged = correct_rotation(damaged, rot.qubit, rot.axis, rot.angle, event.rot_mode)
    return jk_excess(damaged, reference) > threshold


def thread_count() -> int:
    """Worker count from ``HQEC_THREADS``: unset means 1, 0 means every CPU.

    Raises ValueError for a value that is not a nonnegative integer.
    """
    raw = os.environ.get("HQEC_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"HQEC_THREADS must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"HQEC_THREADS must be >= 0, got {value}")
    if value == 0:
        return os.cpu_count() or 1
    return value


#: Trials per worker: a sweep starts one pool worker for each full
#: ``CHUNK_TRIALS`` trials, at most ``HQEC_THREADS``, and no pool for fewer
#: than two workers; below that, starting the pool costs about as much as
#: the work it would split.  The engine also scores at most this many
#: trials per batch.
CHUNK_TRIALS = 8192

#: Philox words the engine draws per batch, which bounds its working set
#: whatever the trial count: a batch holds ``CHUNK_WORDS // w`` trials that
#: read ``w`` words each (3276 Pauli-only perfect5 trials, 2184 with fixed
#: angles).  It also bounds the rows :func:`rotation_verdicts` scores at
#: once, which are the distinct unseen subsets of one batch.
CHUNK_WORDS = 2**15

#: Half-width of the band around the detection threshold in which the
#: batched rotation scorer defers to :func:`score_event`.  It sums in
#: another order than that oracle, so a comparison this close to the
#: threshold could go the other way there.
GUARD = 1e-9


def count_failures(
    code: StabilizerCode, pipelines: tuple[tuple[NoiseModel, bool, float], ...],
    p_values: tuple[float, ...], seed: int, start: int, stop: int,
) -> list[list[int]]:
    """Failures among trials ``start .. stop - 1`` at each p of ``p_values``, per pipeline.

    The batched trial engine.  A pipeline is a ``(noise, detect, threshold)``
    triple whose ``noise`` is a template; each point replaces its ``p``.
    Entry ``[j][i]`` equals the number of those trials ``t`` whose event
    :func:`~hqec.noise.sample_error` draws for ``(seed, t)`` from pipeline
    ``j``'s noise at ``p_values[i]`` fails :func:`score_event` with its
    ``detect`` and ``threshold``, bit for bit.  Trials are scored in chunks
    of at most :data:`CHUNK_TRIALS` trials and :data:`CHUNK_WORDS` draws, so
    the working set does not grow with the trials.  The uniforms of a chunk
    are drawn once for every point and pipeline: ``2 * n`` words without
    rotations, ``3 * n`` when every angle is ``fixed``, else ``4 * n``.
    Only the trials hit below the largest ``p`` can fail on the Pauli
    channel, so while they are at most half of the chunk only they are
    scored on it.  The letters are mapped to signatures once per chunk,
    shared by pipelines whose Pauli weights agree, and each point XORs the
    signatures of the qubits hit below its ``p``.  The rotation channel
    does not depend on ``p``.  With a ``fixed`` angle a trial's verdict is
    read from :func:`rotation_verdicts` by the set of qubits it rotates.
    With a ``uniform`` one the chunk's rotated trials are scored once, as
    arrays of damaged ``|0_L>`` states shared by pipelines whose rotation
    parameters agree, and a trial whose compared excesses lie within
    :data:`GUARD` of the threshold is scored again through
    :func:`score_event` with its Pauli part removed.
    """
    if not 0 <= start <= stop <= 2**64:
        raise ValueError(f"need 0 <= start <= stop <= 2**64, got {start}, {stop}")
    n = code.n
    angles = {noise.rot_angle.kind for noise, _, _ in pipelines if noise.p_rot > 0.0}
    width = n * (4 if "uniform" in angles else 3 if angles else 2)
    counts = [[0] * len(p_values) for _ in pipelines]
    step = min(CHUNK_TRIALS, max(1, CHUNK_WORDS // width))
    for lo in range(start, stop, step):
        trials = np.uint64(lo) + np.arange(min(step, stop - lo), dtype=np.uint64)
        chunk = _chunk_failures(code, pipelines, p_values, seed, trials, width)
        for tally, failures in zip(counts, chunk):
            tally[:] = map(sum, zip(tally, failures))
    return counts


def _chunk_failures(code, pipelines, p_values, seed, trials, width) -> list[list[int]]:
    """:func:`count_failures` of one chunk, whose arrays die before the next is drawn."""
    n = code.n
    draws = philox_uniforms(seed, trials, width)
    # Only the trials with a Pauli error at the largest p need letters and XORs.
    # Picking them out costs a copy, which pays only while at most half are hit.
    u_err = draws[:, :n].T  # contiguous, so the XOR below runs along the trials
    hit = (u_err < max(p_values)).any(axis=0)
    few = 2 * np.count_nonzero(hit) <= trials.size

    def pick(per_trial: np.ndarray) -> np.ndarray:
        return per_trial.compress(hit, axis=-1) if few else per_trial

    u_err = pick(u_err)
    pauli: dict = {}
    subsets: dict = {}
    sampled: dict = {}
    counts = []
    for noise, detect, threshold in pipelines:
        weights = noise.pauli_weights
        if weights not in pauli:
            letters = pick(pauli_letters(noise, draws, n).T)
            signatures = code.signatures.ravel()[letters + 3 * np.arange(n)[:, None]]
            pauli[weights] = [
                code.verdicts[np.bitwise_xor.reduce(signatures * (u_err < p), axis=0)]
                for p in p_values
            ]
        failed = pauli[weights]
        if noise.p_rot > 0.0:
            if noise.rot_angle.kind == "fixed":
                if noise.p_rot not in subsets:
                    turned = draws[:, 2 * n : 3 * n] < noise.p_rot
                    subsets[noise.p_rot] = turned @ (1 << np.arange(n))
                rotated = rotation_verdicts(code, noise.rot_axis, noise.rot_angle.theta,
                                            noise.rot_mode, detect, threshold,
                                            subsets[noise.p_rot])
            else:
                key = (noise.p_rot, noise.rot_axis, noise.rot_angle, noise.rot_mode)
                if key not in sampled:
                    sampled[key] = _SampledRotations(code, noise, draws)
                rotated = sampled[key].failures(detect, threshold)
            # a trial without a Pauli error fails on its rotations alone
            with_pauli = pick(rotated)
            alone = int(np.count_nonzero(rotated)) - int(np.count_nonzero(with_pauli))
            counts.append([int(np.count_nonzero(f | with_pauli)) + alone for f in failed])
        else:
            counts.append([int(np.count_nonzero(f)) for f in failed])
    return counts


@functools.lru_cache(maxsize=256)
def _verdict_memo(code, axis, angle, mode, detect, threshold) -> np.ndarray:
    """The :func:`rotation_verdicts` memo of one key: an int8 per subset, -1 until scored."""
    return np.full(2**code.n, -1, dtype=np.int8)


def rotation_verdicts(
    code: StabilizerCode, axis: ImaginaryAxis, angle: float, mode: str,
    detect: bool, threshold: float, subsets: np.ndarray,
) -> np.ndarray:
    """Rotation-channel verdict of each subset of rotated qubits, at one fixed angle.

    Entry ``r`` of the bool array returned is :func:`score_event` of the
    event with no Pauli part and, on each qubit ``q`` with bit ``q - 1`` of
    ``subsets[r]`` set, a rotation by ``angle`` about ``axis`` in slot mode
    ``mode``: the event :func:`~hqec.noise.sample_error` gives at ``p = 0``
    when exactly those qubits are rotated.  The verdicts are filled in on
    demand in a per-process memo of ``2**code.n`` bytes for each set of the
    other arguments (1/32 of the ``codeword_zero`` the code holds): the
    distinct subsets it does not know yet are scored once, as arrays.
    """
    memo = _verdict_memo(code, axis, angle, mode, detect, threshold)
    verdicts = memo[subsets]
    unknown = verdicts < 0
    if unknown.any():
        # a set, since np.unique imports numpy.ma (about 1 MB) on its first call
        new = np.array(sorted(set(subsets[unknown].tolist())))
        rotated = (new[:, None] >> np.arange(code.n)) & 1 == 1
        scorer = _RotationScorer(code, axis, mode, np.where(rotated, angle, 0.0))
        memo[new] = scorer.failures(detect, threshold)
        verdicts = memo[subsets]
    return verdicts.view(bool)


class _RotationScorer:
    """The rotation channel of distinct rows of per-qubit angles, scored as arrays.

    All rotations of an event turn about one axis, so they commute.  Each
    slot of the damaged ``|0_L>`` is therefore the reference slot multiplied
    on the left by ``w + v a``, the product of the units
    ``cos(theta) + a sin(theta)`` of the rotations whose slot
    (:func:`noise.slot_cover`) holds it, with ``a`` the axis as a pure
    quaternion.  Units are multiplied, not angles added, so the result
    stays as accurate as the oracle's for any angle.  Only the slots where
    ``|0_L>`` is nonzero are kept, since left multiplication keeps a zero
    slot at zero.  The damaged states are built once and scored for each
    ``(detect, threshold)`` asked of them; a row near the threshold is
    scored by :func:`score_event` on the event its angles describe.
    """

    def __init__(self, code, axis, mode, angles) -> None:
        self.code, self.axis, self.mode, self.angles = code, axis, mode, angles
        self.moved = angles != 0.0
        self.cos, self.sin = np.cos(angles), np.sin(angles)
        ref = code.codeword_zero.amps.components
        support = np.flatnonzero(ref.any(axis=1))
        ref = ref[support]
        self.cover = slot_cover(code.n, mode)[:, support]
        self.axis_norm = axis.x * axis.x + axis.y * axis.y + axis.z * axis.z
        turned = ref @ left_mul_matrix(Quaternion(0.0, axis.x, axis.y, axis.z)).T
        self.ref_jk, self.turned_jk = ref[:, 2:], turned[:, 2:]
        ref_strengths = self.ref_jk**2
        self.ref_total = ref_strengths.sum(axis=0)
        self.ref_slots = self.cover @ ref_strengths
        ones = np.ones((angles.shape[0], support.size))
        self.w, self.v = self._multiply(ones, np.zeros_like(ones), self.cos, self.sin)
        self.strengths = self._jk_strengths(self.w, self.v)

    def _multiply(self, w, v, cos, sin):
        """``w + v a`` times the unit ``cos + a sin`` of each qubit over its slots."""
        for q, slots in enumerate(self.cover):
            c = np.where(slots, cos[:, q, None], 1.0)
            s = np.where(slots, sin[:, q, None], 0.0)
            w, v = w * c - self.axis_norm * (v * s), w * s + v * c
        return w, v

    def _jk_strengths(self, w, v) -> np.ndarray:
        """``(rows, slots, 2)`` squared j and k components of the damaged slots."""
        return (w[..., None] * self.ref_jk + v[..., None] * self.turned_jk) ** 2

    def failures(self, detect: bool, threshold: float) -> np.ndarray:
        """Rotation-channel verdict of each row, as :func:`score_event` gives it.

        With detection, a qubit is flagged when its slot j or k strength
        exceeds the reference's by more than ``threshold``, and the
        rotations of flagged qubits are undone by their inverse units.
        Row ``r`` is scored through :func:`score_event` instead when its
        compared excesses lie within :data:`GUARD` of the threshold
        (per-qubit excesses count for rotated qubits only, since a flag on
        any other corrects nothing).  Excesses are compared against at
        least :data:`~hqec.quaternion.TOLERANCE`, as :func:`score_event`
        does.
        """
        threshold = max(threshold, TOLERANCE)
        w, v, strengths = self.w, self.v, self.strengths
        near = np.zeros(self.moved.shape[0], dtype=bool)
        if detect:
            slots = self.cover @ strengths - self.ref_slots
            flags = (slots > threshold).any(axis=-1)
            near = ((np.abs(slots - threshold) <= GUARD).any(axis=-1) & self.moved).any(axis=-1)
            w, v = self._multiply(
                w, v, np.where(flags, self.cos, 1.0), np.where(flags, -self.sin, 0.0)
            )
            strengths = self._jk_strengths(w, v)
        excess = (strengths.sum(axis=1) - self.ref_total).max(axis=-1)
        failed = excess > threshold
        near |= np.abs(excess - threshold) <= GUARD
        for r in np.flatnonzero(near):
            rotations = tuple(RotationError(q + 1, self.axis, float(angle))
                              for q, angle in enumerate(self.angles[r]) if angle != 0.0)
            event = ErrorEvent(PauliString.identity(self.code.n), rotations, self.mode)
            failed[r] = score_event(self.code, event, detect, threshold)
        return failed


class _SampledRotations:
    """The rotation channel of one chunk of trials whose angles are drawn uniformly.

    Trials whose angles are equal byte for byte share one damaged state, so
    each distinct angle row is built and scored once.
    """

    def __init__(self, code, noise, draws) -> None:
        self.trials = draws.shape[0]
        self.rows, angles = rotation_angles(noise, draws, code.n)
        keys = angles.view(np.dtype((np.void, angles.itemsize * code.n))).ravel()
        _, first, self.inverse = np.unique(keys, return_index=True, return_inverse=True)
        self.scorer = _RotationScorer(code, noise.rot_axis, noise.rot_mode, angles[first])

    def failures(self, detect: bool, threshold: float) -> np.ndarray:
        """Rotation-channel verdict of each trial of the chunk."""
        out = np.zeros(self.trials, dtype=bool)
        out[self.rows] = self.scorer.failures(detect, threshold)[self.inverse]
        return out


def run_sweep(config: SweepConfig) -> SweepResult:
    """Estimate the logical error rate at every p in the grid.

    Trial ``t`` at every p point reuses the stream keyed by
    ``(config.seed, t)``, so the counts are reproducible bit for bit
    regardless of ``HQEC_THREADS`` and adjacent points are positively
    coupled (common random numbers).  ``HQEC_THREADS`` caps the worker
    count, and a worker starts only for each full :data:`CHUNK_TRIALS`
    trials.  With more than one worker, one process pool serves the whole
    sweep and each worker scores a contiguous range of trials at every
    point; otherwise the sweep runs in this process.
    """
    return _run_sweeps((config,))[0]


def _run_sweeps(configs: tuple[SweepConfig, ...]) -> list[SweepResult]:
    """One engine pass for configs that share code, grid, trials and seed."""
    head = configs[0]
    pipelines = tuple(
        (c.noise, c.quaternionic_detection, c.detection_threshold) for c in configs
    )
    args = (get_code(head.code_id), pipelines, head.p_values, head.seed)
    workers = min(thread_count(), head.trials // CHUNK_TRIALS)
    parts = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool starts

        bounds = np.linspace(0, head.trials, workers + 1, dtype=int)
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(count_failures, *args, int(a), int(b))
                    for a, b in zip(bounds[:-1], bounds[1:])
                ]
                parts = [f.result() for f in futures]
        except OSError:
            # Restricted environments without process support run serially;
            # identical counts either way because trials are keyed individually.
            pass
    if parts is None:
        parts = [count_failures(*args, 0, head.trials)]
    results = []
    for config, tallies in zip(configs, zip(*parts)):
        points = []
        for p, count in zip(config.p_values, map(sum, zip(*tallies))):
            p_l = count / config.trials
            stderr = math.sqrt(p_l * (1.0 - p_l) / config.trials)
            points.append(SweepPoint(p, count, config.trials, p_l, stderr))
        results.append(SweepResult(config.code_id, config.seed, tuple(points)))
    return results


def fit_threshold(result: SweepResult) -> FitResult:
    """Least-squares line fit of ``log(p_L)`` against ``log(p)``.

    Zero-failure points carry no log-space information and are excluded
    with a warning; fewer than three usable points, or a degenerate
    (constant) curve, is an error.
    """
    zero_ps = [point.p for point in result.points if point.p_L <= 0.0]
    usable = [(point.p, point.p_L) for point in result.points if point.p_L > 0.0]
    if zero_ps:
        warnings.warn(
            f"excluding {len(zero_ps)} zero-failure point(s) at p = {zero_ps}",
            stacklevel=2,
        )
    if len(usable) < 3:
        raise ValueError(f"need at least 3 points with p_L > 0, have {len(usable)}")
    x = np.log([p for p, _ in usable])
    y = np.log([pl for _, pl in usable])
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise ValueError("degenerate fit: constant p or constant p_L")
    slope, intercept = np.polyfit(x, y, 1)
    if slope == 0.0:
        raise ValueError("degenerate fit: zero slope")
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    p_th = float(np.exp(-intercept / slope))
    if abs(slope - 1.0) > 1e-9:
        crossing = float(np.exp(-intercept / (slope - 1.0)))
    else:
        crossing = None
    return FitResult(exponent=float(slope), p_th=p_th, p_th_crossing=crossing, residual=residual)


@dataclass(frozen=True)
class Figure1Data:
    """Paired standard/quaternionic sweeps with their fits and target annotations."""

    standard: SweepResult
    quaternionic: SweepResult
    standard_fit: FitResult | None
    quaternionic_fit: FitResult | None


def figure1_data(
    standard_config: SweepConfig, quaternionic_config: SweepConfig
) -> Figure1Data:
    """Run a paired comparison of the two decoding pipelines.

    Code, grid, trials and seed must be shared so the pipelines see the
    same realizations; the noise and the threshold may differ.  Both
    sweeps run in one engine pass (one process pool when ``HQEC_THREADS``
    asks for workers), with the counts two :func:`run_sweep` calls give.
    """
    if standard_config.quaternionic_detection:
        raise ValueError("standard_config must have quaternionic_detection disabled")
    if not quaternionic_config.quaternionic_detection:
        raise ValueError("quaternionic_config must have quaternionic_detection enabled")
    for attr in ("code_id", "p_values", "trials", "seed"):
        if getattr(standard_config, attr) != getattr(quaternionic_config, attr):
            raise ValueError(f"paired configs must share {attr}")
    standard, quaternionic = _run_sweeps((standard_config, quaternionic_config))

    def _try_fit(result: SweepResult) -> FitResult | None:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return fit_threshold(result)
        except ValueError:
            return None

    return Figure1Data(standard, quaternionic, _try_fit(standard), _try_fit(quaternionic))


# -- text formats -----------------------------------------------------------

def _g12(value: float) -> str:
    return f"{value:.12g}"


SWEEP_CSV_HEADER = "code_id,p,trials,failures,p_L,stderr,seed"


def _point_row(result: SweepResult, pt: SweepPoint) -> str:
    """One point in the ``SWEEP_CSV_HEADER`` columns."""
    return (
        f"{result.code_id},{_g12(pt.p)},{pt.trials},{pt.failures},"
        f"{_g12(pt.p_L)},{_g12(pt.stderr)},{result.seed}"
    )


def sweep_csv(result: SweepResult) -> str:
    lines = [SWEEP_CSV_HEADER, *(_point_row(result, pt) for pt in result.points)]
    return "\n".join(lines) + "\n"


def _unfit_field(pt: SweepPoint) -> str | None:
    """The first field of a parsed CSV point that no sweep could have written."""
    if not 0.0 < pt.p < 1.0:  # a comparison with NaN is false
        return "p, not in (0, 1)"
    if pt.trials < 1:
        return "trials, below 1"
    if not 0 <= pt.failures <= pt.trials:
        return "failures, not in [0, trials]"
    if not 0.0 <= pt.p_L <= 1.0:
        return "p_L, not in [0, 1]"
    if not math.isfinite(pt.stderr):
        return "stderr, not finite"
    return None


def parse_sweep_csv(text: str) -> SweepResult:
    """The sweep a ``sweep_csv`` text holds; ``ValueError`` names the first bad line."""
    reader = csv.reader(io.StringIO(text))
    expected = SWEEP_CSV_HEADER.split(",")
    header = next(reader, None)
    if header != expected:
        raise ValueError(f"bad CSV header: expected {expected}, got {header}")
    points, first = [], None
    for fields in filter(None, reader):  # blank lines are skipped
        where = f"CSV line {reader.line_num}"
        if len(fields) != len(expected):
            raise ValueError(
                f"{where} has {len(fields)} fields, not {len(expected)}: {','.join(fields)!r}"
            )
        r = dict(zip(expected, fields))
        try:
            pt = SweepPoint(p=float(r["p"]), failures=int(r["failures"]), trials=int(r["trials"]),
                            p_L=float(r["p_L"]), stderr=float(r["stderr"]))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        bad = _unfit_field(pt)
        if bad is not None:
            raise ValueError(f"{where} has a bad {bad}: {','.join(fields)!r}")
        points.append(pt)
        first = first or r
    if first is None:
        raise ValueError("CSV has no data rows")
    return SweepResult(first["code_id"], int(first["seed"]), tuple(points))


def _fit_payload(fit: FitResult | None) -> dict | None:
    if fit is None:
        return None
    return {
        "slope": fit.exponent,
        "p_th_intercept": fit.p_th,
        "p_th_crossing": fit.p_th_crossing,
        "residual": fit.residual,
    }


def fit_json(fit: FitResult) -> str:
    return json.dumps(_fit_payload(fit))


FIGURE1_CSV_HEADER = (
    "pipeline,code_id,p,trials,failures,p_L,stderr,seed,target_exponent,target_p_th"
)


def figure1_csv(data: Figure1Data, include_model_curves: bool = False) -> str:
    """Combined CSV for a paired sweep, annotated with the published targets.

    With ``include_model_curves`` the suppression-law curves evaluated at
    the target parameters are appended as extra, clearly labelled rows
    (zero trials) so simulated and model-generated data stay distinct.
    """
    lines = [FIGURE1_CSV_HEADER]
    for suffix in ("", "_model") if include_model_curves else ("",):
        for pipeline, result in (("standard", data.standard), ("quaternionic", data.quaternionic)):
            exponent, p_th = _TARGETS[pipeline]
            targets = f"{_g12(exponent)},{_g12(p_th)}"
            for pt in result.points:
                if suffix:
                    # The target exponents are fit values, not integer distances,
                    # so the curve is evaluated directly rather than via scaling_model.
                    pt = SweepPoint(pt.p, 0, 0, (pt.p / p_th) ** exponent, 0.0)
                lines.append(f"{pipeline}{suffix},{_point_row(result, pt)},{targets}")
    return "\n".join(lines) + "\n"


def figure1_fits_json(data: Figure1Data) -> str:
    payload = {
        "standard": _fit_payload(data.standard_fit),
        "quaternionic": _fit_payload(data.quaternionic_fit),
        "targets": {
            pipeline: {"exponent": exponent, "p_th": p_th}
            for pipeline, (exponent, p_th) in _TARGETS.items()
        },
    }
    return json.dumps(payload)
