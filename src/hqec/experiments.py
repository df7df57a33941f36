"""Monte Carlo logical-error-rate estimation, scaling fits, and the figure 1 pair.

A trial samples one error event, decodes the commutation syndrome, and
scores failure on two independent channels:

* Pauli channel: the residual operator (error composed with the decoded
  correction) fails when it anticommutes with a logical representative.
  This is pure operator algebra; phases cannot flip a commutator, so only
  the letters decide.
* Rotation channel: when the event carries rotations, they are applied to
  the ``|0_L>`` codeword and the register fails when its j/k strength
  excess stays above the detection threshold.  With quaternionic
  detection enabled the scoring first locates flagged qubits and undoes
  their rotations with the sampled parameters (oracle correction); the
  standard decoder never corrects, so on the same trials its failure set
  contains the detecting one's by construction.

Sweeps derive every trial from ``(seed, trial)`` alone, which makes the
results independent of how many pool workers score them and lets one
pass of :func:`figure1_data` score the same realizations with
detection off and on, sharing the draws, Pauli failures and rotation states.

:func:`score_event` scores the sampled event of one trial and is the
reference.  Sweeps run the batched engine, :func:`count_failures`: it
draws the uniforms of a chunk of trials at once (:data:`CHUNK_WORDS`
words) and scores them at every p of the grid and for every
``(detect, threshold)`` scoring, with counts equal to the per-trial loop
bit for bit, and draws only the words its noise reads.  Syndrome and
logical commutation are linear over GF(2) in the error, so the Pauli
channel XORs the code's per-qubit ``signatures`` and looks the result up
in its ``verdicts``, for only the trials with an error at the largest p.
The rotation channel is scored as arrays of damaged ``|0_L>`` states,
over the slots where ``|0_L>`` is nonzero: the rotations of an event
share one axis, so each slot is the reference slot times the unit of its
angle sum; detection is per-qubit slot sums, and correction leaves the
flagged angles out of the sum.  For either angle law a chunk
takes its rotated trials and their angles from
:func:`~hqec.noise.rotation_angles`, once for all its scorings.  With a
``fixed`` angle a trial's verdict depends only on which qubits it turns
by a nonzero angle, so :func:`rotation_verdicts` keeps a per-process
memo of the ``2**n`` subsets and scores only those a chunk brings that
it has not seen; with a ``uniform`` angle each chunk scores the angle
rows of its rotated trials.  A subset or row whose compared excesses lie
within its rounding bound of the threshold, where the oracle's order of
operations could flip the verdict, is scored by :func:`score_event` instead.
"""

from __future__ import annotations

import functools
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
    jk_excess,
    pauli_letters,
    philox_uniforms,
    rotation_angles,
    slot_cover,
)
from .linalg import qmul_components
from .quaternion import TOLERANCE, ImaginaryAxis, is_number, parse_int

# Published performance targets, pipeline -> (exponent, p_th), attached to
# outputs as annotations only.  The order is the scoring order (detection
# off, then on), which figure1_data keys its sweeps and fits by.
_TARGETS = {"standard": (2.0, 0.01), "quaternionic": (2.2, 0.015)}

DEFAULT_DETECTION_THRESHOLD = 0.01


@dataclass(frozen=True)
class SweepConfig:
    """One logical-error-rate sweep: a code, a noise law, and a p grid."""

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

    @classmethod
    def tally(cls, p: float, failures: int, trials: int) -> SweepPoint:
        """The point of ``failures`` in ``trials`` at ``p``, with its binomial standard error."""
        p_l = failures / trials
        return cls(p, failures, trials, p_l, math.sqrt(p_l * (1.0 - p_l) / trials))


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


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the system reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Trials per pool worker: a sweep starts one worker for each full
#: ``WORKER_TRIALS`` trials, at most one per usable CPU, and no pool for
#: fewer than two workers.  On two CPUs a pool of two costs more than it
#: gains below about 150000 ``figure1`` trials.
WORKER_TRIALS = 2**16

#: Philox words the engine draws per chunk, which bounds its working set
#: whatever the trial count: a chunk holds ``CHUNK_WORDS // w`` trials (at
#: least one) that read ``w`` words each (3276 Pauli-only perfect5 trials,
#: 2184 with fixed angles).  It also bounds the rows
#: :func:`rotation_verdicts` scores at once, which are the distinct unseen
#: subsets of one chunk.
CHUNK_WORDS = 2**15


def count_failures(
    code: StabilizerCode, noise: NoiseModel, scorings: tuple[tuple[bool, float], ...],
    p_values: tuple[float, ...], seed: int, start: int, stop: int,
) -> list[list[int]]:
    """Failures among trials ``start .. stop - 1`` at each p of ``p_values``, per scoring.

    The batched trial engine.  A scoring is a ``(detect, threshold)``
    pair, and entry ``[j][i]`` equals the number of those trials ``t``
    whose event :func:`~hqec.noise.sample_error` draws for ``(seed, t)`` at
    ``p_values[i]`` fails :func:`score_event` with scoring ``j``, bit for
    bit; that event is one row of the draws here, read by the same rules,
    and numpy's Philox generator is the tests' oracle for both.  Trials are
    scored in chunks of :data:`CHUNK_WORDS` draws, so the working set does
    not grow with the trials.  The uniforms of a chunk are drawn once for
    every point and scoring: ``2 * n`` words without rotations, ``3 * n``
    with a ``fixed`` angle, ``4 * n`` with a ``uniform`` one.  The module
    docstring says how each channel is scored.
    """
    if not 0 <= start <= stop <= 2**64:
        raise ValueError(f"need 0 <= start <= stop <= 2**64, got {start}, {stop}")
    width = code.n * (2 if noise.p_rot == 0.0 else 3 if noise.rot_angle.kind == "fixed" else 4)
    counts = [[0] * len(p_values) for _ in scorings]
    step = max(1, CHUNK_WORDS // width)
    for lo in range(start, stop, step):
        trials = np.uint64(lo) + np.arange(min(step, stop - lo), dtype=np.uint64)
        chunk = _chunk_failures(code, noise, scorings, p_values, seed, trials, width)
        for tally, failures in zip(counts, chunk):
            tally[:] = map(sum, zip(tally, failures))
    return counts


def _chunk_failures(code, noise, scorings, p_values, seed, trials, width) -> list[list[int]]:
    """:func:`count_failures` of one chunk, whose arrays die before the next is drawn."""
    n = code.n
    draws = philox_uniforms(seed, trials, width)
    # Only the trials with a Pauli error at the largest p need letters and XORs.
    u_err = draws[:, :n].T
    hit = (u_err < max(p_values)).any(axis=0)
    u_err = u_err.compress(hit, axis=1)  # contiguous, so the XOR below runs along the trials
    letters = pauli_letters(noise, draws, n).T.compress(hit, axis=1)
    signatures = code.signatures.ravel()[letters + 3 * np.arange(n)[:, None]]
    failed = [code.verdicts[np.bitwise_xor.reduce(signatures * (u_err < p), axis=0)]
              for p in p_values]
    if noise.p_rot == 0.0:
        return [[int(np.count_nonzero(f)) for f in failed]] * len(scorings)
    rows, _, angles = rotation_angles(noise, draws, n)
    if noise.rot_angle.kind == "fixed":
        # a zero angle is the identity unit: subset 0, which passes
        score = functools.partial(
            rotation_verdicts, code, noise.rot_axis, noise.rot_angle.theta, noise.rot_mode,
            subsets=(angles != 0.0) @ (1 << np.arange(n)))
    else:
        score = _RotationScorer(code, noise.rot_axis, noise.rot_mode, angles).failures
    counts = []
    for detect, threshold in scorings:
        rotated = np.zeros(trials.size, dtype=bool)
        rotated[rows] = score(detect, threshold)
        # a trial without a Pauli error fails on its rotations alone
        with_pauli = rotated[hit]
        alone = int(np.count_nonzero(rotated)) - int(np.count_nonzero(with_pauli))
        counts.append([int(np.count_nonzero(f | with_pauli)) + alone for f in failed])
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
    ``mode``: the event :func:`~hqec.noise.sample_error`, one row of the
    engine's draws, gives at ``p = 0`` when exactly those qubits are
    rotated (the tests' oracle reads it from numpy's Philox generator).
    The verdicts are filled in on demand in a per-process memo of
    ``2**code.n`` bytes for each set of the other arguments (1/32 of the
    ``codeword_zero`` the code holds): the distinct subsets it does not
    know yet are scored once, as arrays.
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
    """The rotation channel of rows of per-qubit angles, scored as arrays.

    All rotations of an event turn about one axis ``a``, so their units
    ``cos(theta) + a sin(theta)`` commute: each slot of the damaged
    ``|0_L>`` is the reference slot times ``cos(phi) + a sin(phi)`` on the
    left, with ``phi = angles @ cover`` the sum of the angles whose slot
    (:func:`noise.slot_cover`) holds it.  Only the slots where ``|0_L>`` is
    nonzero are kept, since left multiplication keeps a zero slot at zero.
    The states are built once and scored for each ``(detect, threshold)``.

    ``band[r]`` bounds the gap between an excess of row ``r`` and the one
    :func:`score_event` compares (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 3; ``u = eps / 2``).  The row has k nonzero
    angles, S = sum |theta|; the N kept slots weigh W = sum |ref|**2; and
    ``|a|**2 = 1 + delta``.  Against exact ``(cos(phi) + a sin(phi)) ref``,
    a slot here is off by ``e <= (n S + 12) u`` times |ref|: the angle sum
    (gamma_{n-1} S), cos and sin (1 ulp, as numpy's accuracy tests hold
    them), ``a ref`` (gamma_3: of its four Hamilton terms the u = 0 one
    is an exact zero, and the other three are summed in order), and
    ``cos ref + sin a ref`` (gamma_2).  The oracle's is off by
    ``e <= 2 k (12 u + |delta|)``: at most 2 k units
    (rotations, corrections), each 4 u off from cos and sin, 2 gamma_4 from
    its product, and |delta| from ``u(s) u(t) = u(s + t) - delta sin s sin t``.
    A strength moves by (2 + e) e |ref|**2.  This side sums N squares twice
    (gamma_N W), the oracle twice with the correctly rounded ``math.fsum``
    (2 u W each, in any order), and each side subtracts once (u W): to first
    order W (n eps S + (N + 15) eps + 4 k (6 eps + |delta|)), or (N + 3) eps W if k = 0.
    ``band`` is W (4 n eps S + 4 (N + n) eps + 4 k (8 eps + |delta|)); the
    slack covers the squared e, the 3 u in the computed ``delta``, and any
    S: past ``n eps S = 2`` the band passes 8 W, while excesses here lie in
    [-W, 4 W] and the oracle's in [-W, W].  An angle sum past the largest
    double is ``inf``, whose cosine is NaN, so a NaN excess counts as near.
    """

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, code, axis, mode, angles) -> None:
        self.code, self.axis, self.mode, self.angles = code, axis, mode, angles
        ref = code.codeword_zero.amps.components
        support = np.flatnonzero(ref.any(axis=1))
        ref = ref[support]
        self.cover = slot_cover(code.n, mode)[:, support]
        turned = qmul_components(np.array((0.0, axis.x, axis.y, axis.z)), ref)
        self.ref_jk, self.turned_jk = ref[:, 2:], turned[:, 2:]
        ref_strengths = self.ref_jk**2
        self.ref_total = ref_strengths.sum(axis=0)
        self.ref_slots = self.cover @ ref_strengths
        self.strengths = self._jk_strengths(angles @ self.cover)
        eps, delta = np.finfo(float).eps, abs(axis.x**2 + axis.y**2 + axis.z**2 - 1.0)
        self.band = 4 * eps * float(np.sum(ref**2)) * (code.n * (np.abs(angles).sum(axis=1) + 1)
            + support.size + np.count_nonzero(angles, axis=1) * (8 + delta / eps))

    def _jk_strengths(self, phi) -> np.ndarray:
        """``(rows, slots, 2)`` squared j and k components of the slots turned by ``phi``."""
        phi = phi[..., None]
        return (np.cos(phi) * self.ref_jk + np.sin(phi) * self.turned_jk) ** 2

    @np.errstate(over="ignore", invalid="ignore")
    def failures(self, detect: bool, threshold: float) -> np.ndarray:
        """Rotation-channel verdict of each row, as :func:`score_event` gives it.

        With detection, a qubit is flagged when its slot j or k strength
        exceeds the reference's by more than ``threshold``, and the
        rotations of flagged qubits are undone by leaving their angles out.
        Row ``r`` is scored through :func:`score_event` instead when its
        compared excesses lie within ``band[r]`` of the threshold
        (per-qubit excesses count for rotated qubits only, since a flag on
        any other corrects nothing).  Excesses are compared against at
        least :data:`~hqec.quaternion.TOLERANCE`, as :func:`score_event`
        does.
        """
        threshold = max(threshold, TOLERANCE)
        strengths, near = self.strengths, False
        if detect:
            slots = self.cover @ strengths - self.ref_slots
            flags = (slots > threshold).any(axis=-1)
            near = ~(np.abs(slots - threshold) > self.band[:, None, None])
            near = (near.any(axis=-1) & (self.angles != 0.0)).any(axis=-1)
            strengths = self._jk_strengths(np.where(flags, 0.0, self.angles) @ self.cover)
        excess = (strengths.sum(axis=1) - self.ref_total).max(axis=-1)
        failed = excess > threshold
        near |= ~(np.abs(excess - threshold) > self.band)
        for r in np.flatnonzero(near):
            rotations = tuple(RotationError(q + 1, self.axis, float(angle))
                              for q, angle in enumerate(self.angles[r]) if angle != 0.0)
            event = ErrorEvent(PauliString.identity(self.code.n), rotations, self.mode)
            failed[r] = score_event(self.code, event, detect, threshold)
        return failed


def run_sweep(config: SweepConfig) -> SweepResult:
    """Estimate the logical error rate at every p in the grid.

    Trial ``t`` at every p point reuses the stream keyed by
    ``(config.seed, t)``, so the counts are reproducible bit for bit
    regardless of the worker count and adjacent points are positively
    coupled (common random numbers).  A worker starts for each full
    :data:`WORKER_TRIALS` trials, at most one per CPU the process may run
    on (:func:`usable_cpus`).  With more than one worker, one process
    pool serves the whole sweep and each worker scores a contiguous range
    of trials at every point; otherwise the sweep runs in this process.
    """
    return _run_sweeps(config, (config.quaternionic_detection,))[0]


def _run_sweeps(config: SweepConfig, detects: tuple[bool, ...]) -> list[SweepResult]:
    """One engine pass over ``config``'s trials, scored with each of ``detects``."""
    scorings = tuple((detect, config.detection_threshold) for detect in detects)
    args = (get_code(config.code_id), config.noise, scorings, config.p_values, config.seed)
    workers = min(usable_cpus(), config.trials // WORKER_TRIALS)
    parts = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool starts

        bounds = [config.trials * w // workers for w in range(workers + 1)]
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(count_failures, *args, a, b)
                           for a, b in zip(bounds, bounds[1:])]
                parts = [f.result() for f in futures]
        except OSError:
            # Restricted environments without process support run serially;
            # identical counts either way because trials are keyed individually.
            pass
    if parts is None:
        parts = [count_failures(*args, 0, config.trials)]
    results = []
    for tallies in zip(*parts):
        counts = zip(config.p_values, map(sum, zip(*tallies)))
        points = tuple(SweepPoint.tally(p, count, config.trials) for p, count in counts)
        results.append(SweepResult(config.code_id, config.seed, points))
    return results


def fit_threshold(result: SweepResult) -> FitResult:
    """Least-squares line fit of ``log(p_L)`` against ``log(p)``.

    A point is usable only if ``p > 0`` and ``p_L > 0``: any other has no
    finite logarithm, and is excluded with a warning.  Fewer than three
    usable points, or a degenerate (constant) curve, is an error.
    """
    usable = [(point.p, point.p_L) for point in result.points if point.p > 0.0 and point.p_L > 0.0]
    excluded = [point.p for point in result.points if not (point.p > 0.0 and point.p_L > 0.0)]
    if excluded:
        warnings.warn(
            f"excluding {len(excluded)} zero-failure or p <= 0 point(s) at p = {excluded}",
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
    # A nearly flat line puts either threshold past the largest double: inf.
    with np.errstate(over="ignore"):
        p_th = float(np.exp(-intercept / slope))
        crossing = float(np.exp(-intercept / (slope - 1.0))) if abs(slope - 1.0) > 1e-9 else None
    return FitResult(exponent=float(slope), p_th=p_th, p_th_crossing=crossing, residual=residual)


@dataclass(frozen=True)
class Figure1Data:
    """Each pipeline's sweep and fit, keyed by pipeline in ``_TARGETS`` order."""

    sweeps: dict[str, SweepResult]
    fits: dict[str, FitResult | None]

    def row_sets(self, include_model_curves: bool = False) -> dict[str, SweepResult]:
        """The labelled sweeps for :func:`figure1_csv`: measured, then any :func:`model_curve`."""
        sets = dict(self.sweeps)
        if include_model_curves:
            sets.update((f"{pipeline}_model", model_curve(result, pipeline))
                        for pipeline, result in self.sweeps.items())
        return sets


def figure1_data(config: SweepConfig) -> Figure1Data:
    """Score one sweep with the standard decoder and with quaternionic detection.

    Both pipelines score the same realizations in one engine pass (one
    process pool when the trials and usable CPUs call for one), with the counts
    :func:`run_sweep` gives with ``quaternionic_detection`` off and on.
    ``config`` names the standard pipeline, so it must have detection off.
    """
    if config.quaternionic_detection:
        raise ValueError("figure1_data needs a config with quaternionic_detection disabled")
    sweeps = dict(zip(_TARGETS, _run_sweeps(config, (False, True))))
    fits = {}
    for pipeline, result in sweeps.items():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fits[pipeline] = fit_threshold(result)
        except ValueError:
            fits[pipeline] = None
    return Figure1Data(sweeps, fits)


def model_curve(result: SweepResult, pipeline: str) -> SweepResult:
    """``pipeline``'s target law ``(p / p_th) ** exponent`` at ``result``'s p, with 0 trials."""
    exponent, p_th = _TARGETS[pipeline]
    # The target exponents are fit values, not integer distances: no scaling_model.
    points = tuple(SweepPoint(pt.p, 0, 0, (pt.p / p_th) ** exponent, 0.0) for pt in result.points)
    return SweepResult(result.code_id, result.seed, points)


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


def _unfit_field(row: str, p: float, failures: int, trials: int, key: tuple[str, int],
                 first: tuple[str, int], points: list[SweepPoint]) -> str | None:
    """The first field of a parsed CSV row that no sweep could have written.

    ``key`` is the row's ``(code_id, seed)``, which every row of a sweep
    shares with its first row, ``first``; ``points`` are the rows before it.
    """
    if key[0] not in CODE_IDS:
        return f"code_id, not one of {', '.join(CODE_IDS)}"
    for name, value, first_value in zip(("code_id", "seed"), key, first):
        if value != first_value:
            return f"{name}, not the first row's {first_value}"
    if not 0.0 < p < 1.0:  # a comparison with NaN is false
        return "p, not in (0, 1)"
    if trials < 1:
        return "trials, below 1"
    if not 0 <= failures <= trials:
        return "failures, not in [0, trials]"
    if points and trials != points[0].trials:
        return f"trials, not the first row's {points[0].trials}"
    if points and p <= points[-1].p:
        return f"p, not above the previous row's {_g12(points[-1].p)}"
    written = _point_row(SweepResult(*key, ()), SweepPoint.tally(p, failures, trials))
    for name, field, want in zip(SWEEP_CSV_HEADER.split(","), row.split(","), written.split(",")):
        if field != want:
            return f"{name}, not {want} as a sweep writes it"
    return None


def parse_sweep_csv(text: str) -> SweepResult:
    """The sweep a ``sweep_csv`` text holds; ``ValueError`` names the first bad line.

    A row's point is rebuilt from its p, trials and failures, and the row is
    taken only if :func:`_point_row` of that point gives it back byte for byte.
    """
    lines = text.split("\n")
    expected = SWEEP_CSV_HEADER.split(",")
    if lines[0] != SWEEP_CSV_HEADER:
        raise ValueError(f"bad CSV header: expected {expected}, got {lines[0].split(',')}")
    points, first = [], None
    for number, row in enumerate(lines[1:], start=2):
        if not row:
            continue  # blank lines are skipped
        where, fields = f"CSV line {number}", row.split(",")
        if len(fields) != len(expected):
            raise ValueError(f"{where} has {len(fields)} fields, not {len(expected)}: {row!r}")
        r = dict(zip(expected, fields))
        try:
            p, failures, trials = float(r["p"]), parse_int(r["failures"]), parse_int(r["trials"])
            seed = check_counter("seed", parse_int(r["seed"]))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        first = first or (r["code_id"], seed)
        bad = _unfit_field(row, p, failures, trials, (r["code_id"], seed), first, points)
        if bad is not None:
            raise ValueError(f"{where} has a bad {bad}: {row!r}")
        points.append(SweepPoint.tally(p, failures, trials))
    if first is None:
        raise ValueError("CSV has no data rows")
    return SweepResult(*first, tuple(points))


def fit_fields(fit: FitResult | None) -> dict | None:
    """The JSON fields of a fit, as ``hqec fit`` and :func:`figure1_fits_json` write them."""
    if fit is None:
        return None
    return {
        "slope": fit.exponent,
        "p_th_intercept": fit.p_th,
        "p_th_crossing": fit.p_th_crossing,
        "residual": fit.residual,
    }


FIGURE1_CSV_HEADER = (
    "pipeline,code_id,p,trials,failures,p_L,stderr,seed,target_exponent,target_p_th"
)


def figure1_csv(row_sets: dict[str, SweepResult]) -> str:
    """CSV of labelled row sets, annotated with the targets of the label up to any ``_``."""
    lines = [FIGURE1_CSV_HEADER]
    for label, result in row_sets.items():
        exponent, p_th = _TARGETS[label.split("_")[0]]
        targets = f"{_g12(exponent)},{_g12(p_th)}"
        lines += (f"{label},{_point_row(result, pt)},{targets}" for pt in result.points)
    return "\n".join(lines) + "\n"


def figure1_fits_json(data: Figure1Data) -> str:
    payload = {pipeline: fit_fields(fit) for pipeline, fit in data.fits.items()}
    payload["targets"] = {pipeline: {"exponent": exponent, "p_th": p_th}
                          for pipeline, (exponent, p_th) in _TARGETS.items()}
    return json.dumps(payload)
