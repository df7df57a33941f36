import concurrent.futures
import dataclasses
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from unittest import mock

from hypothesis import given, settings, strategies as st

from oracles import numpy_rows, oracle_events, random_code, repetition_code

from hqec import cli, experiments
from hqec.quaternion import I_AXIS, J_AXIS, K_AXIS, TOLERANCE, ImaginaryAxis
from hqec.codes import CODE_IDS, PauliString, get_code
from hqec.register import QRegister
from hqec.noise import (
    DRAWS_PER_QUBIT,
    AngleDistribution,
    ErrorEvent,
    NoiseModel,
    RotationError,
    apply_rotations,
    detect_rotations,
    jk_excess,
    philox_uniforms,
    sample_error,
)
from hqec.experiments import (
    FitResult,
    SweepConfig,
    SweepPoint,
    SweepResult,
    closed_form_three_qubit,
    count_failures,
    figure1_csv,
    figure1_data,
    figure1_fits_json,
    fit_fields,
    fit_threshold,
    model_curve,
    parse_sweep_csv,
    rotation_verdicts,
    run_sweep,
    scaling_model,
    score_event,
    suppression_factor,
    sweep_csv,
)


def bitflip_model():
    return NoiseModel(pauli_weights=(1.0, 0.0, 0.0))


# -- closed forms -----------------------------------------------------------

def test_closed_form_three_qubit_endpoints():
    assert closed_form_three_qubit(0.0) == 0.0
    assert closed_form_three_qubit(1.0) == 1.0


def test_closed_form_three_qubit_by_enumeration():
    # independent oracle: enumerate all 8 flip patterns, sum those with >= 2 flips
    for p in (0.028, 0.1, 0.37):
        total = 0.0
        for flips in itertools.product((0, 1), repeat=3):
            weight = sum(flips)
            if weight >= 2:
                total += p**weight * (1 - p) ** (3 - weight)
        assert closed_form_three_qubit(p) == pytest.approx(total, abs=1e-15)
    assert closed_form_three_qubit(0.1) == pytest.approx(0.028, abs=1e-15)


def test_scaling_model_values():
    assert scaling_model(0.015, 0.015, 3) == 1.0
    assert scaling_model(0.0015, 0.015, 3) == pytest.approx(1e-2, rel=1e-12)
    assert scaling_model(0.005, 0.015, 7) == pytest.approx((1 / 3) ** 4, rel=1e-12)
    with pytest.raises(ValueError):
        scaling_model(0.01, 0.0, 3)
    with pytest.raises(ValueError):
        scaling_model(0.01, 0.01, 0)


def test_suppression_factor():
    assert suppression_factor(0.3, 0.3) == 1.0
    d3 = scaling_model(0.005, 0.01, 3)
    d5 = scaling_model(0.005, 0.01, 5)
    assert suppression_factor(d3, d5) == pytest.approx(2.0, rel=1e-12)
    p_th = 0.015
    p = p_th / 2.14
    assert suppression_factor(
        scaling_model(p, p_th, 3), scaling_model(p, p_th, 5)
    ) == pytest.approx(2.14, rel=1e-12)
    with pytest.raises(ValueError):
        suppression_factor(0.0, 0.1)


# -- trial scoring ------------------------------------------------------------

def test_zero_noise_trial_never_fails():
    code = get_code("perfect5")
    events = (sample_error(NoiseModel(), 0.0, 5, seed=1, trial=t) for t in range(50))
    assert not any(score_event(code, event) for event in events)


def test_injected_single_error_is_corrected():
    code = get_code("perfect5")
    for qubit in range(1, 6):
        for letter in "XYZ":
            event = ErrorEvent(PauliString.single(5, qubit, letter), ())
            assert not score_event(code, event)


def test_injected_double_bitflip_fails_three_qubit():
    code = get_code("three")
    event = ErrorEvent(PauliString.from_word("XXI"), ())
    assert score_event(code, event)


def test_logical_operator_scores_as_failure():
    code = get_code("perfect5")
    event = ErrorEvent(PauliString.from_word("XXXXX"), ())
    assert score_event(code, event)


def test_stabilizer_element_scores_as_success():
    code = get_code("perfect5")
    event = ErrorEvent(code.generators[0], ())
    assert not score_event(code, event)


def test_unknown_syndrome_scores_as_failure():
    code = get_code("paper5")
    # Y1 * X2 anticommutes with S1 once ... craft an event whose syndrome is
    # absent from the single-error table
    event = ErrorEvent(PauliString.from_word("YXIII"), ())
    from hqec.codes import decode, syndrome_of

    if decode(syndrome_of(event.pauli, code), code).unknown:
        assert score_event(code, event)


def test_rotation_scoring_separates_pipelines():
    code = get_code("perfect5")
    event = ErrorEvent(
        PauliString.identity(5), (RotationError(2, K_AXIS, math.pi / 8),)
    )
    assert score_event(code, event, quaternionic_detection=False)
    assert not score_event(code, event, quaternionic_detection=True)


def test_subthreshold_rotation_passes_both_pipelines():
    code = get_code("perfect5")
    event = ErrorEvent(PauliString.identity(5), (RotationError(2, K_AXIS, 0.05),))
    assert not score_event(code, event, quaternionic_detection=False)
    assert not score_event(code, event, quaternionic_detection=True)


def test_threshold_zero_passes_undone_rotations():
    # Undoing every rotation leaves a j/k rounding residue of about 1e-17; an
    # excess at or below quaternion.TOLERANCE counts as zero at any threshold.
    code = get_code("paper5")
    rotations = tuple(RotationError(q, K_AXIS, math.pi / 8) for q in (1, 3))
    event = ErrorEvent(PauliString.identity(5), rotations, "all")
    reference = code.codeword_zero
    damaged = apply_rotations(reference, rotations, "all")
    assert {1, 3} <= {flag.qubit for flag in detect_rotations(damaged, reference, 0.0, "all")}
    assert not score_event(code, event, quaternionic_detection=True, detection_threshold=0.0)
    assert score_event(code, event, quaternionic_detection=False, detection_threshold=0.0)


# -- sweep machinery -------------------------------------------------------------

def test_sweep_config_validation():
    model = bitflip_model()
    with pytest.raises(ValueError):
        SweepConfig("three", model, (), trials=10, seed=0)
    with pytest.raises(ValueError):
        SweepConfig("three", model, (0.2, 0.1), trials=10, seed=0)
    with pytest.raises(ValueError):
        SweepConfig("three", model, (0.1, 1.0), trials=10, seed=0)
    with pytest.raises(ValueError):
        SweepConfig("three", model, (0.1,), trials=0, seed=0)


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("detection_threshold", math.nan),
        ("detection_threshold", math.inf),
        ("detection_threshold", -0.01),
        ("detection_threshold", True),
        ("detection_threshold", "0.01"),
        ("trials", True),
        ("trials", 2.0),
        ("trials", "5"),
        ("seed", -1),
        ("seed", 2**64),
        ("seed", 3.7),
        ("seed", False),
        ("quaternionic_detection", "yes"),
        ("code_id", "five"),
        ("p_values", (True,)),
        ("p_values", ("0.1",)),
        ("trials", 2**64 + 1),
    ],
)
def test_sweep_config_refuses_bad_values(field, value):
    # A NaN threshold used to run: every comparison with it is false, so
    # no trial failed on the rotation channel.
    base = dict(code_id="perfect5", noise=NoiseModel(p_rot=0.3), p_values=(0.0,),
                trials=20, seed=0)
    with pytest.raises(ValueError, match=field):
        SweepConfig(**{**base, field: value})


def test_sweep_config_takes_up_to_2_to_the_64_trials():
    assert SweepConfig("three", bitflip_model(), (0.1,), trials=2**64, seed=0).trials == 2**64


def test_sweep_config_normalizes_numpy_and_integer_values():
    config = SweepConfig("three", bitflip_model(), (0.1,), trials=np.int64(5),
                         seed=np.uint64(2**64 - 1), detection_threshold=0)
    assert (config.trials, config.seed, config.detection_threshold) == (5, 2**64 - 1, 0.0)
    assert (type(config.trials), type(config.seed), type(config.detection_threshold)) == (
        int, int, float)


def test_run_sweep_zero_p_single_trial():
    config = SweepConfig("three", bitflip_model(), (0.0,), trials=1, seed=0)
    result = run_sweep(config)
    assert result.points[0].p_L == 0.0
    assert result.points[0].failures == 0


def test_run_sweep_matches_closed_form():
    config = SweepConfig("three", bitflip_model(), (0.1,), trials=10_000, seed=77)
    result = run_sweep(config)
    point = result.points[0]
    expected = closed_form_three_qubit(0.1)
    assert abs(point.p_L - expected) <= 3 * point.stderr
    assert point.stderr == pytest.approx(
        math.sqrt(point.p_L * (1 - point.p_L) / point.trials), abs=1e-15
    )


def test_run_sweep_deterministic():
    config = SweepConfig("perfect5", NoiseModel(), (0.02, 0.05), trials=2000, seed=5)
    a = run_sweep(config)
    b = run_sweep(config)
    assert a == b


def test_run_sweep_thread_invariance(monkeypatch, started_pools):
    config = SweepConfig("three", bitflip_model(), (0.05, 0.1), trials=3000, seed=9)
    # Small enough that each of up to three workers gets its full share.
    monkeypatch.setattr(experiments, "WORKER_TRIALS", 1000)
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 1)
    serial = run_sweep(config)
    assert started_pools == []
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
    assert run_sweep(config) == serial
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 8)
    assert run_sweep(config) == serial
    assert started_pools == [2, 3]


def test_run_sweep_monotone_under_shared_seeds():
    p_values = (0.01, 0.02, 0.05, 0.1, 0.2)
    config = SweepConfig("perfect5", NoiseModel(), p_values, trials=4000, seed=13)
    result = run_sweep(config)
    rates = [pt.p_L for pt in result.points]
    for lo, hi, lo_pt, hi_pt in zip(
        rates, rates[1:], result.points, result.points[1:]
    ):
        assert hi >= lo - 3 * (lo_pt.stderr + hi_pt.stderr)


def test_run_sweep_rejects_unknown_code():
    with pytest.raises(ValueError):
        run_sweep(SweepConfig("nope", bitflip_model(), (0.1,), trials=1, seed=0))


# -- batched engine against the per-trial oracle --------------------------------

_CODES = {code_id: get_code(code_id) for code_id in CODE_IDS}
_REPETITION12 = repetition_code(12)


def oracle_counts(code, noise, p_values, seed, start, stop, detect, threshold):
    """Per-point failure counts of the oracle events, scored one trial at a time."""
    draws = numpy_rows(seed, range(start, stop), DRAWS_PER_QUBIT * code.n)
    return [
        sum(score_event(code, event, detect, threshold)
            for event in oracle_events(noise, p, draws))
        for p in p_values
    ]


def engine_counts(code, noise, p_values, seed, start, stop, detect=False, threshold=0.01):
    """The engine's counts for the one scoring ``(detect, threshold)``."""
    return count_failures(code, noise, ((detect, threshold),), p_values, seed, start, stop)[0]


def words_per_trial(code, noise):
    """Draws a trial reads: 2n without rotations, 3n with a fixed angle, 4n with a uniform one."""
    return code.n * (2 if noise.p_rot == 0.0 else 3 if noise.rot_angle.kind == "fixed" else 4)


def _random_engine_code(seed):
    """A random code on 1 to 10 qubits; an even ``seed`` projects its ``|0_L>``."""
    return random_code(np.random.default_rng(seed), seed, range(1, 11))


@st.composite
def engine_cases(draw):
    code = draw(st.one_of(
        st.sampled_from([*_CODES.values(), _REPETITION12]),
        st.integers(0, 2**32 - 1).map(_random_engine_code),
    ))
    raw = draw(st.tuples(*[st.integers(0, 4)] * 3).filter(any))
    weights = tuple(w / sum(raw) for w in raw)
    p_values = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, 0.02, 0.1, 0.4, 1.0]), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=4,
        )
    )
    angle = AngleDistribution(
        draw(st.sampled_from(["fixed", "uniform"])),
        # a zero angle rotates nothing, yet its qubit was hit
        # two angles near the largest double sum past it in one slot
        draw(st.sampled_from([math.pi / 8, 0.05, 1.2, -0.7, 0.0, -0.0, 1e308, -1.7e308])),
    )
    noise = NoiseModel(
        pauli_weights=weights,
        p_rot=draw(st.sampled_from([0.0, 0.3, 1.0])),
        rot_axis=draw(st.sampled_from([K_AXIS, J_AXIS, I_AXIS, ImaginaryAxis.normalized(1, 2, 3)])),
        rot_angle=angle,
        rot_mode=draw(st.sampled_from(["zero", "all"])),
    )
    # a trial on more than 7 qubits takes the oracle milliseconds, so those get a short range
    length = draw(st.integers(1, 3 if code.n > 7 else 20))
    start = draw(st.one_of(st.integers(1, 10**6), st.just(2**64 - length)))
    return dict(
        code=code,
        noise=noise,
        p_values=p_values,
        seed=draw(st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 2**64 - 1]))),
        start=start,
        stop=start + length,
        scorings=tuple(draw(st.lists(
            st.tuples(st.booleans(), st.sampled_from([0.0, 0.01, 0.2])), min_size=1, max_size=2,
        ))),
        chunk=draw(st.integers(1, 8)),
    )


@settings(max_examples=150, deadline=None)
@given(engine_cases())
def test_batched_engine_equals_per_trial_oracle(case):
    args = (case["code"], case["noise"], case["p_values"], case["seed"],
            case["start"], case["stop"])
    # Chunks of 1 to 8 trials put chunk boundaries inside every drawn range.
    words = case["chunk"] * words_per_trial(case["code"], case["noise"])
    with mock.patch.object(experiments, "CHUNK_WORDS", words):
        counts = count_failures(case["code"], case["noise"], case["scorings"], *args[2:])
    assert counts == [oracle_counts(*args, *scoring) for scoring in case["scorings"]]


@pytest.mark.parametrize("detect", [False, True], ids=["detect off", "detect on"])
@pytest.mark.parametrize("rot_mode", ["zero", "all"])
@pytest.mark.parametrize("theta", [1e308, 1.7e308])
@pytest.mark.parametrize("kind", ["fixed", "uniform"])
@pytest.mark.parametrize("code_id", ["three", "paper5", "perfect5"])
def test_engine_equals_the_oracle_when_angle_sums_overflow(code_id, kind, theta, rot_mode, detect):
    # An angle sum of inf has a NaN cosine, and a NaN excess compares false
    # both with the threshold and with the band: such rows once passed here
    # while the oracle, which turns by one angle at a time, failed them.
    code = _CODES[code_id]
    noise = NoiseModel(p_rot=0.7, rot_axis=J_AXIS, rot_angle=AngleDistribution(kind, theta),
                       rot_mode=rot_mode)
    experiments._verdict_memo.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = count_failures(code, noise, ((detect, 0.01),), (0.0,), 0, 0, 300)
    events = (sample_error(noise, 0.0, code.n, 0, t) for t in range(300))
    assert counts == [[sum(score_event(code, event, detect, 0.01) for event in events)]]


def test_batched_engine_crosses_the_real_chunk_boundary():
    noise = NoiseModel(pauli_weights=(0.5, 0.2, 0.3), p_rot=0.02)
    start = 2**40 + 5
    stop = start + experiments.CHUNK_WORDS // words_per_trial(_CODES["paper5"], noise) + 37
    args = (_CODES["paper5"], noise, (0.05, 0.3), 2**64 - 1, start, stop, True, 0.01)
    counts = engine_counts(*args)
    assert counts == oracle_counts(*args)
    assert all(counts)


@pytest.mark.parametrize(
    "noise, width",
    [
        (NoiseModel(pauli_weights=(0.5, 0.2, 0.3)), 2),
        (NoiseModel(p_rot=0.3, rot_angle=AngleDistribution("fixed", 0.4)), 3),
        (NoiseModel(p_rot=0.2, rot_angle=AngleDistribution("uniform", 1.2),
                    rot_mode="all"), 4),
    ],
    ids=["pauli", "fixed", "uniform"],
)
def test_one_draw_per_chunk_at_the_noise_width(noise, width):
    # Pauli-only, fixed-angle and uniform-angle noise read the first 2n, 3n
    # and 4n draws of a trial; every scoring of one call shares them.
    code = _CODES["perfect5"]
    scorings = ((False, 0.01), (True, 0.01), (True, 0.0))
    p_values, seed, start = (0.05, 0.3), 2**64 - 1, 2**40 + 3
    stop = start + 2 * 8 + 5
    with mock.patch.object(experiments, "CHUNK_WORDS", 8 * width * code.n), mock.patch.object(
        experiments, "philox_uniforms", wraps=experiments.philox_uniforms
    ) as draws:
        together = count_failures(code, noise, scorings, p_values, seed, start, stop)
    assert [c.args[2] for c in draws.call_args_list] == [width * code.n] * 3  # 8 + 8 + 5 trials
    for (detect, threshold), counts in zip(scorings, together):
        args = (code, noise, p_values, seed, start, stop, detect, threshold)
        assert engine_counts(*args) == counts == oracle_counts(*args)
    assert all(all(counts) for counts in together)


def test_run_sweep_emits_no_warning():
    noise = NoiseModel(p_rot=0.05, rot_angle=AngleDistribution("uniform", 1.2))
    config = SweepConfig("perfect5", noise, (0.001, 0.03), trials=300, seed=2**64 - 1,
                         quaternionic_detection=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_sweep(config)


def oracle_excesses(code, event, detect):
    """``(excess, matters)`` for each value ``score_event`` compares with the threshold.

    These are the excess of the uncorrected state and, with detection, each
    qubit's slot j and k excesses; a qubit's flag matters only when the
    qubit carries a rotation to undo.
    """
    reference = code.codeword_zero
    damaged = apply_rotations(reference, event.rotations, event.rot_mode)
    values = [(jk_excess(damaged, reference), True)]
    if detect:
        rotated = {rot.qubit for rot in event.rotations if rot.angle != 0.0}
        for flag in detect_rotations(damaged, reference, -math.inf, event.rot_mode):
            values += [(flag.j_excess, flag.qubit in rotated), (flag.k_excess, flag.qubit in rotated)]
    return values


# Two axes at the edge of ImaginaryAxis's tolerance, |a|**2 - 1 about +-9e-13:
# there a product of units and the unit of the angle sum differ the most.
_AXES = (K_AXIS, ImaginaryAxis.normalized(1, 2, 3),
         ImaginaryAxis(math.sqrt(1 + 9e-13), 0, 0), ImaginaryAxis(0, math.sqrt(1 - 9e-13), 0))


@pytest.mark.parametrize("rot_mode", ["zero", "all"])
@pytest.mark.parametrize(
    "angle",
    [
        AngleDistribution("fixed", math.pi / 8),
        AngleDistribution("uniform", 1.2),
        AngleDistribution("uniform", -0.7),
        AngleDistribution("uniform", 1e10),
    ],
    ids=["fixed", "uniform", "uniform-negative", "uniform-huge"],
)
def test_engine_threshold_on_an_oracle_excess(rot_mode, angle):
    # A threshold equal to a value the oracle compares sits inside the
    # scorer's rounding band, so the batched scorer must defer to score_event
    # for that trial.  Angles near 1e10 put about 1e-6 of rounding in an
    # angle sum, so there the band must widen with the angles.  A value below
    # TOLERANCE is not compared as itself: the threshold is raised to
    # TOLERANCE, which the band need not reach.
    code, seed = _CODES["perfect5"], 41
    for axis in _AXES:
        noise = NoiseModel(p_rot=0.3, rot_axis=axis, rot_angle=angle, rot_mode=rot_mode)
        events = [sample_error(noise, 0.0, code.n, seed, t) for t in range(6)]
        for detect in (False, True):
            values = [
                value for event in events if event.rotations
                for value in oracle_excesses(code, event, detect)
            ]
            # Every rescore calls score_event; clearing the fixed-angle verdict
            # memos makes each one score here.
            experiments._verdict_memo.cache_clear()
            with mock.patch.object(experiments, "score_event", wraps=score_event) as fallback:
                for threshold in sorted({x for x, _ in values}):
                    args = (code, noise, (0.0,), seed, 0, len(events), detect, threshold)
                    assert engine_counts(*args) == oracle_counts(*args), (axis, detect, threshold)
            assert fallback.call_count >= len(
                {x for x, matters in values if matters and x >= TOLERANCE})


def normalized_repetition_code(n):
    """The repetition code on ``n`` qubits with a random normalized ``|0_L>``, nonzero everywhere."""
    zero = np.random.default_rng(n).normal(size=(2**n, 4))
    return dataclasses.replace(repetition_code(n), codeword_zero=QRegister.from_components(
        n, zero / np.linalg.norm(zero)))


@pytest.mark.parametrize("rot_mode", ["zero", "all"])
@pytest.mark.parametrize(
    "angle", [AngleDistribution("uniform", 0.8), AngleDistribution("fixed", math.pi / 8)],
    ids=["uniform", "fixed"])
@pytest.mark.parametrize("code_id", ["perfect5", *(f"repetition{n}" for n in range(6, 11))])
def test_threshold_zero_rescores_no_corrected_row(code_id, angle, rot_mode):
    # At threshold 0 an excess is compared with TOLERANCE = 1e-12, and a row
    # whose flagged rotations are all undone has an excess of exactly 0.  The
    # band must be narrower than 1e-12 there, or every corrected row goes
    # through score_event.  The bound, no rescore at all, was fixed before
    # the first run from the band's size: with W = 1 it is 4 eps (n S + N +
    # n + 8 k), below 1e-12 on perfect5 (N = 16) for every row, and on
    # repetition10 (N = 1024) for every row with k <= 5 rotations, which
    # leaves out about 3e-6 of the trials at p_rot = 0.05.
    if code_id == "perfect5":
        code = _CODES[code_id]
    else:
        code = normalized_repetition_code(int(code_id.removeprefix("repetition")))
    noise = NoiseModel(p_rot=0.05, rot_axis=ImaginaryAxis.normalized(1, 2, 3),
                       rot_angle=angle, rot_mode=rot_mode)
    experiments._verdict_memo.cache_clear()
    with mock.patch.object(experiments, "score_event", wraps=score_event) as fallback:
        without, corrected = count_failures(
            code, noise, ((False, 0.0), (True, 0.0)), (0.0,), 7, 0, 2000)
    assert fallback.call_count == 0
    assert corrected[0] < without[0]  # detection undid some failing rows


def subset_event(code, axis, angle, mode, subset):
    """The p = 0 event that rotates each qubit q with bit q - 1 of ``subset`` set."""
    rotations = tuple(
        RotationError(q, axis, angle) for q in range(1, code.n + 1) if subset >> (q - 1) & 1
    )
    return ErrorEvent(PauliString.identity(code.n), rotations, mode)


def twelve_qubit_subsets():
    """The empty and full sets, each single qubit, and ten more drawn once."""
    singles = [1 << q for q in range(12)]
    drawn = np.random.default_rng(12).integers(1, 2**12 - 1, size=10).tolist()
    return [0, 2**12 - 1, *singles, *drawn]


@pytest.mark.parametrize("code_id", [*CODE_IDS, "repetition12"])
def test_rotation_verdicts_equal_score_event_on_every_subset(code_id):
    # Thresholds 0, 0.01 and, for the three codes, every value the oracle
    # compares with one (each puts some subset in the rounding band).  Scoring
    # one 12-qubit event takes milliseconds, so that code is checked on a
    # fixed set of subsets.
    if code_id == "repetition12":
        code, subsets = _REPETITION12, twelve_qubit_subsets()
    else:
        code = _CODES[code_id]
        subsets = list(range(2**code.n))
    angle = math.pi / 8
    experiments._verdict_memo.cache_clear()
    for axis, mode, detect in itertools.product(_AXES, ("zero", "all"), (False, True)):
        events = [subset_event(code, axis, angle, mode, s) for s in subsets]
        thresholds = {0.0, 0.01}
        if code_id != "repetition12":
            thresholds |= {
                x for event in events if event.rotations
                for x, _ in oracle_excesses(code, event, detect)
            }
        for threshold in sorted(thresholds):
            verdicts = rotation_verdicts(code, axis, angle, mode, detect, threshold,
                                         np.array(subsets))
            assert verdicts.dtype == bool
            want = [score_event(code, event, detect, threshold) for event in events]
            assert verdicts.tolist() == want, (axis, mode, detect, threshold)
    # a second call over subsets the memo knows scores none of them again
    with mock.patch.object(experiments, "_RotationScorer",
                           wraps=experiments._RotationScorer) as scorer:
        again = rotation_verdicts(code, K_AXIS, angle, "zero", True, 0.01, np.array(subsets))
    assert scorer.call_count == 0
    assert again.tolist() == [
        score_event(code, subset_event(code, K_AXIS, angle, "zero", s), True, 0.01)
        for s in subsets
    ]


def noise_with_bound(bound, u):
    """``(noise, p)`` whose ``bound`` (p, letter bound c1 or c2, or p_rot) equals ``u``.

    Every qubit is hit with a letter when a letter bound is tied, and
    nothing is rotated unless p_rot is.
    """
    if bound == "p":
        return NoiseModel(), u
    if bound == "c1":
        return NoiseModel(pauli_weights=(u, (1 - u) / 2, (1 - u) / 2)), 1.0
    if bound == "c2":  # c1 = u / 2 and c1 + w[1] = u, both exact
        return NoiseModel(pauli_weights=(u / 2, u / 2, 1 - u)), 1.0
    return NoiseModel(p_rot=u), 0.0


@pytest.mark.parametrize(
    "bound, trial, qubit", [("p", 0, 2), ("c1", 0, 0), ("c2", 1, 0), ("p_rot", 0, 3)]
)
def test_a_bound_equal_to_a_drawn_uniform_is_compared_as_the_oracle_does(bound, trial, qubit):
    # sample_error compares each uniform strictly with p, c1, c2 and p_rot.
    # Set to the draw of one trial and qubit (0-based), the bound leaves that
    # qubit unhit, on the next letter, or unrotated, and the trial's verdict
    # differs from the one at the next double up; the engine must agree at both.
    code, seed, trials = _CODES["perfect5"], 3, 16
    n = code.n
    draws = philox_uniforms(seed, np.arange(trials), 4 * n)
    block = {"p": 0, "c1": 1, "c2": 1, "p_rot": 2}[bound]
    tie = float(draws[trial, block * n + qubit])
    c1, w1 = noise_with_bound(bound, tie)[0].pauli_weights[:2]
    assert bound != "c1" or c1 == tie
    assert bound != "c2" or c1 + w1 == tie
    verdicts = []
    for value in (tie, float(np.nextafter(tie, 1.0))):
        noise, p = noise_with_bound(bound, value)
        event = sample_error(noise, p, n, seed, trial)
        verdicts.append(score_event(code, event))
        scorings = ((False, 0.01), (True, 0.01))
        counts = count_failures(code, noise, scorings, (p,), seed, 0, trials)
        assert counts == [oracle_counts(code, noise, (p,), seed, 0, trials, *scoring)
                          for scoring in scorings], (bound, value)
    assert verdicts[0] != verdicts[1]


def test_count_failures_range_validation():
    code, noise = _CODES["three"], NoiseModel()
    assert engine_counts(code, noise, (0.1, 0.2), 0, 5, 5) == [0, 0]
    for start, stop in ((-1, 3), (4, 3), (2**64 - 1, 2**64 + 1)):
        with pytest.raises(ValueError):
            engine_counts(code, noise, (0.1,), 0, start, stop)


# -- fitting ----------------------------------------------------------------------

def synthetic_sweep(p_th, d, p_values, code_id="perfect5"):
    points = tuple(
        SweepPoint(p, 0, 0, scaling_model(p, p_th, d), 0.0) for p in p_values
    )
    return SweepResult(code_id, 0, points)


def test_fit_recovers_synthetic_parameters():
    p_values = tuple(0.001 * (10 ** (k / 9)) for k in range(10))
    result = synthetic_sweep(0.015, 3, p_values)
    fit = fit_threshold(result)
    assert fit.exponent == pytest.approx(2.0, abs=2e-3)
    assert fit.p_th == pytest.approx(0.015, rel=0.05)
    assert fit.residual <= 1e-10


def test_fit_alternate_threshold():
    p_values = tuple(0.001 * (10 ** (k / 7)) for k in range(8))
    fit = fit_threshold(synthetic_sweep(0.01, 3, p_values))
    assert fit.p_th == pytest.approx(0.01, rel=0.05)


def test_fit_crossing_convention():
    # p_L = (p / p_th)^2 crosses p_L = p at p = p_th^2
    fit = fit_threshold(synthetic_sweep(0.015, 3, (0.001, 0.002, 0.004, 0.008)))
    assert fit.p_th_crossing == pytest.approx(0.015**2, rel=1e-6)


def test_fit_excludes_zero_rows_with_warning():
    points = (
        SweepPoint(0.001, 0, 1000, 0.0, 0.0),
        SweepPoint(0.002, 1, 1000, 0.001, 0.0),
        SweepPoint(0.004, 4, 1000, 0.004, 0.0),
        SweepPoint(0.008, 16, 1000, 0.016, 0.0),
    )
    with pytest.warns(UserWarning, match="zero-failure"):
        fit = fit_threshold(SweepResult("perfect5", 0, points))
    assert fit.exponent == pytest.approx(2.0, abs=1e-9)


def test_fit_excludes_p_zero_points_and_nothing_reaches_stderr(capfd):
    # Rotations fail trials at p = 0 too, so log(p) must not reach the solver
    # there: LAPACK would print to the stderr file descriptor and raise.
    config = SweepConfig("perfect5", NoiseModel(p_rot=0.05), (0.0, 0.01, 0.02, 0.03),
                         trials=2000, seed=0)
    data = figure1_data(config)
    assert data.sweeps["standard"].points[0].p_L > 0.0
    with pytest.warns(UserWarning, match=r"excluding 1 .* at p = \[0\.0\]") as record:
        fit = fit_threshold(data.sweeps["standard"])
    assert [w.category for w in record] == [UserWarning]
    assert data.fits["standard"] == fit and data.fits["quaternionic"] is not None
    assert capfd.readouterr().err == ""


def test_fit_needs_three_usable_rows():
    points = (
        SweepPoint(0.001, 0, 10, 0.0, 0.0),
        SweepPoint(0.002, 1, 10, 0.1, 0.0),
        SweepPoint(0.004, 1, 10, 0.1, 0.0),
    )
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError):
            fit_threshold(SweepResult("three", 0, points))


def test_fit_degenerate_rows():
    points = tuple(SweepPoint(0.01 * (k + 1), 5, 100, 0.05, 0.0) for k in range(4))
    with pytest.raises(ValueError):
        fit_threshold(SweepResult("three", 0, points))


def test_fit_of_a_curve_with_an_exactly_zero_slope_raises():
    # log(p) is -a, 0, a and log(p_L) is symmetric about the middle point, so
    # the columns are orthogonal and polyfit's slope is exactly 0.0; checked
    # under the Prescott, Haswell, Zen and SkylakeX OpenBLAS kernels.
    points = tuple(SweepPoint.tally(p, failures, 100)
                   for p, failures in ((0.5, 50), (1.0, 25), (2.0, 50)))
    with pytest.raises(ValueError) as raised:
        fit_threshold(SweepResult("three", 0, points))
    assert str(raised.value) == "degenerate fit: zero slope"


def test_fit_json_keys():
    fit = FitResult(exponent=2.0, p_th=0.015, p_th_crossing=0.000225, residual=0.001)
    import json

    payload = json.loads(json.dumps(fit_fields(fit)))
    assert list(payload) == ["slope", "p_th_intercept", "p_th_crossing", "residual"]


# -- CSV round trip ---------------------------------------------------------------

def test_sweep_csv_roundtrip():
    config = SweepConfig("three", bitflip_model(), (0.05, 0.1), trials=500, seed=3)
    result = run_sweep(config)
    text = sweep_csv(result)
    assert text.splitlines()[0] == "code_id,p,trials,failures,p_L,stderr,seed"
    parsed = parse_sweep_csv(text)
    assert parsed.code_id == "three"
    assert parsed.seed == 3
    assert [pt.failures for pt in parsed.points] == [pt.failures for pt in result.points]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CODE_IDS),
       st.lists(st.integers(1, 10**12 - 1), min_size=1, max_size=5, unique=True),
       st.integers(1, 40), st.integers(0, 2**64 - 1), st.sampled_from([0.0, 0.3]), st.booleans())
def test_parse_sweep_csv_gives_back_the_sweep_the_engine_wrote(code_id, numerators, trials, seed,
                                                               p_rot, detect):
    # p of at most 12 significant digits, which sweep_csv writes in full
    p_values = tuple(k / 10**12 for k in sorted(numerators))
    config = SweepConfig(code_id, NoiseModel(p_rot=p_rot), p_values, trials, seed,
                         quaternionic_detection=detect)
    result = run_sweep(config)
    assert parse_sweep_csv(sweep_csv(result)) == result


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_one_character_change_to_a_sweep_csv_is_refused_or_read_as_written(data):
    config = SweepConfig("perfect5", NoiseModel(p_rot=0.3), (0.01, 0.05, 0.2, 0.5),
                         trials=37, seed=5)
    text = sweep_csv(run_sweep(config))
    i = data.draw(st.integers(0, len(text) - 1))
    changed = text[:i] + data.draw(st.sampled_from("0123456789.,-+_ eE\nat")) + text[i + 1:]
    try:
        result = parse_sweep_csv(changed)
    except ValueError:
        return
    assert sweep_csv(result) == changed


def test_parse_sweep_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_sweep_csv("a,b,c\n1,2,3\n")


# -- paired sweeps ------------------------------------------------------------------

def test_figure1_refuses_a_detecting_config():
    config = SweepConfig("perfect5", NoiseModel(), (0.01, 0.02), trials=100, seed=0,
                         quaternionic_detection=True)
    with pytest.raises(ValueError, match="quaternionic_detection"):
        figure1_data(config)


def test_figure1_rotation_free_curves_coincide():
    base = dict(
        code_id="perfect5",
        noise=NoiseModel(),
        p_values=(0.02, 0.05),
        trials=2000,
        seed=21,
    )
    data = figure1_data(SweepConfig(**base))
    assert data.sweeps["standard"].points == data.sweeps["quaternionic"].points


def test_figure1_rotation_noise_orders_pipelines():
    noise = NoiseModel(
        p_rot=0.05, rot_angle=AngleDistribution("fixed", math.pi / 8)
    )
    base = dict(
        code_id="perfect5",
        noise=noise,
        p_values=(0.005, 0.01, 0.02),
        trials=3000,
        seed=8,
    )
    data = figure1_data(SweepConfig(**base))
    strict = 0
    for std_pt, q_pt in zip(data.sweeps["standard"].points, data.sweeps["quaternionic"].points):
        assert q_pt.failures <= std_pt.failures
        strict += q_pt.failures < std_pt.failures
    assert strict >= 1


_PAIRS = {
    # two configs that share a noise and differ in the threshold
    "shared-noise": (
        "perfect5",
        (NoiseModel(p_rot=0.2), 0.01),
        (NoiseModel(p_rot=0.2), 0.05),
    ),
    # two configs with different uniform-angle noises
    "different-noise": (
        "paper5",
        (NoiseModel(p_rot=0.1, rot_angle=AngleDistribution("uniform", 1.2)), 0.2),
        (
            NoiseModel(
                pauli_weights=(0.5, 0.25, 0.25),
                p_rot=0.3,
                rot_axis=ImaginaryAxis.normalized(1, 2, 3),
                rot_angle=AngleDistribution("uniform", -0.9),
                rot_mode="all",
            ),
            0.0,
        ),
    ),
}


@pytest.mark.parametrize("pool", [None, 2])
@pytest.mark.parametrize("pair", list(_PAIRS))
def test_figure1_pass_equals_separate_sweeps_and_oracle(monkeypatch, started_pools, pair, pool):
    code_id, *noises = _PAIRS[pair]
    monkeypatch.setattr(experiments, "WORKER_TRIALS", 100)  # 300 trials: up to three workers
    monkeypatch.setattr(experiments, "usable_cpus", lambda: pool or 1)
    for noise, threshold in noises:
        config = SweepConfig(code_id, noise, (0.02, 0.1), trials=300, seed=17,
                             detection_threshold=threshold)
        started_pools.clear()
        data = figure1_data(config)
        assert started_pools == ([] if pool is None else [pool])  # one pass, one pool
        for detect, result in ((False, data.sweeps["standard"]),
                               (True, data.sweeps["quaternionic"])):
            assert result == run_sweep(dataclasses.replace(config, quaternionic_detection=detect))
            want = oracle_counts(_CODES[code_id], noise, config.p_values, config.seed, 0,
                                 config.trials, detect, threshold)
            assert [pt.failures for pt in result.points] == want


def test_pool_that_cannot_start_falls_back_to_serial(monkeypatch):
    base = dict(code_id="perfect5", noise=NoiseModel(p_rot=0.1), p_values=(0.02, 0.1),
                trials=300, seed=5)
    std = SweepConfig(**base)
    attempts = []

    class NoProcesses:
        def __init__(self, *args, **kwargs):
            attempts.append(kwargs.get("max_workers"))
            raise OSError("no process support")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoProcesses)
    monkeypatch.setattr(experiments, "WORKER_TRIALS", 100)  # 300 trials: up to three workers
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 1)
    serial = (run_sweep(std), figure1_data(std))
    assert attempts == []
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
    assert (run_sweep(std), figure1_data(std)) == serial
    assert attempts == [2, 2]


def test_pool_starts_only_for_a_full_chunk_per_worker(monkeypatch, started_pools):
    chunk = 50
    base = dict(code_id="perfect5", noise=NoiseModel(p_rot=0.1), p_values=(0.02, 0.1),
                seed=5, quaternionic_detection=True)
    short, long = SweepConfig(trials=2 * chunk - 1, **base), SweepConfig(trials=3 * chunk, **base)
    monkeypatch.setattr(experiments, "WORKER_TRIALS", chunk)
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 1)
    serial = run_sweep(short), run_sweep(long)
    assert started_pools == []
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 8)
    assert run_sweep(short) == serial[0]
    assert started_pools == []
    assert run_sweep(long) == serial[1]
    assert started_pools == [3]


def test_pool_takes_no_more_workers_than_usable_cpus(monkeypatch, started_pools):
    config = SweepConfig("perfect5", NoiseModel(p_rot=0.1), (0.02, 0.1), trials=400,
                         seed=5, quaternionic_detection=True)
    monkeypatch.setattr(experiments, "WORKER_TRIALS", 50)  # 400 trials: up to eight workers
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 1)
    serial = run_sweep(config)
    assert started_pools == []
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
    assert run_sweep(config) == serial
    assert started_pools == [2]


def recorded_pools(monkeypatch) -> list:
    """``(max_workers, [(start, stop), ...])`` of each pool the sweeps start from now on.

    The pools run nothing: each submitted range counts zero failures.
    """
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.ranges = []
            pools.append((max_workers, self.ranges))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, code, noise, scorings, p_values, seed, start, stop):
            self.ranges.append((start, stop))
            future = concurrent.futures.Future()
            future.set_result([[0] * len(p_values) for _ in scorings])
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return pools


def no_serial_scoring(*args):
    raise AssertionError("the sweep scored its trials in this process")


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("trials", [2**53 + 1, 2**53 + 3, 2**64])
def test_worker_ranges_tile_the_trials_exactly(monkeypatch, trials, cpus):
    # Float bounds drop or add a trial past 2**53 and overflow past 2**63.
    pools = recorded_pools(monkeypatch)
    monkeypatch.setattr(experiments, "usable_cpus", lambda: cpus)
    # A sweep that starts no pool fails at once rather than scoring 2**53 trials here.
    monkeypatch.setattr(experiments, "count_failures", no_serial_scoring)
    result = run_sweep(SweepConfig("three", bitflip_model(), (0.1,), trials=trials, seed=3))
    (workers, ranges), = pools
    assert workers == len(ranges) == cpus
    starts, stops = zip(*ranges)
    assert starts[0] == 0 and starts[1:] == stops[:-1] and stops[-1] == trials
    assert all(type(a) is int and a < b for a, b in ranges)
    assert result.points[0].trials == trials


def test_a_pool_starts_only_where_it_pays_for_its_start(monkeypatch):
    # On two CPUs a pool of two costs more than it gains at figure1's default
    # 20000 trials and at 100000; at 400000 it pays.
    params = cli.parse_args(["figure1", "--out", "unused"]).parameters
    params.pop("include_model")
    config = SweepConfig(**params)
    pools = recorded_pools(monkeypatch)
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
    for trials in (20000, 100000):
        figure1_data(dataclasses.replace(config, trials=trials))
        assert pools == []
    figure1_data(dataclasses.replace(config, trials=400000))
    assert pools == [(2, [(0, 200000), (200000, 400000)])]


def test_engine_working_set_does_not_grow_with_the_trials():
    # figure1's two pipelines; the bound is fixed in advance, not fitted to a run.
    params = cli.parse_args(["figure1", "--out", "unused"]).parameters
    code, noise = get_code(params["code_id"]), params["noise"]
    threshold = params["detection_threshold"]
    args = (code, noise, ((False, threshold), (True, threshold)), params["p_values"], 1, 0)
    chunk = experiments.CHUNK_WORDS // words_per_trial(code, noise)
    peaks = []
    for trials in (chunk, 4 * chunk):
        count_failures(*args, trials)  # warm caches
        tracemalloc.start()
        try:
            count_failures(*args, trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_fixed_angle_working_set_on_a_full_support_ten_qubit_code():
    # A random |0_L> is nonzero on all 2**10 slots, the widest support a
    # rotation can damage.  The bound is fixed in advance, not fitted to a
    # run: scoring all 2**10 subsets at once over every slot would peak near
    # 90 MiB.
    code = normalized_repetition_code(10)
    noise = NoiseModel(p_rot=0.05, rot_mode="all")
    tracemalloc.start()
    try:
        count_failures(code, noise, ((True, 0.01),), (0.01,), 1, 0, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_figure1_csv_layout():
    base = dict(
        code_id="perfect5",
        noise=NoiseModel(),
        p_values=(0.02, 0.05, 0.1),
        trials=500,
        seed=4,
    )
    data = figure1_data(SweepConfig(**base))
    text = figure1_csv(data.row_sets(include_model_curves=True))
    lines = text.splitlines()
    assert lines[0] == (
        "pipeline,code_id,p,trials,failures,p_L,stderr,seed,target_exponent,target_p_th"
    )
    pipelines = {line.split(",")[0] for line in lines[1:]}
    assert pipelines == {"standard", "quaternionic", "standard_model", "quaternionic_model"}
    standard_rows = [l for l in lines[1:] if l.startswith("standard,")]
    assert standard_rows[0].split(",")[-2:] == ["2", "0.01"]
    quat_rows = [l for l in lines[1:] if l.startswith("quaternionic,")]
    assert quat_rows[0].split(",")[-2:] == ["2.2", "0.015"]


def test_model_curve_is_the_target_law_bit_for_bit():
    points = tuple(SweepPoint.tally(p, 7, 1000) for p in (0.001, 0.0037, 0.01, 0.03))
    result = SweepResult("perfect5", 12, points)
    for pipeline, (exponent, p_th) in {"standard": (2.0, 0.01),
                                       "quaternionic": (2.2, 0.015)}.items():
        curve = model_curve(result, pipeline)
        assert (curve.code_id, curve.seed) == ("perfect5", 12)
        assert curve.points == tuple(SweepPoint(pt.p, 0, 0, (pt.p / p_th) ** exponent, 0.0)
                                     for pt in points)


def test_figure1_csv_annotates_a_row_set_with_the_pipeline_its_label_names():
    result = SweepResult("three", 3, (SweepPoint.tally(0.05, 4, 100),))
    rows = figure1_csv({"standard_exact": result}).splitlines()[1:]
    assert rows == ["standard_exact,three,0.05,100,4,0.04,0.0195959179423,3,2,0.01"]


def test_row_sets_and_fits_json_follow_the_target_order():
    config = SweepConfig("perfect5", NoiseModel(p_rot=0.1), (0.02, 0.05, 0.1),
                         trials=500, seed=4)
    data = figure1_data(config)
    assert list(data.sweeps) == list(data.fits) == ["standard", "quaternionic"]
    assert data.row_sets() == data.sweeps
    assert list(data.row_sets()) == ["standard", "quaternionic"]
    assert list(data.row_sets(include_model_curves=True)) == [
        "standard", "quaternionic", "standard_model", "quaternionic_model"]
    assert list(json.loads(figure1_fits_json(data))) == ["standard", "quaternionic", "targets"]
