import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from hqec import quaternion as quat
from hqec.quaternion import I_AXIS, K_AXIS, ImaginaryAxis, Quaternion, exp_axis
from hqec.linalg import real_norm_sq
from hqec.register import QRegister
from hqec.codes import (
    PauliString,
    get_code,
    stabilizer_expectation_sign,
    syndrome_of,
)
from hqec.noise import (
    DRAWS_PER_QUBIT,
    AngleDistribution,
    ErrorEvent,
    NoiseModel,
    RotationError,
    apply_event,
    apply_rotations,
    correct_rotation,
    detect_rotations,
    jk_excess,
    pauli_letters,
    philox_uniforms,
    rotation_angles,
    sample_error,
    slot_cover,
)

from oracles import (
    amplitude,
    component_strength,
    left_scalar_mul,
    numpy_rows,
    oracle_events,
    pauli_masks,
    rotation_events,
)


def bitflip_model(p, p_rot=0.0, **kw):
    return NoiseModel(p=p, pauli_weights=(1.0, 0.0, 0.0), p_rot=p_rot, **kw)


# -- sampling determinism -----------------------------------------------------

def test_sample_error_reproducible():
    model = NoiseModel(p=0.3, p_rot=0.2)
    a = sample_error(model, 5, seed=42, trial=17)
    b = sample_error(model, 5, seed=42, trial=17)
    assert a == b
    c = sample_error(model, 5, seed=42, trial=18)
    d = sample_error(model, 5, seed=43, trial=17)
    assert a != c or a != d  # streams keyed by both integers


def test_batch_draws_match_sample_error():
    model = NoiseModel(p=0.25, p_rot=0.1, rot_angle=AngleDistribution("uniform", 0.5))
    # unsorted, with a repeat: each row depends on its own trial number only
    trials = [1, 99999, 0, 5, 100, 1, 2**64 - 1]
    draws = philox_uniforms(9, np.array(trials, dtype=np.uint64), DRAWS_PER_QUBIT * 4)
    x, z = pauli_masks(model, draws)
    rotated = dict(rotation_events(model, draws))
    rows, hit, angles = rotation_angles(model, draws, 4)
    assert rows.tolist() == sorted(rotated)
    for row, row_hit, row_angles in zip(rows, hit, angles):
        by_qubit = {rot.qubit: rot.angle for rot in rotated[row].rotations}
        assert row_hit.tolist() == [q in by_qubit for q in range(1, 5)]
        assert row_angles.tolist() == [by_qubit.get(q, 0.0) for q in range(1, 5)]
    letters = pauli_letters(model, draws, 4)
    for row, trial in enumerate(trials):
        event = sample_error(model, 4, 9, trial)
        assert (int(x[row]), int(z[row])) == (event.pauli.x, event.pauli.z)
        for q, letter in enumerate(event.pauli.letters):
            assert letter in ("I", "XYZ"[letters[row, q]])
        if event.rotations:
            assert rotated[row].rotations == event.rotations
            assert rotated[row].pauli == PauliString.identity(4)
            assert rotated[row].rot_mode == event.rot_mode
        else:
            assert row not in rotated
    assert rotated  # both branches run


_MAX = 2**64 - 1


@st.composite
def models(draw, row: np.ndarray, n: int) -> NoiseModel:
    """A noise model whose rates and letter bounds may equal uniforms of the trial ``row``.

    A bound equal to a uniform shows whether a hit or letter test is strict.
    """
    def bound(block: int, lo: float = 0.0) -> float:
        ties = [u for u in row[block * n : (block + 1) * n].tolist() if u >= lo]
        return draw(st.sampled_from([lo, 1.0, *ties]) | st.floats(lo, 1.0))

    c1 = bound(1)
    c2 = bound(1, c1)
    theta = draw(st.sampled_from([0.0, 0.3, math.pi / 8, 1.2]) | st.floats(-4.0, 4.0))
    return NoiseModel(
        p=bound(0), pauli_weights=(c1, c2 - c1, 1.0 - c2), p_rot=bound(2),
        rot_axis=draw(st.sampled_from([K_AXIS, I_AXIS, ImaginaryAxis.normalized(1, 2, 2)])),
        rot_angle=AngleDistribution(draw(st.sampled_from(["fixed", "uniform"])), theta),
        rot_mode=draw(st.sampled_from(["zero", "all"])))


@seed(20_240_601)
@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), key=st.integers(0, _MAX), trial=st.just(_MAX) | st.integers(0, _MAX),
       data=st.data())
def test_sample_error_is_the_oracle_event(n, key, trial, data):
    draws = numpy_rows(key, [trial], DRAWS_PER_QUBIT * n)
    model = data.draw(models(draws[0], n))
    assert sample_error(model, n, key, trial) == oracle_events(model, draws)[0]


def test_a_rotation_by_zero_is_a_rotation():
    # rotation_angles writes 0.0 where a qubit is not rotated, so a zero
    # angle on a hit qubit is told apart by its hit mask.
    model = NoiseModel(p=0.0, p_rot=1.0, rot_angle=AngleDistribution("fixed", 0.0))
    event = sample_error(model, 3, 5, 0)
    assert event.rotations == tuple(RotationError(q, K_AXIS, 0.0) for q in (1, 2, 3))


@pytest.mark.parametrize(
    ("seed", "trials", "count"),
    [
        (0, [0], 1),
        (0, list(range(64)), 20),
        (_MAX, [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, _MAX - 1, _MAX], 23),
        (2**63, [_MAX, 0, 12345], 8),
        (0x0123456789ABCDEF, [0xFEDCBA9876543210], 40),
        (7, [3], 0),
        (7, [], 5),
    ],
)
def test_philox_uniforms_match_numpy_generator(seed, trials, count):
    got = philox_uniforms(seed, np.array(trials, dtype=np.uint64), count)
    assert got.shape == (len(trials), count)
    assert got.tobytes() == numpy_rows(seed, trials, count).tobytes()


def test_philox_uniforms_match_numpy_generator_on_a_full_chunk():
    # One engine batch of fixed-angle perfect5 trials, at the top of both key words.
    trials = _MAX - np.arange(2183, -1, -1, dtype=np.uint64)
    got = philox_uniforms(_MAX, trials, 15)
    assert got.tobytes() == numpy_rows(_MAX, trials, 15).tobytes()


@pytest.mark.parametrize("seed", [_MAX, _MAX - 1, 2**64 - 0x9E3779B97F4A7C15, 2**63, 0])
def test_philox_key_wraps_emit_no_warning(seed):
    # Each round adds a constant to both keys modulo 2**64; round 2's seed word
    # wraps to 0 for the third seed.
    trials = np.array([_MAX, _MAX - 1, 2**64 - 0xBB67AE8584CAA73B, 2**63, 0], dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = philox_uniforms(seed, trials, 13)
    assert got.tobytes() == numpy_rows(seed, trials, 13).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, _MAX),
    trials=st.lists(st.integers(0, _MAX), min_size=1, max_size=6),
    count=st.integers(0, 24),
)
def test_philox_uniforms_match_numpy_generator_for_any_key(seed, trials, count):
    got = philox_uniforms(seed, np.array(trials, dtype=np.uint64), count)
    assert got.shape == (len(trials), count)
    assert got.tobytes() == numpy_rows(seed, trials, count).tobytes()


@pytest.mark.parametrize("seed", [_MAX, _MAX - 1, 2**63, 0])
def test_philox_prefix_equals_the_full_draw(seed):
    # The engine draws 2n, 3n or 4n words; each prefix is the start of the full draw.
    n = 5
    trials = np.array([_MAX, _MAX - 1, 2**63, 2**32 - 1, 0], dtype=np.uint64)
    full = philox_uniforms(seed, trials, DRAWS_PER_QUBIT * n)
    for count in range(DRAWS_PER_QUBIT * n + 1):
        got = philox_uniforms(seed, trials, count)
        assert got.shape == (trials.size, count)
        assert got.tobytes() == full[:, :count].tobytes(), count


def test_fixed_angle_rotations_read_the_first_3n_draws():
    n = 5
    trials = np.arange(_MAX - 63, _MAX, dtype=np.uint64)
    model = NoiseModel(p=0.0, p_rot=0.2, rot_angle=AngleDistribution("fixed", 0.7))
    full = rotation_angles(model, philox_uniforms(3, trials, DRAWS_PER_QUBIT * n), n)
    trimmed = rotation_angles(model, philox_uniforms(3, trials, 3 * n), n)
    assert full[0].size
    assert [a.tobytes() for a in full] == [a.tobytes() for a in trimmed]


def test_philox_uniforms_validation():
    with pytest.raises(ValueError):
        philox_uniforms(-1, np.array([0]), 4)
    with pytest.raises(ValueError):
        philox_uniforms(2**64, np.array([0]), 4)
    with pytest.raises(ValueError):
        philox_uniforms(0, np.array([-1]), 4)
    with pytest.raises(ValueError):
        philox_uniforms(0, np.array([0.5]), 4)
    with pytest.raises(ValueError):
        philox_uniforms(0, np.array([0]), -1)


def test_sample_error_seed_bounds():
    model = NoiseModel(p=0.1)
    with pytest.raises(ValueError):
        sample_error(model, 3, seed=-1, trial=0)
    with pytest.raises(ValueError):
        sample_error(model, 3, seed=0, trial=2**64)


@pytest.mark.parametrize("value", [3.7, True, "7", np.float64(3.0), None])
@pytest.mark.parametrize("name", ["seed", "trial"])
def test_counters_must_be_integers(name, value):
    # int() used to read these as seeds 3, 1 and 7.
    model = NoiseModel(p=0.1)
    counters = {"seed": 0, "trial": 0, name: value}
    with pytest.raises(ValueError, match=name):
        sample_error(model, 3, **counters)
    if name == "seed":
        with pytest.raises(ValueError, match="seed"):
            philox_uniforms(value, np.array([0], dtype=np.uint64), 4)


def test_counters_accept_numpy_integers():
    model = NoiseModel(p=0.1)
    expected = sample_error(model, 3, seed=5, trial=2**64 - 1)
    assert sample_error(model, 3, seed=np.int64(5), trial=np.uint64(2**64 - 1)) == expected
    trials = np.array([0, 9], dtype=np.uint64)
    assert np.array_equal(philox_uniforms(np.uint64(5), trials, 4), philox_uniforms(5, trials, 4))


def test_sample_zero_rates_is_identity():
    model = NoiseModel(p=0.0, p_rot=0.0)
    for trial in range(20):
        event = sample_error(model, 5, seed=1, trial=trial)
        assert event.pauli == PauliString.identity(5) and not event.rotations


def test_sample_phase_mode_none():
    model = bitflip_model(1.0)
    event = sample_error(model, 5, seed=3, trial=0)
    assert event.pauli.letters == ("X",) * 5
    assert event.pauli.phase == quat.ONE


def test_sample_error_frequency():
    model = NoiseModel(p=0.1)
    trials, n = 20000, 5
    draws = philox_uniforms(10, np.arange(trials, dtype=np.uint64), DRAWS_PER_QUBIT * n)
    x, z = pauli_masks(model, draws)
    count = int(np.bitwise_count(x | z).sum())
    expected = trials * n * 0.1
    sigma = math.sqrt(trials * n * 0.1 * 0.9)
    assert abs(count - expected) <= 3 * sigma


def test_sample_letter_mixture():
    model = NoiseModel(p=1.0, pauli_weights=(0.5, 0.25, 0.25))
    trials = 8000
    # The letters sample_error reads, for trials 0 .. 7999 in one draw.
    draws = philox_uniforms(11, np.arange(trials, dtype=np.uint64), DRAWS_PER_QUBIT)
    x, y, _ = np.bincount(pauli_letters(model, draws, 1)[:, 0], minlength=3)
    assert abs(x - trials * 0.5) <= 3 * math.sqrt(trials * 0.25)
    assert abs(y - trials * 0.25) <= 3 * math.sqrt(trials * 0.1875)


def test_sample_uniform_angles_bounded():
    model = NoiseModel(p=0.0, p_rot=1.0, rot_angle=AngleDistribution("uniform", 0.4))
    angles = [r.angle for t in range(200) for r in sample_error(model, 3, 12, t).rotations]
    assert len(angles) == 600
    assert all(0.0 <= a < 0.4 for a in angles)
    assert max(angles) > 0.3  # actually spreads over the range


# -- model validation ---------------------------------------------------------

def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(p=1.5)
    with pytest.raises(ValueError):
        NoiseModel(p=0.1, pauli_weights=(0.5, 0.5, 0.5))
    with pytest.raises(TypeError):  # a unit phase flips no verdict, so the model has none
        NoiseModel(p=0.1, phase_mode="none")
    with pytest.raises(ValueError):
        NoiseModel(p=0.1, rot_mode="some")


@pytest.mark.parametrize(
    "weights",
    [
        (math.nan, 1.0, 1.0),
        (1.0, math.nan, 0.0),
        (math.inf, 0.0, 0.0),
        (True, False, False),
        (1, False, 0),
        ("1", 0, 0),
        (0.5, 0.5),
        (0.25, 0.25, 0.25, 0.25),
    ],
)
def test_noise_model_rejects_bad_weights(weights):
    with pytest.raises(ValueError, match="pauli_weights"):
        NoiseModel(p=0.1, pauli_weights=weights)


def test_noise_model_accepts_integer_and_numpy_weights():
    model = NoiseModel(p=0.1, pauli_weights=(1, 0, np.float64(0.0)))
    assert model.pauli_weights == (1.0, 0.0, 0.0)
    assert all(type(w) is float for w in model.pauli_weights)


@pytest.mark.parametrize("key", ["p", "p_rot"])
@pytest.mark.parametrize("value", [True, False, None, "x"])
def test_noise_dict_rejects_non_numeric_rates(key, value):
    with pytest.raises(ValueError, match=key):
        NoiseModel(**{"p": 0.1, key: value})


@pytest.mark.parametrize(
    ("build", "name"),
    [
        (lambda: NoiseModel(p=0.1, p_rot=True), "p_rot"),
        (lambda: NoiseModel(p="0.1"), "p"),
        (lambda: NoiseModel(p=True), "p"),
        (lambda: AngleDistribution("fixed", True), "theta"),
        (lambda: AngleDistribution("uniform", "0.5"), "theta"),
        (lambda: AngleDistribution("fixed", None), "theta"),
    ],
    ids=["p_rot True", "p string", "p True", "theta True", "theta string", "theta None"],
)
def test_noise_values_refuse_bools_and_strings(build, name):
    with pytest.raises(ValueError, match=name):
        build()


# -- apply_event ----------------------------------------------------------------

def test_apply_event_zero_angle_rotation():
    reg = QRegister.computational(1, "0")
    event = ErrorEvent(PauliString.identity(1), (RotationError(1, K_AXIS, 0.0),))
    out = apply_event(reg, event)
    assert out.amps.isclose(reg.amps, tol=0.0)


def test_apply_event_rotation_on_zero_amp():
    theta = 0.6
    reg = QRegister.computational(1, "0")
    event = ErrorEvent(PauliString.identity(1), (RotationError(1, K_AXIS, theta),))
    out = apply_event(reg, event)
    assert amplitude(out, "0").isclose(
        Quaternion(math.cos(theta), 0, 0, math.sin(theta)), tol=1e-12
    )


def test_apply_event_phased_pauli():
    reg = QRegister.computational(3, "000")
    event = ErrorEvent(PauliString.single(3, 1, "X", quat.I), ())
    out = apply_event(reg, event)
    assert amplitude(out, "100") == quat.I


def test_apply_event_zero_mode_skips_one_slots():
    theta = 0.5
    reg = QRegister.computational(1, "1")
    event = ErrorEvent(
        PauliString.identity(1), (RotationError(1, K_AXIS, theta),), rot_mode="zero"
    )
    out = apply_event(reg, event)
    assert out.amps.isclose(reg.amps, tol=0.0)
    event_all = ErrorEvent(
        PauliString.identity(1), (RotationError(1, K_AXIS, theta),), rot_mode="all"
    )
    out_all = apply_event(reg, event_all)
    assert amplitude(out_all, "1").isclose(exp_axis(K_AXIS, theta), tol=1e-12)


@pytest.mark.parametrize("mode", ["zero", "all"])
def test_slot_cover_marks_the_slots_a_rotation_moves(mode):
    n = 3
    arr = np.tile([1.0, 0.0, 0.0, 0.0], (2**n, 1))
    reg = QRegister.from_components(n, arr / math.sqrt(2**n))
    cover = slot_cover(n, mode)
    assert cover.shape == (n, 2**n) and cover.dtype == bool
    for q in range(1, n + 1):
        event = ErrorEvent(PauliString.identity(n), (RotationError(q, K_AXIS, 0.5),), mode)
        moved = (apply_event(reg, event).amps.components != reg.amps.components).any(axis=1)
        assert moved.tolist() == cover[q - 1].tolist()


def test_bad_slot_mode_raises():
    reg = QRegister.computational(2, "00")
    with pytest.raises(ValueError, match="rot_mode"):
        slot_cover(2, "some")
    with pytest.raises(ValueError, match="rot_mode"):
        apply_rotations(reg, (RotationError(1, K_AXIS, 0.5),), "some")
    with pytest.raises(ValueError, match="rot_mode"):
        detect_rotations(reg, reg, threshold=0.1, mode="some")


def test_rotations_preserve_norm():
    rng = np.random.default_rng(52)
    for _ in range(20):
        arr = rng.uniform(-1, 1, size=(8, 4))
        arr /= math.sqrt(float(np.sum(arr * arr)))
        reg = QRegister.from_components(3, arr)
        rotations = tuple(
            RotationError(q, ImaginaryAxis.normalized(*rng.normal(size=3)), rng.uniform(-2, 2))
            for q in (1, 2, 3)
        )
        out = apply_event(reg, ErrorEvent(PauliString.identity(3), rotations))
        assert abs(real_norm_sq(out.amps) - 1.0) <= 1e-10


def test_rotations_only_events_have_trivial_syndromes():
    model = NoiseModel(p=0.0, p_rot=0.8, rot_angle=AngleDistribution("fixed", math.pi / 8))
    for code_id in ("three", "paper5", "perfect5"):
        code = get_code(code_id)
        for trial in range(5):
            event = sample_error(model, code.n, seed=60, trial=trial)
            assert syndrome_of(event.pauli, code).trivial
    # state-level check on codes whose codewords the generators actually fix
    for code_id in ("three", "perfect5"):
        code = get_code(code_id)
        event = sample_error(model, code.n, seed=61, trial=1)
        damaged = apply_event(code.codeword_zero, event)
        for g in code.generators:
            assert stabilizer_expectation_sign(damaged, g) == 1


# -- detection and correction ------------------------------------------------------

def test_detect_nothing_on_clean_state():
    code = get_code("perfect5")
    flags = detect_rotations(code.codeword_zero, code.codeword_zero, threshold=0.01)
    assert flags == ()


def test_detect_flags_quarter_pi_rotation():
    reg = QRegister.computational(1, "0")
    rotated = left_scalar_mul(reg, exp_axis(K_AXIS, math.pi / 4))
    flags = detect_rotations(rotated, reg, threshold=0.1)
    assert len(flags) == 1
    assert flags[0].qubit == 1
    assert flags[0].k_strength == pytest.approx(0.5, abs=1e-12)
    assert component_strength(rotated, 1, "k") == pytest.approx(0.5, abs=1e-12)


def test_detect_below_threshold_not_flagged():
    theta = 0.05  # sin^2(theta) ~ 0.0025
    reg = QRegister.computational(1, "0")
    rotated = left_scalar_mul(reg, exp_axis(K_AXIS, theta))
    assert detect_rotations(rotated, reg, threshold=0.1) == ()


def test_detect_i_axis_rotation_invisible():
    reg = QRegister.computational(1, "0")
    rotated = left_scalar_mul(reg, exp_axis(I_AXIS, 0.8))
    assert detect_rotations(rotated, reg, threshold=0.01) == ()


def test_correct_rotation_inverse():
    rng = np.random.default_rng(53)
    for _ in range(20):
        arr = rng.uniform(-1, 1, size=(4, 4))
        arr /= math.sqrt(float(np.sum(arr * arr)))
        reg = QRegister.from_components(2, arr)
        theta = rng.uniform(-1.5, 1.5)
        axis = ImaginaryAxis.normalized(*rng.normal(size=3))
        event = ErrorEvent(PauliString.identity(2), (RotationError(1, axis, theta),))
        damaged = apply_event(reg, event)
        restored = correct_rotation(damaged, 1, axis, theta)
        assert np.max(np.abs(restored.amps.components - reg.amps.components)) <= 1e-12


def test_correct_zero_angle_noop():
    code = get_code("three")
    out = correct_rotation(code.codeword_zero, 1, K_AXIS, 0.0)
    assert out.amps.isclose(code.codeword_zero.amps, tol=0.0)


def test_correct_with_misestimated_angle_leaves_residual():
    theta, estimate = 0.5, 0.51
    reg = QRegister.computational(1, "0")
    damaged = apply_event(
        reg, ErrorEvent(PauliString.identity(1), (RotationError(1, K_AXIS, theta),))
    )
    corrected = correct_rotation(damaged, 1, K_AXIS, estimate)
    assert component_strength(corrected, 1, "k") == pytest.approx(
        math.sin(theta - estimate) ** 2, abs=1e-12
    )


def test_multi_qubit_rotate_then_correct():
    code = get_code("perfect5")
    theta = math.pi / 8
    rotations = tuple(RotationError(q, K_AXIS, theta) for q in (2, 4))
    damaged = apply_event(code.codeword_zero, ErrorEvent(PauliString.identity(5), rotations))
    assert jk_excess(damaged, code.codeword_zero) > 0.01
    fixed = damaged
    for rot in rotations:
        fixed = correct_rotation(fixed, rot.qubit, rot.axis, rot.angle)
    assert jk_excess(fixed, code.codeword_zero) <= 1e-10
    assert fixed.amps.isclose(code.codeword_zero.amps, tol=1e-10)
