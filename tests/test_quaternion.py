import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hqec import quaternion as quat
from hqec.quaternion import (
    J_AXIS,
    K_AXIS,
    ImaginaryAxis,
    Quaternion,
    exp_axis,
    format_quaternion,
    parse_float,
    parse_quaternion,
    phase_label,
)

ONE, I, J, K = quat.ONE, quat.I, quat.J, quat.K

finite_reals = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
quaternions = st.builds(Quaternion, finite_reals, finite_reals, finite_reals, finite_reals)


def rand_quaternion(rng, scale=10.0):
    return Quaternion(*(rng.uniform(-scale, scale, size=4)))


# -- multiplication -------------------------------------------------------

def test_unit_table():
    minus_one = -ONE
    assert I * I == minus_one
    assert J * J == minus_one
    assert K * K == minus_one
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert K * J == -I
    assert I * K == -J
    assert I * J * K == minus_one


def test_mul_identity_element():
    q = Quaternion(2, 3, -1, 0.5)
    assert q * ONE == q
    assert ONE * q == q


def test_mul_expansion():
    # (1+i)(1+j) expands to 1 + i + j + ij = 1 + i + j + k
    assert Quaternion(1, 1, 0, 0) * Quaternion(1, 0, 1, 0) == Quaternion(1, 1, 1, 1)


def test_noncommutativity_witness():
    assert I * J == -(J * I)


def test_scalar_mul_and_div():
    q = Quaternion(1, -2, 3, -4)
    assert 2 * q == q * 2 == Quaternion(2, -4, 6, -8)
    assert q / 2 == Quaternion(0.5, -1, 1.5, -2)


# -- conjugation ----------------------------------------------------------

def test_conj_definition():
    assert Quaternion(1, 1, 1, 1).conj() == Quaternion(1, -1, -1, -1)
    assert Quaternion(5).conj() == Quaternion(5)


def test_conj_involution_and_antihomomorphism():
    assert (I * J).conj() == J.conj() * I.conj()
    assert (I * J).conj() == -K
    q = Quaternion(2, -1, 0.5, 3)
    assert q.conj().conj() == q


# -- norms and inverses -----------------------------------------------------

def test_norm_sq_values():
    assert Quaternion(1, 1, 1, 1).norm_sq() == 4.0
    assert Quaternion(0).norm_sq() == 0.0
    prod = Quaternion(1, 1, 0, 0) * Quaternion(1, 0, 1, 0)
    assert prod.norm_sq() == pytest.approx(4.0, abs=1e-12)


def test_norm_sq_matches_q_conj_q():
    rng = np.random.default_rng(11)
    for _ in range(200):
        q = rand_quaternion(rng)
        qq = q * q.conj()
        assert qq.w == pytest.approx(q.norm_sq(), rel=1e-12)
        assert abs(qq.x) < 1e-9 and abs(qq.y) < 1e-9 and abs(qq.z) < 1e-9


def test_inverse_values():
    assert J.inverse() == -J
    assert Quaternion(2).inverse() == Quaternion(0.5)
    assert Quaternion(1, 1, 0, 0).inverse() == Quaternion(0.5, -0.5, 0, 0)


def test_inverse_roundtrip():
    rng = np.random.default_rng(12)
    for _ in range(100):
        q = rand_quaternion(rng)
        if q.norm_sq() < 1e-6:
            continue
        assert (q * q.inverse()).isclose(ONE, tol=1e-12)


def test_inverse_of_zero_rejected():
    with pytest.raises(ValueError):
        Quaternion(0).inverse()


# -- exp_axis ---------------------------------------------------------------

def test_exp_axis_quarter_turn():
    assert exp_axis(K_AXIS, math.pi / 2).isclose(K, tol=1e-12)
    assert exp_axis(J_AXIS, 0.0) == ONE


def test_exp_axis_closed_form():
    theta = 0.7
    q = exp_axis(K_AXIS, theta)
    assert q == Quaternion(math.cos(theta), 0, 0, math.sin(theta))


def test_exp_axis_component_read():
    q = exp_axis(K_AXIS, math.pi / 3)
    assert q.z == pytest.approx(math.sin(math.pi / 3), abs=1e-12)


def test_exp_axis_inverse_pairs():
    rng = np.random.default_rng(13)
    for _ in range(100):
        direction = rng.normal(size=3)
        axis = ImaginaryAxis.normalized(*direction)
        theta = rng.uniform(-6, 6)
        q = exp_axis(axis, theta)
        assert abs(q.norm_sq() - 1.0) <= 1e-12
        assert (q * exp_axis(axis, -theta)).isclose(ONE, tol=1e-12)


def test_exp_axis_rejects_non_axis():
    with pytest.raises(ValueError):
        exp_axis((0, 0, 1), 1.0)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        ImaginaryAxis(0.5, 0.5, 0.5)


@pytest.mark.parametrize("components", [(True, False, False), ("1", "0", "0"), (None, 0, 1)],
                         ids=["bool", "string", "none"])
def test_axis_components_must_be_real_numbers(components):
    with pytest.raises(TypeError, match="axis component x must be a real number"):
        ImaginaryAxis(*components)


def test_axis_normalized_rejects_zero():
    with pytest.raises(ValueError):
        ImaginaryAxis.normalized(0, 0, 0)


@pytest.mark.parametrize(
    "direction, axis",
    [((1e200, 1e200, 0.0), (1.0, 1.0, 0.0)), ((-1e300, 0.0, 2e300), (-1.0, 0.0, 2.0)),
     ((1e-200, 0.0, 0.0), (1.0, 0.0, 0.0)), ((1e-160, 0.0, 0.0), (1.0, 0.0, 0.0)),
     ((5e-324, -5e-324, 0.0), (1.0, -1.0, 0.0))],
    ids=["overflow", "overflow-negative", "underflow", "subnormal-square", "subnormal"])
def test_axis_normalized_rescales_squares_past_the_double_range(direction, axis):
    # The squares overflow to inf or fall below the smallest normal double,
    # so the direction is first divided by its largest component; then it
    # normalizes to the axis of that plain direction, bit for bit.
    assert ImaginaryAxis.normalized(*direction) == ImaginaryAxis.normalized(*axis)


# -- constructors -------------------------------------------------------------

@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_constructor_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        Quaternion(bad)
    with pytest.raises(ValueError):
        Quaternion(0, bad, 0, 0)


def test_constructor_rejects_non_real():
    with pytest.raises(TypeError):
        Quaternion("1")  # type: ignore[arg-type]


def test_overflowing_product_raises():
    with pytest.raises(ValueError, match="component w must be finite"):
        Quaternion(1e200) * Quaternion(1e200)


def test_constructor_checks_components_not_their_sum():
    # The sum of these finite components overflows; each one is still accepted.
    assert Quaternion(1e308, 1e308, 0.0, 0.0).as_tuple() == (1e308, 1e308, 0.0, 0.0)
    with pytest.raises(ValueError, match="component y must be finite"):
        Quaternion(1.0, 2.0, float("inf"), float("-inf"))
    with pytest.raises(TypeError, match="component z must be a real number"):
        Quaternion(1.0, 2.0, 3.0, True)
    # ints and numpy floats are stored as plain floats
    assert all(type(c) is float for c in Quaternion(1, np.float64(0.5), 2, 3).as_tuple())


# -- randomized algebra properties --------------------------------------------

@given(quaternions, quaternions, quaternions)
def test_associativity(a, b, c):
    left = (a * b) * c
    right = a * (b * c)
    assert left.isclose(right, tol=1e-9)


@given(quaternions, quaternions)
def test_norm_multiplicative(a, b):
    lhs = (a * b).norm_sq()
    rhs = a.norm_sq() * b.norm_sq()
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@given(quaternions, quaternions)
def test_conj_antihomomorphism(a, b):
    assert (a * b).conj().isclose(b.conj() * a.conj(), tol=1e-9)


# -- text format ----------------------------------------------------------------

def test_format_explicit_signs():
    assert format_quaternion(Quaternion(1, -2, 0, 3)) == "1-2i+0j+3k"
    assert format_quaternion(Quaternion(0, 0, -0.0, 0)) == "0+0i+0j+0k"


def test_parse_format_roundtrip():
    rng = np.random.default_rng(14)
    for _ in range(200):
        q = rand_quaternion(rng, scale=1e3)
        tol = 1e-9 * max(1.0, math.sqrt(q.norm_sq()))
        assert parse_quaternion(format_quaternion(q)).isclose(q, tol=tol)


def test_parse_exponent_notation():
    q = parse_quaternion("1e-05+2e3i-0.5j+.25k")
    assert q == Quaternion(1e-05, 2e3, -0.5, 0.25)


@pytest.mark.parametrize("text", ["", "1+2i", "1+2i+3j", "i+j+k", "1+2i+3j+4k+5", "1 2i 3j 4k",
                                  "\u0663+0i+0j+0k", "1+\u0662i+0j+0k", "1+0i+0j+1e\u0661k",
                                  "3+0i+0j+0k\u00a0", "\u00a03+0i+0j+0k", "3+\u00a00i+0j+0k"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError, match="cannot parse quaternion from"):
        parse_quaternion(text)


@pytest.mark.parametrize("space", [" ", "\t", "\n", "\f", "\r", "\v"],
                         ids=["space", "tab", "newline", "form feed", "return", "vertical tab"])
def test_parse_reads_each_ascii_space_after_a_sign_as_a_space(space):
    assert parse_quaternion(f"1+{space}2i+0j+0k") == Quaternion(1, 2, 0, 0)
    assert parse_quaternion(f"{space}-1{space}-{space}2i{space}+{space}0j-3k{space}") == (
        Quaternion(-1, -2, 0, -3))
    q = Quaternion(0.5, 0.125, -2e3, 4.25)
    spaced = format_quaternion(q).replace("+", "+" + space).replace("-", "-" + space)
    assert parse_quaternion(spaced) == parse_quaternion(format_quaternion(q)) == q


@given(quaternions)
def test_parse_reads_back_a_17_digit_rendering_exactly(q):
    assert parse_quaternion(format_quaternion(q, 17)) == q


def test_phase_labels():
    assert phase_label(quat.ONE) == "+1"
    assert phase_label(-quat.K) == "-k"
    with pytest.raises(ValueError):
        phase_label(Quaternion(0.5, 0.5, 0.5, 0.5))


# -- the float grammar of every decimal input ----------------------------------

def same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_parse_float_reads_back_what_repr_and_g12_write(x):
    assert same_float(parse_float(repr(x)), x)
    text = f"{x:.12g}"
    assert same_float(parse_float(text), float(text))


@pytest.mark.parametrize("text", ["0.1", "-2", ".5", "5.", "1e-05", "-1E+20", "1e400", "-inf", "nan"])
def test_parse_float_is_float_on_decimal_and_exponent_forms(text):
    assert same_float(parse_float(text), float(text))


@pytest.mark.parametrize("text", ["", "0_0.1", "1_000", "+1", " 1", "1 ", "1\n", "\u0663", "1e",
                                  "e5", ".", "-", "1.2.3", "1e+-2", "Infinity", "INF", "NaN",
                                  "0x1p-3", "1e1_0"])
def test_parse_float_refuses_what_no_writer_emits_with_floats_message(text):
    with pytest.raises(ValueError) as info:
        parse_float(text)
    assert str(info.value) == f"could not convert string to float: {text!r}"
