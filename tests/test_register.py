import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hqec import quaternion as quat
from hqec import register
from hqec.quaternion import Quaternion
from hqec.linalg import (
    MulSide, QMatrix, QVector, entry_products, is_unitary, matvec, real_norm_sq)
from hqec.register import (
    Gate,
    QRegister,
    apply_gate,
    bell_prepare,
    cnot_gate,
    hadamard_gate,
    pauli_gate,
    phased_pauli_gate,
    substitute_units,
    t_gate,
)

from oracles import amplitude, left_scalar_mul, uncached_apply_gate

ONE, I, J, K, ZERO = quat.ONE, quat.I, quat.J, quat.K, quat.ZERO
INV_SQRT2 = 1 / math.sqrt(2)


def rand_register(rng, n):
    arr = rng.uniform(-1, 1, size=(2**n, 4))
    arr /= math.sqrt(float(np.sum(arr * arr)))
    return QRegister.from_components(n, arr)


# -- gate application ----------------------------------------------------------

def test_apply_cnot_worked_example():
    rng = np.random.default_rng(31)
    a, b, c, d = rng.uniform(-1, 1, size=4)
    arr = np.zeros((4, 4))
    arr[0] = (a, b, 0, 0)  # (a+bi)|00>
    arr[2] = (c, 0, d, 0)  # (c+dj)|10>
    reg = QRegister.from_components(2, arr)
    out = apply_gate(reg, cnot_gate(), [1, 2])
    assert amplitude(out, "00").isclose(Quaternion(a, b, 0, 0), tol=1e-12)
    assert amplitude(out, "11").isclose(Quaternion(0, d, 0, c), tol=1e-12)  # di + ck
    assert amplitude(out, "01") == ZERO and amplitude(out, "10") == ZERO


def test_apply_identity_like_gate():
    rng = np.random.default_rng(32)
    reg = rand_register(rng, 2)
    out = apply_gate(reg, phased_pauli_gate("I"), [2])
    assert out.amps.isclose(reg.amps)


def test_hadamard_on_zero():
    reg = QRegister.computational(1, "0")
    out = apply_gate(reg, hadamard_gate(), [1])
    assert amplitude(out, "0").isclose(INV_SQRT2 * ONE, tol=1e-12)
    assert amplitude(out, "1").isclose(INV_SQRT2 * I, tol=1e-12)


def test_apply_gate_validates_targets():
    reg = QRegister.computational(2, "00")
    with pytest.raises(ValueError):
        apply_gate(reg, cnot_gate(), [1])
    with pytest.raises(ValueError):
        apply_gate(reg, cnot_gate(), [1, 1])
    with pytest.raises(ValueError):
        apply_gate(reg, hadamard_gate(), [3])


def test_apply_gate_nonadjacent_targets():
    # X on qubit 2 of three qubits
    reg = QRegister.computational(3, "000")
    out = apply_gate(reg, pauli_gate("X"), [2])
    assert amplitude(out, "010") == ONE


def test_apply_cnot_reversed_targets():
    # control on qubit 2, target on qubit 1
    reg = QRegister.computational(2, "01")
    out = apply_gate(reg, cnot_gate(), [2, 1])
    # control (qubit 2) reads 1: the 4x4 acts on (control, target) = (q2, q1)
    assert amplitude(out, "11").isclose(K, tol=1e-12)


# -- contraction against the dense oracle -------------------------------------

def dense_embed(gate, targets, n):
    """Reference: the full ``2**n x 2**n`` matrix of ``gate`` on ``targets``."""
    dim = 2**n
    shifts = tuple(n - q for q in targets)
    rest_mask = (dim - 1) ^ sum(1 << s for s in shifts)
    sub = gate.matrix.components
    full = np.zeros((dim, dim, 4))
    for r in range(dim):
        sr = 0
        for s in shifts:
            sr = (sr << 1) | ((r >> s) & 1)
        base = r & rest_mask
        for sc in range(sub.shape[1]):
            c = base
            for pos, s in enumerate(shifts):
                c |= ((sc >> (len(shifts) - 1 - pos)) & 1) << s
            full[r, c] = sub[sr, sc]
    return QMatrix.from_components(full)


def oracle_apply(reg, gate, targets):
    return matvec(dense_embed(gate, tuple(targets), reg.n), reg.amps, gate.side)


@pytest.mark.parametrize("side", [MulSide.LEFT, MulSide.RIGHT])
def test_apply_gate_matches_dense_oracle(side):
    rng = np.random.default_rng(41 if side is MulSide.LEFT else 42)
    arities = set()
    for _ in range(200):
        n = int(rng.integers(1, 7))
        arity = int(rng.integers(1, min(n, 3) + 1))
        arities.add(arity)
        targets = [int(q) for q in rng.permutation(np.arange(1, n + 1))[:arity]]
        entries = rng.normal(size=(2**arity, 2**arity, 4))  # non-unit, non-unitary
        gate = Gate("R", QMatrix.from_components(entries), side, arity)
        reg = QRegister.from_components(n, rng.normal(size=(2**n, 4)))
        out = apply_gate(reg, gate, targets)
        want = oracle_apply(reg, gate, targets)
        assert np.allclose(out.amps.components, want.components, rtol=0, atol=1e-12), (
            n, targets)
    assert arities == {1, 2, 3}


@pytest.mark.parametrize("targets", [[3, 1], [1, 3], [4, 2, 1], [2, 4], [5, 1, 3]])
def test_apply_gate_reversed_and_nonadjacent_targets_match_oracle(targets):
    rng = np.random.default_rng(43)
    n, arity = 5, len(targets)
    for side in (MulSide.LEFT, MulSide.RIGHT):
        entries = rng.normal(size=(2**arity, 2**arity, 4))
        gate = Gate("R", QMatrix.from_components(entries), side, arity)
        reg = rand_register(rng, n)
        out = apply_gate(reg, gate, targets)
        want = oracle_apply(reg, gate, targets)
        assert np.allclose(out.amps.components, want.components, rtol=0, atol=1e-12)


@pytest.mark.parametrize("side", ["left", None], ids=["string", "none"])
def test_side_that_is_not_a_mulside_raises_in_matvec_and_apply_gate(side):
    matrix = hadamard_gate().matrix
    gate = Gate("H", matrix, side, 1)  # Gate does not check its side
    reg = QRegister.computational(1, "0")
    with pytest.raises(ValueError, match="side must be a MulSide"):
        matvec(matrix, reg.amps, side)
    with pytest.raises(ValueError, match="side must be a MulSide"):
        apply_gate(reg, gate, [1])


def test_apply_gate_whole_register_in_order_is_plain_matvec():
    reg = rand_register(np.random.default_rng(44), 2)
    direct = matvec(cnot_gate().matrix, reg.amps, MulSide.RIGHT)
    out = apply_gate(reg, cnot_gate(), [1, 2])
    assert np.allclose(out.amps.components, direct.components, rtol=0, atol=1e-12)


def test_apply_gate_peak_memory_is_linear_in_state():
    rng = np.random.default_rng(45)
    reg = rand_register(rng, 12)
    state_bytes = reg.amps.components.nbytes
    for gate, targets in ((hadamard_gate(), [6]), (cnot_gate(), [12, 1])):
        tracemalloc.start()
        try:
            apply_gate(reg, gate, targets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * state_bytes, (gate.name, peak / state_bytes)


def test_apply_gate_working_set_is_a_few_states():
    rng = np.random.default_rng(46)
    reg = rand_register(rng, 12)
    state_bytes = reg.amps.components.nbytes
    register._layouts.clear()  # each call below builds its layout
    for gate, targets in ((hadamard_gate(), [6]), (cnot_gate(), [12, 1]), (t_gate(), [12])):
        gate.operator  # built outside the traced call
        tracemalloc.start()
        try:
            apply_gate(reg, gate, targets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * state_bytes, (gate.name, peak / state_bytes)


def test_apply_gate_keeps_no_copy_of_its_result():
    # The product and its gathered result: two state-sized buffers, plus a
    # margin of 2% of a state for the objects around them.  No pass checks
    # the result's finiteness, so nothing else is allocated.
    rng = np.random.default_rng(47)
    reg = rand_register(rng, 12)
    gate = cnot_gate()
    gate.operator, gate.gain  # built outside the traced call
    register._layout(12, (12, 1))  # so is the layout, half a state of row indices
    tracemalloc.start()
    try:
        out = apply_gate(reg, gate, [12, 1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.02 * reg.amps.components.nbytes, peak / reg.amps.components.nbytes
    assert not out.amps.components.flags.writeable
    with pytest.raises(ValueError):
        out.amps.components[0, 0] = 1.0


def test_apply_gate_on_in_order_targets_allocates_only_its_result():
    # Targets that already are the last qubits in order are not gathered: the
    # product is the result, one state-sized buffer, plus the same 2% margin.
    rng = np.random.default_rng(48)
    reg = rand_register(rng, 12)
    for gate, targets in ((cnot_gate(), [11, 12]), (t_gate(), [12])):
        gate.operator, gate.gain  # built outside the traced call
        register._layout(12, tuple(targets))
        tracemalloc.start()
        try:
            out = apply_gate(reg, gate, targets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.02 * reg.amps.components.nbytes, (gate.name, peak / reg.amps.components.nbytes)
        assert not out.amps.components.flags.writeable


def test_apply_gate_overflow_raises_not_finite():
    big = 1e200
    gate = Gate("big", QMatrix.from_components(np.full((2, 2, 4), big)), MulSide.LEFT, 1)
    reg = QRegister.from_components(2, np.full((4, 4), big))
    # Whether the product warns depends on numpy's build; the error must not.
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="components must be finite"):
            apply_gate(reg, gate, [2])


def bench_circuit_steps(n):
    """The H layer, CNOT chain and T layer the benchmark runs, as (gate, targets)."""
    h, cnot, t = hadamard_gate(), cnot_gate(), t_gate()
    return ([(h, [q]) for q in range(1, n + 1)]
            + [(cnot, [q, q + 1]) for q in range(1, n)]
            + [(t, [q]) for q in range(1, n + 1)])


@pytest.mark.parametrize("n", range(2, 9))
def test_bench_circuit_matches_dense_oracle_gate_by_gate(n):
    reg = QRegister.computational(n, 0)
    for gate, targets in bench_circuit_steps(n):
        want = oracle_apply(reg, gate, targets)
        reg = apply_gate(reg, gate, targets)
        assert np.allclose(reg.amps.components, want.components, rtol=0, atol=1e-12), (
            gate.name, targets)
    out = apply_gate(reg, cnot_gate(), [n, 1])
    want = oracle_apply(reg, cnot_gate(), [n, 1])
    assert np.allclose(out.amps.components, want.components, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 11))
def test_bench_circuit_equals_the_uncached_oracle_bit_for_bit_gate_by_gate(n):
    # Against the oracle, not pinned digests: BLAS may round differently per machine.
    reg = QRegister.computational(n, 0)
    for gate, targets in bench_circuit_steps(n) + [(cnot_gate(), [n, 1])]:
        want = uncached_apply_gate(reg, gate, targets)
        reg = apply_gate(reg, gate, targets)
        assert np.array_equal(reg.amps.components, want.amps.components), (gate.name, targets)


# -- the register and its constructors ------------------------------------------

def test_computational_reads_an_index_as_an_integer_and_refuses_a_float():
    for bits in (2, np.int64(2), np.uint8(2), "10"):
        assert QRegister.computational(2, bits).nonzero_terms() == [("10", ONE)], bits
    assert QRegister.computational(2, True).nonzero_terms() == [("01", ONE)]
    for bits in (2.9, np.float64(3.7), 2.0):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            QRegister.computational(2, bits)


def test_the_public_constructor_checks_the_qubit_count_and_the_amplitudes():
    with pytest.raises(ValueError, match="^register needs at least one qubit$"):
        QRegister(0, QVector.basis(1, 0))
    with pytest.raises(ValueError, match=r"^expected 8 amplitudes for 3 qubits, got 4$"):
        QRegister(3, QVector.basis(4, 0))


@pytest.mark.parametrize("targets", [[2], [3], [1, 3], [2, 3]])
def test_apply_gate_returns_a_whole_register(targets):
    gate = hadamard_gate() if len(targets) == 1 else cnot_gate()
    reg = apply_gate(QRegister.computational(3, 5), hadamard_gate(), [1])
    out = apply_gate(reg, gate, targets)
    assert type(out) is QRegister and not hasattr(out, "__dict__")
    assert (out.n, out.dim, out.amps.dim) == (3, 8, 8)
    assert not out.amps.components.flags.writeable
    width = 4 << gate.arity
    eps, tiny = sys.float_info.epsilon, math.ulp(0.0)
    assert out.amps.bound == reg.amps.bound * gate.gain * (1.0 + width * eps) + width * tiny


# -- the carried amplitude bound ------------------------------------------------

def scaled_gate(rng, arity, side, scale=1.0):
    return Gate("R", QMatrix.from_components(scale * rng.normal(size=(2**arity, 2**arity, 4))),
                side, arity)


def random_targets(rng, n, arity, in_order):
    if in_order:  # the last qubits, in order: the product needs no gather
        return list(range(n - arity + 1, n + 1))
    return [int(q) for q in rng.permutation(np.arange(1, n + 1))[:arity]]


def largest_component(reg):
    return float(np.abs(reg.amps.components).max())


def unbounded_register(n, arr):
    """Register of ``arr`` with an unknown bound: a vector built from quaternions carries none."""
    return QRegister(n, QVector([Quaternion(*row) for row in arr]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.booleans(), st.sampled_from(list(MulSide)),
       st.integers(-300, 150), st.integers(-300, 150), st.booleans(), st.integers(0, 2**32 - 1))
def test_apply_gate_equals_the_uncached_oracle_bit_for_bit_at_any_magnitude(
        n, arity, in_order, side, reg_exp, gate_exp, bound_known, seed):
    rng = np.random.default_rng(seed)
    arity = min(arity, n)
    targets = random_targets(rng, n, arity, in_order)
    gate = scaled_gate(rng, arity, side, 10.0**gate_exp)
    if bound_known:
        # A basis state has bound 1; Hadamards spread it, and one gate scales it.
        reg = QRegister.computational(n, int(rng.integers(2**n)))
        for q in range(1, n + 1):
            reg = apply_gate(reg, hadamard_gate(), [q])
        reg = apply_gate(reg, scaled_gate(rng, 1, side, 10.0**reg_exp), [int(rng.integers(1, n + 1))])
        assert largest_component(reg) < reg.amps.bound < math.inf
    else:
        reg = unbounded_register(n, 10.0**reg_exp * rng.normal(size=(2**n, 4)))
        assert reg.amps.bound == math.inf
    out = apply_gate(reg, gate, targets)
    want = uncached_apply_gate(reg, gate, targets)
    assert np.array_equal(out.amps.components, want.amps.components), (n, targets, side)
    assert largest_component(out) <= out.amps.bound


@pytest.mark.parametrize("n", range(2, 11))
def test_the_bound_of_the_bench_circuit_holds_after_every_gate_and_is_never_scanned(n):
    reg = QRegister.computational(n, 0)
    assert reg.amps.bound == 1.0
    for gate, targets in bench_circuit_steps(n):
        reg = apply_gate(reg, gate, targets)
        # A scanned bound is exact; a carried one is strictly above the largest component.
        assert largest_component(reg) < reg.amps.bound < math.inf, (gate.name, targets)


@pytest.mark.parametrize("start", ["computational", "from_components"])
def test_the_carried_bound_holds_after_every_gate_of_random_chains(start):
    rng = np.random.default_rng(55)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        if start == "computational":
            reg = QRegister.computational(n, int(rng.integers(2**n)))
        else:
            reg = QRegister.from_components(n, rng.normal(size=(2**n, 4)))
        assert reg.amps.bound == largest_component(reg)  # exact, so the first gate scans nothing
        for _ in range(30):
            arity = int(rng.integers(1, min(n, 3) + 1))
            side = (MulSide.LEFT, MulSide.RIGHT)[int(rng.integers(2))]
            targets = random_targets(rng, n, arity, bool(rng.integers(2)))
            reg = apply_gate(reg, scaled_gate(rng, arity, side, 0.5), targets)
            assert largest_component(reg) <= reg.amps.bound < math.inf, (n, targets)


@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("side", list(MulSide))
def test_gain_sums_each_output_column_not_each_input_row(arity, side):
    # Ones along the first row feed every input into one output amplitude;
    # ones down the first column feed one input into every output amplitude.
    row, column = np.zeros((2, 2**arity, 2**arity, 4))
    row[0, :, 0] = column[:, 0, 0] = 1.0
    for entries, gain in ((row, 2**arity), (column, 1.0)):
        assert Gate("ones", QMatrix.from_components(entries), side, arity).gain == gain
    assert hadamard_gate().gain == math.fsum([INV_SQRT2] * 2)
    assert cnot_gate().gain == 1.0


def test_the_carried_bound_covers_sums_of_products_that_round_up_below_the_normal_range():
    # Every product c * g is 0.625 * 2**-1074, which rounds up to 2**-1074, so
    # an eight-term sum can exceed B * G = 5 * 2**-1074; the bound's width *
    # tiny term covers that.
    c, g = 2.0**-537, 0.625 * 2.0**-537
    spread = np.zeros((8, 8, 4))
    spread[:, 0, 0] = c  # takes |000> to c on every row, with a carried bound
    reg = apply_gate(QRegister.computational(3, 0),
                     Gate("spread", QMatrix.from_components(spread), MulSide.LEFT, 3), [1, 2, 3])
    assert largest_component(reg) == c < reg.amps.bound < math.inf
    tiny = np.zeros((8, 8, 4))
    tiny[..., 0] = g
    out = apply_gate(reg, Gate("tiny", QMatrix.from_components(tiny), MulSide.LEFT, 3), [1, 2, 3])
    assert 0 < largest_component(out) <= out.amps.bound < math.inf


def test_a_zero_gate_on_a_register_without_a_bound_leaves_an_exact_bound():
    # inf * 0 is NaN, not a bound: the product is scanned instead.
    zero = Gate("0", QMatrix.from_components(np.zeros((2, 2, 4))), MulSide.LEFT, 1)
    reg = apply_gate(unbounded_register(1, np.ones((2, 4))), zero, [1])
    assert reg.amps.bound == 0.0


def test_a_huge_gate_raises_at_the_first_overflowing_product_with_or_without_a_bound():
    big = Gate("big", QMatrix.from_components(np.full((2, 2, 4), 1e60)), MulSide.LEFT, 1)
    bounded = QRegister.computational(2, 0)
    starts = {"bounded": bounded,
              "unbounded": unbounded_register(2, bounded.amps.components),
              "oracle": bounded}
    raised_at = {}
    for name, reg in starts.items():
        step = uncached_apply_gate if name == "oracle" else apply_gate
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(10):
                try:
                    reg = step(reg, big, [2])
                except ValueError as exc:
                    assert str(exc) == "components must be finite"
                    raised_at[name] = k
                    break
                if name == "bounded":  # the bound proved every product before this one finite
                    assert largest_component(reg) < reg.amps.bound < math.inf
    assert raised_at == {"bounded": 5, "unbounded": 5, "oracle": 5}


# -- the gate's real operator ---------------------------------------------------

LIBRARY_GATES = [hadamard_gate(), cnot_gate(), t_gate(), pauli_gate("I")] + [
    make(letter) for make in (pauli_gate, phased_pauli_gate) for letter in "XYZ"]


def random_gates():
    rng = np.random.default_rng(47)
    return [Gate("R", QMatrix.from_components(rng.normal(size=(2**a, 2**a, 4))), side, a)
            for a in (1, 2, 3) for side in (MulSide.LEFT, MulSide.RIGHT)]


@pytest.mark.parametrize("gate", LIBRARY_GATES + random_gates(),
                         ids=lambda g: f"{g.name}-{g.arity}-{g.side.value}")
def test_operator_row_is_entry_times_unit_on_the_gates_side(gate):
    op = gate.operator
    size = 2**gate.arity
    assert op.shape == (4 * size, 4 * size)
    entries = gate.matrix.components
    for c in range(size):
        for s, unit in enumerate(np.eye(4)):
            for r in range(size):
                want = entry_products(entries[r, c], unit, gate.side)
                assert np.array_equal(op[4 * c + s, 4 * r:4 * r + 4], want), (r, c, s)
    assert op.flags.writeable is False
    with pytest.raises(ValueError):
        op[0, 0] = 1.0
    assert gate.operator is op  # built once


def test_bad_side_raises_on_every_call_and_caches_nothing():
    gate = Gate("H", hadamard_gate().matrix, "left", 1)
    reg = QRegister.computational(1, "0")
    for _ in range(2):
        with pytest.raises(ValueError, match="side must be a MulSide"):
            apply_gate(reg, gate, [1])
    assert "operator" not in vars(gate)


def test_bell_on_far_apart_qubits_of_16():
    n = 16
    reg = QRegister.computational(n, 0)
    reg = apply_gate(reg, hadamard_gate(), [1])
    reg = apply_gate(reg, cnot_gate(), [1, n])
    comp = reg.amps.components
    far = int("1" + "0" * (n - 2) + "1", 2)
    assert tuple(comp[0]) == (INV_SQRT2, 0.0, 0.0, 0.0)
    assert tuple(comp[far]) == (0.0, 0.0, -INV_SQRT2, 0.0)
    rest = np.delete(comp, [0, far], axis=0)
    assert not np.any(rest)


# -- the layout cache ---------------------------------------------------------

def layout_keys(rng):
    """Distinct ``(n, targets)`` pairs up to 12 qubits.

    Random ones, reversed and far-apart pairs, and identity layouts, whose
    targets are already the last qubits in order.
    """
    keys = {(n, pair) for n in (2, 5, 8, 12) for pair in ((n, 1), (1, n), (2, 1), (n, n - 1))}
    keys |= {(n, tuple(range(n - a + 1, n + 1))) for n in (3, 7, 12) for a in (1, 2, 3)}
    while len(keys) < 96:
        n = int(rng.integers(1, 13))
        arity = int(rng.integers(1, min(n, 3) + 1))
        keys.add((n, tuple(int(q) for q in rng.permutation(np.arange(1, n + 1))[:arity])))
    return sorted(keys)


def test_apply_gate_equals_the_uncached_oracle_bit_for_bit_cold_and_warm():
    rng = np.random.default_rng(53)
    keys = layout_keys(rng)
    calls = [key for key in keys for _ in range(int(rng.integers(2, 4)))]
    rng.shuffle(calls)
    sides, built = set(), {}
    register._layouts.clear()
    for n, targets in calls:
        arity = len(targets)
        side = (MulSide.LEFT, MulSide.RIGHT)[int(rng.integers(2))]
        sides.add(side)
        entries = rng.normal(size=(2**arity, 2**arity, 4))
        gate = Gate("R", QMatrix.from_components(entries), side, arity)
        reg = QRegister.from_components(n, rng.normal(size=(2**n, 4)))
        out = apply_gate(reg, gate, list(targets))
        want = uncached_apply_gate(reg, gate, targets)
        assert np.array_equal(out.amps.components, want.amps.components), (n, targets, side)
        layout = register._layouts[n, targets]
        assert built.setdefault((n, targets), layout) is layout  # built once, then reused
    assert len(built) == len(register._layouts) == len(keys)
    assert sides == {MulSide.LEFT, MulSide.RIGHT}
    assert {len(targets) for _, targets in keys} == {1, 2, 3}
    assert max(n for n, _ in keys) == 12


def test_layout_cache_holds_16_bytes_a_row_within_its_byte_budget(monkeypatch):
    assert register._LAYOUT_CACHE_BYTES == 1 << 24
    register._layouts.clear()
    for n in (3, 10):
        order, back = register._layout(n, (1,))
        assert order.dtype == back.dtype == np.intp
        assert order.nbytes + back.nbytes == 16 * 2**n
        assert order.flags.writeable and back.flags.writeable  # take copies read-only ones
        assert np.array_equal(order[back], np.arange(2**n))
    # Three 10-qubit layouts fit the budget; each new one drops the oldest.
    monkeypatch.setattr(register, "_LAYOUT_CACHE_BYTES", 3 * 16 * 2**10)
    register._layouts.clear()
    for q in range(1, 6):
        register._layout(10, (q,))
        assert sum(o.nbytes + b.nbytes for o, b in register._layouts.values()) <= 3 * 16 * 2**10
    assert list(register._layouts) == [(10, (3,)), (10, (4,)), (10, (5,))]
    register._layout(3, (1,))
    assert list(register._layouts) == [(10, (4,)), (10, (5,)), (3, (1,))]
    # A layout larger than the whole budget is built but neither cached nor evicting.
    order, back = register._layout(12, (2, 7))
    assert order.nbytes + back.nbytes == 16 * 2**12
    assert list(register._layouts) == [(10, (4,)), (10, (5,)), (3, (1,))]


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "gate, bad, good, error",
    [
        (hadamard_gate(), [1, 2], (cnot_gate(), [1, 2]),
         (ValueError, "gate H has arity 1, got 2 targets")),
        (cnot_gate(), [2, 2], (cnot_gate(), [2, 3]), (ValueError, "targets must be distinct")),
        (hadamard_gate(), [4], (hadamard_gate(), [3]), (ValueError, "target 4 out of range 1..3")),
        (cnot_gate(), [0, 1], (cnot_gate(), [3, 1]), (ValueError, "target 0 out of range 1..3")),
        (hadamard_gate(), [1.0], (hadamard_gate(), [1]),
         (TypeError, "'float' object cannot be interpreted as an integer")),
        (cnot_gate(), (1, 2.0), (cnot_gate(), (1, 2)),
         (TypeError, "'float' object cannot be interpreted as an integer")),
    ],
    ids=["arity", "repeated", "above-range", "below-range", "float", "float-in-pair"],
)
def test_bad_targets_raise_the_same_on_a_fresh_and_a_warm_cache(gate, bad, good, error):
    reg = QRegister.computational(3, 0)
    register._layouts.clear()
    assert raised(lambda: apply_gate(reg, gate, bad)) == error
    assert raised(lambda: apply_gate(reg, gate, bad)) == error  # no exception is cached
    apply_gate(reg, *good)
    assert raised(lambda: apply_gate(reg, gate, bad)) == error


def test_bool_and_numpy_integer_targets_give_the_amplitudes_of_plain_ints():
    reg = rand_register(np.random.default_rng(54), 3)
    cases = [(hadamard_gate(), [True], [1]),
             (cnot_gate(), [np.int64(3), True], [3, 1]),
             (t_gate(), (np.int64(2),), [2])]
    for odd_first in (True, False):
        register._layouts.clear()
        for gate, odd, plain in cases:
            order = (odd, plain) if odd_first else (plain, odd)
            a, b = (apply_gate(reg, gate, targets).amps.components for targets in order)
            assert np.array_equal(a, b), (gate.name, odd)


@pytest.mark.parametrize("factory", [hadamard_gate, cnot_gate, t_gate])
def test_gate_factory_returns_one_gate_and_builds_its_operator_once(factory, monkeypatch):
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return entry_products(*args, **kwargs)

    factory.cache_clear()
    monkeypatch.setattr(register, "entry_products", counted)
    gate = factory()
    assert all(factory() is gate for _ in range(3))
    assert all(factory().operator is gate.operator for _ in range(3))
    assert len(builds) == 1


# -- Bell benchmark -------------------------------------------------------------

def test_bell_state_values():
    reg = bell_prepare()
    assert amplitude(reg, "00").w == INV_SQRT2  # exact
    assert amplitude(reg, "11").isclose(Quaternion(0, 0, -INV_SQRT2, 0), tol=1e-12)
    assert amplitude(reg, "01") == ZERO and amplitude(reg, "10") == ZERO
    assert real_norm_sq(reg.amps) == pytest.approx(1.0, abs=1e-12)


def test_bell_reproducible():
    a, b = bell_prepare(), bell_prepare()
    assert a.amps.isclose(b.amps, tol=0.0)


# -- unit substitution ------------------------------------------------------------

def test_substitute_units_on_cnot_entry():
    sub = substitute_units(cnot_gate(), {"k": -I})
    assert Quaternion(*sub.matrix.components[3, 2]) == -I


def test_substitute_units_bell_becomes_standard():
    sub_cnot = substitute_units(cnot_gate(), {"j": -I, "k": -I})
    reg = QRegister.computational(2, "00")
    reg = apply_gate(reg, hadamard_gate(), [1])
    reg = apply_gate(reg, sub_cnot, [1, 2])
    assert amplitude(reg, "00").isclose(INV_SQRT2 * ONE, tol=1e-12)
    assert amplitude(reg, "11").isclose(INV_SQRT2 * ONE, tol=1e-12)


def test_substitute_units_empty_map_is_identity():
    g = substitute_units(cnot_gate(), {})
    assert g.matrix.isclose(cnot_gate().matrix)
    assert g.name == "CNOT"


def test_substitute_units_rejects_non_unit():
    with pytest.raises(ValueError):
        substitute_units(cnot_gate(), {"j": Quaternion(0.5)})
    with pytest.raises(ValueError):
        substitute_units(cnot_gate(), {"w": ONE})


# -- gate library audit -------------------------------------------------------------

def test_gate_library_unitarity_verdicts():
    passing = [cnot_gate(), pauli_gate("X"), pauli_gate("Y"), pauli_gate("Z"),
               t_gate(), phased_pauli_gate("X"), phased_pauli_gate("Y"),
               phased_pauli_gate("Z"), phased_pauli_gate("I")]
    for gate in passing:
        assert is_unitary(gate.matrix).passed, gate.name
    assert not is_unitary(hadamard_gate().matrix).passed


def test_norm_preservation_for_unitary_gates():
    rng = np.random.default_rng(33)
    for gate in (cnot_gate(), pauli_gate("Y"), t_gate(), phased_pauli_gate("Z")):
        for _ in range(10):
            reg = rand_register(rng, 2)
            targets = [1, 2] if gate.arity == 2 else [int(rng.integers(1, 3))]
            out = apply_gate(reg, gate, targets)
            assert real_norm_sq(out.amps) == pytest.approx(1.0, abs=1e-9)


def test_phased_x_equals_x_then_left_i():
    rng = np.random.default_rng(34)
    reg = rand_register(rng, 2)
    via_gate = apply_gate(reg, phased_pauli_gate("X"), [1])
    via_scalar = left_scalar_mul(apply_gate(reg, pauli_gate("X"), [1]), I)
    assert via_gate.amps.isclose(via_scalar.amps, tol=0.0)
