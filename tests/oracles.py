"""Slow reference implementations that tests compare the library against.

Each one takes the plain route to its answer (a dense product, an exact
eigenvalue read off a state) rather than the library's fast path, so a
test that sets the two side by side checks the library independently.
:func:`hamilton_product` and :func:`left_mul_literal` write the Hamilton
product out term by term, apart from the sign table ``hqec.linalg``
computes it from.
:func:`repetition_code` and :func:`random_code` build codes other than
the shipped three for the tests to run both on.
:func:`numpy_rows` draws each trial's uniforms from numpy's own Philox
generator, and :func:`pauli_masks`, :func:`rotation_events` and
:func:`oracle_events` read them into events one comparison at a time,
apart from the rules ``hqec.noise`` samples with.
"""

import numpy as np

from hqec import quaternion as quat
from hqec.linalg import QMatrix, QVector
from hqec.register import UNIT_FOR_LETTER, Gate, QRegister
from hqec.codes import (
    LETTERS,
    CodewordCheck,
    CodewordReport,
    PauliString,
    StabilizerCode,
    Syndrome,
    SyndromeTable,
    SyndromeTableRow,
    apply_pauli,
    commute_sign,
    syndrome_of,
)
from hqec.noise import DRAWS_PER_QUBIT, ErrorEvent, NoiseModel, RotationError


def hamilton_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcasted Hamilton product of ``(..., 4)`` component arrays, term by term."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        (
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ),
        axis=-1,
    )


def left_mul_literal(q: quat.Quaternion) -> np.ndarray:
    """The 4x4 real matrix L with ``L @ v == components of q * v``, written out."""
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, -z, y],
            [y, z, w, -x],
            [z, -y, x, w],
        ]
    )


def amplitude(reg: QRegister, bits: str) -> quat.Quaternion:
    """The amplitude of the basis state ``bits`` (qubit 1 first)."""
    if len(bits) != reg.n or any(b not in "01" for b in bits):
        raise ValueError(f"bad bit string {bits!r}")
    return reg.amps[int(bits, 2)]


def left_scalar_mul(reg: QRegister, q: quat.Quaternion) -> QRegister:
    """Every amplitude times ``q`` on the left."""
    return QRegister.from_components(reg.n, reg.amps.components @ left_mul_literal(q).T)


def uncached_apply_gate(reg: QRegister, gate: Gate, targets) -> QRegister:
    """``register.apply_gate`` with its layout and target checks worked out on every call.

    The same row order, reached by a transpose instead of a row gather, and
    the same single product by ``gate.operator``, so its amplitudes must
    equal the library's bit for bit.
    """
    targets = tuple(targets)
    if len(targets) != gate.arity:
        raise ValueError(f"gate {gate.name} has arity {gate.arity}, got {len(targets)} targets")
    if len(set(targets)) != len(targets):
        raise ValueError("targets must be distinct")
    for q in targets:
        if not 1 <= q <= reg.n:
            raise ValueError(f"target {q} out of range 1..{reg.n}")
    n, a = reg.n, gate.arity
    axes = [q - 1 for q in targets]
    perm = [q for q in range(n) if q not in axes] + axes + [n]
    inverse = sorted(range(n + 1), key=perm.__getitem__)
    front = reg.amps.components.reshape((2,) * n + (4,)).transpose(perm)
    product = front.reshape(-1, 4 << a) @ gate.operator
    out = product.reshape(front.shape).transpose(inverse).reshape(2**n, 4)
    return QRegister(n, QVector.from_components(out))


def component_strength(reg: QRegister, qubit: int, axis: str) -> float:
    """Summed squared ``axis`` components over the whole register.

    The per-qubit argument is bookkeeping only: no per-qubit partial trace
    is attempted, so the sum runs over every amplitude.  For a single
    qubit whose amplitude has j component ``c`` this returns ``c**2``.
    """
    if not 1 <= qubit <= reg.n:
        raise ValueError(f"qubit {qubit} out of range 1..{reg.n}")
    names = list(quat.UNIT_BY_NAME)
    if axis not in names[1:]:
        raise ValueError(f"axis must be one of i, j, k, got {axis!r}")
    col = reg.amps.components[:, names.index(axis)]
    return float(np.sum(col * col))


def right_scalar_mul(psi: QVector, q: quat.Quaternion) -> QVector:
    """Every amplitude times ``q`` on the right: ``psi_n -> psi_n * q``."""
    return QVector.from_components(hamilton_product(psi.components, np.array(q.as_tuple())))


def identity_matrix(n: int) -> QMatrix:
    """The ``n x n`` identity with quaternion entries."""
    arr = np.zeros((n, n, 4))
    arr[np.arange(n), np.arange(n), 0] = 1.0
    return QMatrix.from_components(arr)


def matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    """Matrix product with entrywise left-to-right quaternion multiplication."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    prod = hamilton_product(a.components[:, :, None, :], b.components[None, :, :, :])
    return QMatrix.from_components(prod.sum(axis=1))


def matrix_from_dict(data: dict) -> QMatrix:
    """The matrix that ``linalg.matrix_to_dict`` wrote out."""
    entries = np.asarray(data["entries"], dtype=float)
    return QMatrix.from_components(entries.reshape(data["rows"], data["cols"], 4))


def measure_stabilizer_eigenvalue(
    reg: QRegister, s: PauliString, tol: float = quat.TOLERANCE
) -> int:
    """Exact +-1 eigenvalue of ``s`` on ``reg``; raises if ``reg`` is not an eigenstate."""
    moved = apply_pauli(s, reg)
    if moved.amps.isclose(reg.amps, tol):
        return 1
    negated = QVector.from_components(-moved.amps.components)
    if negated.isclose(reg.amps, tol):
        return -1
    raise ValueError(f"register is not a +-1 eigenstate of {s.word()}")


def state_based_syndrome(e: PauliString, code: StabilizerCode, codeword: int = 0) -> Syndrome:
    """Syndrome measured on a damaged codeword instead of via commutation.

    Applies ``e`` to the chosen codeword and reads each generator's exact
    eigenvalue.  Valid only for codes whose codewords the generators fix,
    which is what makes it an independent check of ``codes.syndrome_of``.
    """
    cw = code.codeword_zero if codeword == 0 else code.codeword_one
    damaged = apply_pauli(e, cw)
    return Syndrome(tuple(measure_stabilizer_eigenvalue(damaged, g) for g in code.generators))


def repetition_code(n: int) -> StabilizerCode:
    """Bit-flip repetition code on ``n`` qubits: generators Z_q Z_(q+1)."""
    return StabilizerCode(
        code_id=f"repetition{n}",
        n=n,
        k=1,
        d=n,
        generators=tuple(
            PauliString.from_word("I" * q + "ZZ" + "I" * (n - q - 2)) for q in range(n - 1)
        ),
        logical_x=PauliString.from_word("X" * n),
        logical_z=PauliString.from_word("Z" * n),
        codeword_zero=QRegister.computational(n, "0" * n),
        codeword_one=QRegister.computational(n, "1" * n),
    )


def random_code(rng: np.random.Generator, index: int, sizes: range = range(1, 7)) -> StabilizerCode:
    """A code of random pairwise-commuting generators on ``n`` in ``sizes`` qubits.

    An even ``index`` projects a random register onto the generators' joint
    +1 eigenspace (phase-free generators only), so its checks can pass; an
    odd one carries random unit phases and random quaternion codewords.
    """
    n = int(rng.integers(sizes.start, sizes.stop))
    project = index % 2 == 0
    phases = [quat.ONE] if project else list(quat.UNIT_PHASES)
    generators = []
    for _ in range(2 * n):
        word = "".join(rng.choice(list(LETTERS), size=n))
        g = PauliString.from_word(word, phases[rng.integers(len(phases))])
        if all(commute_sign(g, h) == 1 for h in generators):
            generators.append(g)
    logical_x, logical_z = (
        PauliString.from_word("".join(rng.choice(list(LETTERS), size=n)),
                              phases[rng.integers(len(phases))])
        for _ in range(2)
    )
    zero = QRegister.from_components(n, rng.normal(size=(2**n, 4)))
    if project:
        for g in generators:
            zero = QRegister.from_components(
                n, (zero.amps.components + apply_pauli(g, zero).amps.components) / 2.0)
    one = apply_pauli(logical_x, zero) if project else QRegister.from_components(
        n, rng.normal(size=(2**n, 4)))
    return StabilizerCode(f"random{index}", n, 1, 3, tuple(generators), logical_x, logical_z,
                          zero, one)


def pauli_masks(model: NoiseModel, p: float, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic ``(x, z)`` masks of the Pauli part of each row's event at rate ``p``.

    ``draws`` holds one trial's ``DRAWS_PER_QUBIT * n`` uniforms per row:
    per qubit a Pauli hit below ``p``, then a letter, X below the first
    weight, Y below the first two, else Z.  Each mask is a uint64 with
    qubit 1 as the most significant bit.
    """
    n = draws.shape[1] // DRAWS_PER_QUBIT
    if n > 64:
        raise ValueError(f"masks hold at most 64 qubits, got n={n}")
    hit = draws[:, 0:n] < p
    u_letter = draws[:, n : 2 * n]
    c1 = model.pauli_weights[0]
    c2 = c1 + model.pauli_weights[1]
    place = np.uint64(1) << np.arange(n - 1, -1, -1, dtype=np.uint64)
    x = (hit & (u_letter < c2)).astype(np.uint64) @ place
    z = (hit & ~(u_letter < c1)).astype(np.uint64) @ place
    return x, z


def numpy_rows(seed: int, trials, count: int) -> np.ndarray:
    """Each trial's first ``count`` doubles from numpy's own Philox, one row per trial."""
    # A uint64 key: numpy reads a plain list holding a word >= 2**63 as
    # float64 and rounds that word.
    rows = [np.random.Generator(np.random.Philox(key=np.array([seed, t], dtype=np.uint64)))
            .random(count) for t in trials]
    return np.array(rows).reshape(len(rows), count)


def rotation_events(model: NoiseModel, draws: np.ndarray) -> list[tuple[int, ErrorEvent]]:
    """``(row, event)`` for each row of ``draws`` whose event has a rotation.

    Reads the rotation draws one qubit at a time: qubit ``q`` is rotated
    when its rotation draw is below ``p_rot``, by ``theta`` for a
    ``fixed`` angle and by its angle draw times ``theta`` for a
    ``uniform`` one.  The event is the row's event with its Pauli part
    removed.
    """
    n = draws.shape[1] // DRAWS_PER_QUBIT
    kind, theta = model.rot_angle.kind, model.rot_angle.theta
    events = []
    for row, u in enumerate(draws):
        rotations = tuple(
            RotationError(q + 1, model.rot_axis,
                          theta if kind == "fixed" else float(u[3 * n + q]) * theta)
            for q in range(n)
            if u[2 * n + q] < model.p_rot
        )
        if rotations:
            events.append((row, ErrorEvent(PauliString.identity(n), rotations, model.rot_mode)))
    return events


def oracle_events(model: NoiseModel, p: float, draws: np.ndarray) -> list[ErrorEvent]:
    """The error event at rate ``p`` of each row of ``draws``, from its Pauli masks and rotations."""
    n = draws.shape[1] // DRAWS_PER_QUBIT
    rotated = dict(rotation_events(model, draws))
    events = []
    for row, (x, z) in enumerate(zip(*pauli_masks(model, p, draws))):
        bits = [(int(x) >> (n - 1 - q) & 1, int(z) >> (n - 1 - q) & 1) for q in range(n)]
        pauli = PauliString(tuple("IZXY"[2 * xb + zb] for xb, zb in bits))
        rotations = rotated[row].rotations if row in rotated else ()
        events.append(ErrorEvent(pauli, rotations, model.rot_mode))
    return events


def _anticommutes(x: np.ndarray, z: np.ndarray, gx: int, gz: int) -> np.ndarray:
    return (np.bitwise_count((x & gz) ^ (z & gx)) & 1).astype(bool)


def pauli_failures(code: StabilizerCode, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Decode and score of Pauli errors given as uint64 mask arrays.

    Element ``t`` is True exactly when ``decode(syndrome_of(e, code), code)``
    is unknown or ``logical_failure(e, correction, code)`` holds for the
    error ``e`` with masks ``x[t], z[t]``: the syndrome is computed one
    generator at a time, and the residual is built from the decoder's own
    correction and tested against both logicals.
    """
    table = code._decoder
    unknown = np.array([not candidates for candidates in table])
    cx = np.array([c[0].x if c else 0 for c in table], dtype=np.uint64)
    cz = np.array([c[0].z if c else 0 for c in table], dtype=np.uint64)
    index = np.zeros(np.shape(x), dtype=np.intp)
    for i, g in enumerate(code.generators):
        index |= _anticommutes(x, z, g.x, g.z).astype(np.intp) << i
    rx, rz = x ^ cx[index], z ^ cz[index]
    return (
        unknown[index]
        | _anticommutes(rx, rz, code.logical_x.x, code.logical_x.z)
        | _anticommutes(rx, rz, code.logical_z.x, code.logical_z.z)
    )


def _is_plus_one_eigenvector(ps: PauliString, reg: QRegister) -> bool:
    return apply_pauli(ps, reg).amps.isclose(reg.amps, quat.TOLERANCE)


def verify_codewords(code: StabilizerCode) -> CodewordReport:
    """``codes.verify_codewords`` one operator at a time through ``apply_pauli``."""
    checks = tuple(
        CodewordCheck(
            generator=g.word(),
            fixes_zero=_is_plus_one_eigenvector(g, code.codeword_zero),
            fixes_one=_is_plus_one_eigenvector(g, code.codeword_one),
        )
        for g in code.generators
    )
    z0 = apply_pauli(code.logical_z, code.codeword_zero)
    z1 = apply_pauli(code.logical_z, code.codeword_one)
    minus_one = QRegister.from_components(code.n, -code.codeword_one.amps.components)
    logical_z_ok = z0.isclose(code.codeword_zero) and z1.isclose(minus_one)
    x0 = apply_pauli(code.logical_x, code.codeword_zero)
    x1 = apply_pauli(code.logical_x, code.codeword_one)
    logical_x_ok = x0.isclose(code.codeword_one) and x1.isclose(code.codeword_zero)
    return CodewordReport(code.code_id, checks, logical_z_ok, logical_x_ok)


def build_syndrome_table(code: StabilizerCode) -> SyndromeTable:
    """``codes.build_syndrome_table`` from ``syndrome_of`` on plain and phased strings.

    Raises ``AssertionError`` if the phased variant's syndrome differs.
    """
    rows = []
    for qubit in range(1, code.n + 1):
        for letter in ("X", "Y", "Z"):
            error = PauliString.single(code.n, qubit, letter)
            syndrome = syndrome_of(error, code)
            phase = UNIT_FOR_LETTER[letter]
            variant = PauliString.single(code.n, qubit, letter, phase)
            if syndrome_of(variant, code) != syndrome:
                raise AssertionError("phased variant changed a syndrome")
            rows.append(
                SyndromeTableRow(
                    qubit=qubit,
                    letter=letter,
                    phase=phase,
                    error_label=f"{letter}{qubit}",
                    variants=(variant.label,),
                    syndrome=syndrome,
                )
            )
    return SyndromeTable(code.code_id, len(code.generators), tuple(rows))
