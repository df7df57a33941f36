import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from hqec import quaternion as quat
from hqec.quaternion import Quaternion
from hqec.register import QRegister
from hqec.codes import (
    CODE_IDS,
    LETTERS,
    MAPPING_TABLE,
    MAPPING_TEXT,
    REFERENCE_CODEWORD_ACTION,
    REFERENCE_TABLE2,
    PauliString,
    StabilizerCode,
    Syndrome,
    apply_pauli,
    audit_against_paper,
    build_syndrome_table,
    codeword_action_diff,
    commute_sign,
    decode,
    get_code,
    logical_failure,
    syndrome_of,
    verify_codewords,
)

import oracles
from oracles import (
    amplitude, measure_stabilizer_eigenvalue, pauli_failures, repetition_code,
    state_based_syndrome,
)

ONE, I, J, K = quat.ONE, quat.I, quat.J, quat.K


# -- independent commutation oracle ------------------------------------------
# Each Pauli word is lifted to a real matrix through the left-regular
# representation of the quaternions (one 4x4 real block per entry), so the
# commutator check shares no code with commute_sign.

def _lrep(w, x, y, z):
    return np.array(
        [[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x], [z, -y, x, w]], dtype=float
    )


_PAULI_C = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _word_to_real(letters):
    m = np.array([[1.0 + 0j]])
    for letter in letters:
        m = np.kron(m, _PAULI_C[letter])
    dim = m.shape[0]
    out = np.zeros((4 * dim, 4 * dim))
    for r in range(dim):
        for c in range(dim):
            out[4 * r : 4 * r + 4, 4 * c : 4 * c + 4] = _lrep(m[r, c].real, m[r, c].imag, 0, 0)
    return out


def oracle_commute_sign(a, b):
    ma, mb = _word_to_real(a), _word_to_real(b)
    if np.allclose(ma @ mb, mb @ ma, atol=1e-12):
        return 1
    if np.allclose(ma @ mb, -(mb @ ma), atol=1e-12):
        return -1
    raise AssertionError("operators neither commute nor anticommute")


def oracle_product_letters(a, b):
    """Letter-wise product of two words with phases dropped, read off 2x2 matrices."""
    letters = []
    for la, lb in zip(a, b):
        m = _PAULI_C[la] @ _PAULI_C[lb]
        letters.append(next(name for name, p in _PAULI_C.items() if abs(np.vdot(p, m)) > 1.0))
    return tuple(letters)


# -- PauliString ---------------------------------------------------------------

def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString(("A",))
    with pytest.raises(ValueError):
        PauliString(("X",), phase=Quaternion(0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        PauliString.single(3, 4, "X")


def test_pauli_string_labels():
    assert PauliString.single(5, 2, "Y").label == "Y2"
    assert PauliString.single(5, 2, "Y", J).label == "jY2"
    assert PauliString.identity(3).label == "I"
    assert PauliString.from_word("XZZXI").label == "XZZXI"
    assert PauliString.from_word("XXX", -I).label == "-iXXX"


# -- commute_sign ----------------------------------------------------------------

def test_commute_sign_basic_pairs():
    x1 = PauliString.single(1, 1, "X")
    z1 = PauliString.single(1, 1, "Z")
    assert commute_sign(x1, z1) == -1
    assert commute_sign(PauliString.from_word("XX"), PauliString.from_word("ZZ")) == 1
    assert commute_sign(
        PauliString.single(5, 1, "X"), PauliString.from_word("XXXXI")
    ) == 1


def test_commute_sign_length_mismatch():
    with pytest.raises(ValueError):
        commute_sign(PauliString.identity(2), PauliString.identity(3))


def test_commute_sign_matches_matrix_oracle():
    rng = np.random.default_rng(41)
    letters = ("I", "X", "Y", "Z")
    for _ in range(60):
        n = int(rng.integers(1, 6))
        a = tuple(letters[i] for i in rng.integers(0, 4, size=n))
        b = tuple(letters[i] for i in rng.integers(0, 4, size=n))
        assert commute_sign(PauliString(a), PauliString(b)) == oracle_commute_sign(a, b)
        for word in (a, b):
            ps = PauliString(word)
            # qubit 1 is the most significant bit; x + 2z indexes I, X, Z, Y
            rebuilt = tuple(
                "IXZY"[((ps.x >> (n - q)) & 1) + 2 * ((ps.z >> (n - q)) & 1)]
                for q in range(1, n + 1)
            )
            assert rebuilt == word


def test_generator_commutation_matches_oracle_for_shipped_codes():
    for code in (get_code("three"), get_code("paper5"), get_code("perfect5")):
        for qubit in range(1, code.n + 1):
            for letter in "XYZ":
                error = PauliString.single(code.n, qubit, letter)
                for g in code.generators:
                    assert commute_sign(error, g) == oracle_commute_sign(
                        error.letters, g.letters
                    )


# -- syndrome_of ------------------------------------------------------------------

def test_syndrome_three_qubit_x1():
    code = get_code("three")
    syn = syndrome_of(PauliString.single(3, 1, "X"), code)
    assert syn.bits == (-1, 1)


def test_syndrome_identity_trivial():
    for code in (get_code("three"), get_code("perfect5")):
        assert syndrome_of(PauliString.identity(code.n), code).trivial


def test_syndrome_paper5_z5_trivial():
    code = get_code("paper5")
    assert syndrome_of(PauliString.single(5, 5, "Z"), code).bits == (1, 1, 1, 1)


def test_syndrome_phase_invariance():
    codes = (get_code("three"), get_code("paper5"), get_code("perfect5"))
    for code in codes:
        for qubit in (1, code.n):
            for letter in "XYZ":
                plain = syndrome_of(PauliString.single(code.n, qubit, letter), code)
                for phase in quat.UNIT_PHASES:
                    phased = PauliString.single(code.n, qubit, letter, phase)
                    assert syndrome_of(phased, code) == plain


def test_state_based_syndrome_equals_commutation():
    for code in (get_code("three"), get_code("perfect5")):
        for qubit in range(1, code.n + 1):
            for letter in "XYZ":
                error = PauliString.single(code.n, qubit, letter)
                expected = syndrome_of(error, code)
                assert state_based_syndrome(error, code, codeword=0) == expected
                assert state_based_syndrome(error, code, codeword=1) == expected


def test_state_based_syndrome_with_phases():
    code = get_code("perfect5")
    error = PauliString.single(5, 3, "Y", K)
    assert state_based_syndrome(error, code) == syndrome_of(error, code)


# -- syndrome tables -----------------------------------------------------------------

def test_table_three_qubit():
    table = build_syndrome_table(get_code("three"))
    assert len(table.rows) == 9
    assert table.rows[0].error_label == "X1"
    assert table.rows[0].syndrome.bits == (-1, 1)
    assert table.rows[0].variants == ("iX1",)


# Frozen from the commutation rule; cross-checked against the matrix oracle
# in test_paper5_table_matches_oracle.
PAPER5_COMPUTED = {
    ("X", 1): (1, -1, 1, 1),
    ("Y", 1): (-1, -1, 1, 1),
    ("Z", 1): (-1, 1, 1, 1),
    ("X", 2): (1, -1, -1, 1),
    ("Y", 2): (-1, -1, -1, 1),
    ("Z", 2): (-1, 1, 1, 1),
    ("X", 3): (1, 1, -1, -1),
    ("Y", 3): (-1, 1, -1, -1),
    ("Z", 3): (-1, 1, 1, 1),
    ("X", 4): (1, 1, 1, -1),
    ("Y", 4): (-1, 1, 1, -1),
    ("Z", 4): (-1, 1, 1, 1),
    ("X", 5): (1, 1, 1, -1),
    ("Y", 5): (1, 1, 1, -1),
    ("Z", 5): (1, 1, 1, 1),
}


def test_paper5_table_frozen_values():
    table = build_syndrome_table(get_code("paper5"))
    assert len(table.rows) == 15
    for row in table.rows:
        assert row.syndrome.bits == PAPER5_COMPUTED[(row.letter, row.qubit)]


def test_paper5_table_matches_oracle():
    code = get_code("paper5")
    for (letter, qubit), bits in PAPER5_COMPUTED.items():
        error = PauliString.single(5, qubit, letter)
        oracle_bits = tuple(
            oracle_commute_sign(error.letters, g.letters) for g in code.generators
        )
        assert oracle_bits == bits


# -- audit -----------------------------------------------------------------------

def test_audit_row_verdicts():
    audit = audit_against_paper(build_syndrome_table(get_code("paper5")))
    by_label = {row.error_label: row for row in audit.rows}
    assert by_label["Y2"].match
    assert not by_label["X1"].match
    assert by_label["X1"].computed.bits == (1, -1, 1, 1)
    assert by_label["X1"].reference.bits == (-1, -1, 1, 1)
    assert not by_label["Z5"].match
    assert by_label["Z5"].computed.trivial


def test_audit_mismatch_count_frozen():
    audit = audit_against_paper(build_syndrome_table(get_code("paper5")))
    assert audit.mismatch_count == 9


def test_audit_collisions():
    audit = audit_against_paper(build_syndrome_table(get_code("paper5")))
    assert audit.collisions[(-1, 1, 1, 1)] == ("Z1", "Z2", "Z3", "Z4")
    assert audit.collisions[(1, 1, 1, -1)] == ("X4", "X5", "Y5")
    assert audit.trivial_syndrome_errors == ("Z5",)


def test_audit_requires_paper5():
    with pytest.raises(ValueError):
        audit_against_paper(build_syndrome_table(get_code("three")))


def test_audit_reference_is_verbatim():
    # spot-check a few stored reference rows
    assert REFERENCE_TABLE2[("X", 1)] == (-1, -1, 1, 1)
    assert REFERENCE_TABLE2[("Z", 3)] == (1, 1, -1, -1)
    assert REFERENCE_TABLE2[("Z", 5)] == (1, 1, 1, -1)


# -- decode ---------------------------------------------------------------------

def test_decode_three_qubit_x1():
    code = get_code("three")
    out = decode(Syndrome((-1, 1)), code)
    assert out.correction == PauliString.single(3, 1, "X")
    assert not out.unknown


def test_decode_trivial_is_identity():
    for code in (get_code("three"), get_code("paper5"), get_code("perfect5")):
        out = decode(Syndrome((1,) * len(code.generators)), code)
        assert out.correction == PauliString.identity(code.n)


def test_decode_paper5_tie_break_and_collision():
    code = get_code("paper5")
    out = decode(Syndrome((1, 1, 1, -1)), code)
    assert out.correction == PauliString.single(5, 4, "X")
    assert out.ambiguous
    labels = [c.label for c in out.candidates]
    assert labels == ["X4", "X5", "Y5"]


def test_decode_paper5_trivial_collides_with_z5():
    code = get_code("paper5")
    out = decode(Syndrome((1, 1, 1, 1)), code)
    assert out.correction == PauliString.identity(5)
    assert out.ambiguous
    assert out.candidates[1] == PauliString.single(5, 5, "Z")


def test_decode_unknown_syndrome():
    code = get_code("paper5")
    out = decode(Syndrome((-1, -1, 1, -1)), code)
    assert out.unknown
    assert out.correction is None


def test_decode_length_validation():
    with pytest.raises(ValueError):
        decode(Syndrome((1, 1, 1)), get_code("three"))


def test_decode_perfect5_soundness():
    code = get_code("perfect5")
    seen = set()
    for qubit in range(1, 6):
        for letter in "XYZ":
            error = PauliString.single(5, qubit, letter)
            syn = syndrome_of(error, code)
            seen.add(syn.bits)
            out = decode(syn, code)
            assert not out.ambiguous
            assert out.correction == error
    assert len(seen) == 15
    assert (1, 1, 1, 1) not in seen


@pytest.mark.parametrize("code_id", CODE_IDS)
def test_decode_every_syndrome_against_enumeration(code_id):
    code = get_code(code_id)
    m = len(code.generators)
    # identity, then qubit 1..n with X < Y < Z: the documented tie-break order
    errors = [PauliString.identity(code.n)] + [
        PauliString.single(code.n, qubit, letter)
        for qubit in range(1, code.n + 1)
        for letter in "XYZ"
    ]
    for index in range(2**m):
        bits = tuple(-1 if (index >> i) & 1 else 1 for i in range(m))
        expected = tuple(e for e in errors if syndrome_of(e, code).bits == bits)
        out = decode(Syndrome(bits), code)
        assert out.candidates == expected
        assert out.correction == (expected[0] if expected else None)
        assert out.unknown == (len(expected) == 0)
        assert out.ambiguous == (len(expected) >= 2)


@pytest.mark.parametrize("code_id", CODE_IDS)
def test_logical_failure_matches_matrix_oracle_exhaustively(code_id):
    code = get_code(code_id)
    expected_by_residual = {}
    checked = 0
    for word in itertools.product(LETTERS, repeat=code.n):
        error = PauliString(word)
        outcome = decode(syndrome_of(error, code), code)
        if outcome.unknown:
            continue
        residual = oracle_product_letters(word, outcome.correction.letters)
        if residual not in expected_by_residual:
            expected_by_residual[residual] = any(
                oracle_commute_sign(residual, logical.letters) == -1
                for logical in (code.logical_x, code.logical_z)
            )
        assert logical_failure(error, outcome.correction, code) == expected_by_residual[residual]
        checked += 1
    assert checked >= 4 ** code.n // 2
    assert set(expected_by_residual.values()) == {False, True}


@pytest.mark.parametrize("code_id", CODE_IDS)
def test_pauli_failures_matches_decoder_on_every_word(code_id):
    code = get_code(code_id)
    errors = [PauliString(word) for word in itertools.product(LETTERS, repeat=code.n)]
    x = np.array([e.x for e in errors], dtype=np.uint64)
    z = np.array([e.z for e in errors], dtype=np.uint64)
    expected = []
    for error in errors:
        outcome = decode(syndrome_of(error, code), code)
        expected.append(outcome.unknown or logical_failure(error, outcome.correction, code))
    assert pauli_failures(code, x, z).tolist() == expected


def signature_scores(code, x, z):
    """Failure verdicts from the code's signature tables for uint64 mask arrays.

    Each error's signature is the XOR of the per-qubit signatures of its
    letters (X, Y, Z as 0, 1, 2), read one qubit at a time from the masks.
    """
    signature = np.zeros(np.shape(x), dtype=np.intp)
    for q in range(code.n):
        bit = np.uint64(1 << (code.n - 1 - q))
        has_x, has_z = (x & bit) != 0, (z & bit) != 0
        letter = np.where(has_x & has_z, 1, np.where(has_x, 0, 2))
        signature ^= np.where(has_x | has_z, code.signatures[q, letter], 0)
    return code.verdicts[signature]


@pytest.mark.parametrize("code_id", CODE_IDS)
def test_signature_scoring_equals_oracle_on_every_word(code_id):
    code = get_code(code_id)
    errors = [PauliString(word) for word in itertools.product(LETTERS, repeat=code.n)]
    x = np.array([e.x for e in errors], dtype=np.uint64)
    z = np.array([e.z for e in errors], dtype=np.uint64)
    expected = pauli_failures(code, x, z)
    assert signature_scores(code, x, z).tolist() == expected.tolist()
    assert expected.any() and not expected.all()


def test_signature_scoring_equals_oracle_on_a_twelve_qubit_code():
    code = repetition_code(12)
    m = len(code.generators)
    # the tables grow as n and 2**(m + 2), never as 4**n
    assert code.signatures.shape == (12, 3)
    assert code.verdicts.shape == (4 << m,) == (8192,)
    rng = np.random.default_rng(12)
    x = rng.integers(0, 2**12, size=5000, dtype=np.uint64)
    z = rng.integers(0, 2**12, size=5000, dtype=np.uint64)
    expected = pauli_failures(code, x, z)
    assert signature_scores(code, x, z).tolist() == expected.tolist()
    # words the decoder corrects, and words it fails on both occur
    assert expected.any() and not expected.all()
    for e in (PauliString.single(12, 7, "X"), PauliString.from_word("X" * 6 + "I" * 6)):
        outcome = decode(syndrome_of(e, code), code)
        failed = outcome.unknown or logical_failure(e, outcome.correction, code)
        x, z = np.array([e.x], np.uint64), np.array([e.z], np.uint64)
        assert signature_scores(code, x, z).tolist() == [failed]


def test_get_code_builds_each_code_once_with_read_only_tables():
    for code_id in CODE_IDS:
        code = get_code(code_id)
        assert get_code(code_id) is code
        for table in (code.signatures, code.verdicts):
            with pytest.raises(ValueError):
                table[0] = table[0]


def test_logical_failure_length_validation():
    with pytest.raises(ValueError):
        logical_failure(PauliString.identity(2), PauliString.identity(3), get_code("three"))


# -- codeword verification ---------------------------------------------------------

def test_verify_three_qubit():
    report = verify_codewords(get_code("three"))
    assert report.passed
    assert report.logical_x_ok and report.logical_z_ok


def test_verify_perfect5():
    report = verify_codewords(get_code("perfect5"))
    assert report.passed


def test_verify_paper5_records_s1_failure():
    report = verify_codewords(get_code("paper5"))
    assert not report.passed
    by_gen = {check.generator: check for check in report.checks}
    # the X-type generator moves both codewords off themselves
    assert not by_gen["XXXXI"].fixes_zero and not by_gen["XXXXI"].fixes_one
    # odd-weight Z support flips the sign on |11111>
    assert by_gen["IIZZZ"].fixes_zero and not by_gen["IIZZZ"].fixes_one
    assert by_gen["ZZIII"].fixes_zero and by_gen["ZZIII"].fixes_one
    assert by_gen["IZZII"].fixes_zero and by_gen["IZZII"].fixes_one
    assert report.failing_generators == ("XXXXI", "IIZZZ")
    assert report.logical_x_ok and report.logical_z_ok


def test_perfect5_codeword_structure():
    code = get_code("perfect5")
    comp = code.codeword_zero.amps.components
    nonzero = np.abs(comp[:, 0]) > 1e-12
    assert nonzero.sum() == 16
    assert np.allclose(np.abs(comp[nonzero, 0]), 0.25, atol=1e-15)
    assert np.allclose(comp[:, 1:], 0.0)


# sha256 over each shipped code's generator and logical words, codeword
# component bytes, signatures and verdicts, recorded before the codes were
# built from one table.
_CODE_SHA256 = {
    "three": "425e7593e234e71f0586af19d771a641d79f03be6e5e0e664d1e29564b14301e",
    "paper5": "719f4a51600d282306e78a0636378c988492fa5f4c9f837175ecd783bb6d4754",
    "perfect5": "9d2a453768d0f06668e4396de29e959f86c144c4e62ecd286aec89081b062178",
}


@pytest.mark.parametrize("code_id", CODE_IDS)
def test_each_shipped_code_is_the_same_bytes(code_id):
    code = get_code(code_id)
    h = hashlib.sha256()
    words = (*code.generators, code.logical_x, code.logical_z)
    h.update(" ".join(ps.word() for ps in words).encode())
    for array in (code.codeword_zero.amps.components, code.codeword_one.amps.components,
                  code.signatures, code.verdicts):
        h.update(array.tobytes())
    assert (code.k, code.d) == (1, 3)
    assert h.hexdigest() == _CODE_SHA256[code_id]


@pytest.mark.parametrize("code_id", ["three", "paper5"])
def test_labelled_codewords_are_basis_states_with_an_exact_bound(code_id):
    # |0...0> already lies in the code space of `three`, so projecting it
    # would give the same amplitudes; only the bound `basis` carries differs.
    code = get_code(code_id)
    for codeword, bit in ((code.codeword_zero, "0"), (code.codeword_one, "1")):
        expected = QRegister.computational(code.n, bit * code.n).amps.components
        assert np.array_equal(codeword.amps.components, expected)
        assert codeword.amps.bound == 1.0


def test_code_ids_keep_their_order_and_unknown_ids_raise():
    assert CODE_IDS == ("three", "paper5", "perfect5")
    with pytest.raises(ValueError, match="unknown code id 'five'; known: three, paper5, perfect5"):
        get_code("five")


def test_generators_commute_in_all_codes():
    for code in (get_code("three"), get_code("paper5"), get_code("perfect5")):
        for i, a in enumerate(code.generators):
            for b in code.generators[i + 1 :]:
                assert commute_sign(a, b) == 1


def test_construction_rejects_anticommuting_generators():
    with pytest.raises(ValueError):
        StabilizerCode(
            code_id="bad",
            n=1,
            k=0,
            d=1,
            generators=(PauliString.single(1, 1, "X"), PauliString.single(1, 1, "Z")),
            logical_x=PauliString.single(1, 1, "X"),
            logical_z=PauliString.single(1, 1, "Z"),
            codeword_zero=QRegister.computational(1, "0"),
            codeword_one=QRegister.computational(1, "1"),
        )


# -- batched verification and signature-built tables against their references ------

def _rescaled(code, rng):
    """``code`` with each codeword times a random unit (-1 among them) on either side."""
    def transform(reg):
        unit = quat.UNIT_PHASES[rng.integers(len(quat.UNIT_PHASES))]
        if rng.integers(2):
            return QRegister(reg.n, oracles.right_scalar_mul(reg.amps, unit))
        return oracles.left_scalar_mul(reg, unit)

    return dataclasses.replace(code, code_id=f"{code.code_id}-scaled",
                               codeword_zero=transform(code.codeword_zero),
                               codeword_one=transform(code.codeword_one))


def _fast_and_reference_codes():
    rng = np.random.default_rng(2024)
    shipped = [get_code(code_id) for code_id in CODE_IDS]
    codes = shipped + [oracles.random_code(rng, index) for index in range(120)]
    return codes + [_rescaled(code, rng) for code in shipped * 8 + codes[3:40]]


def test_verify_codewords_matches_reference_field_for_field():
    verdicts, checks = set(), set()
    for code in _fast_and_reference_codes():
        report = verify_codewords(code)
        assert report == oracles.verify_codewords(code), code.code_id
        verdicts.add((report.passed, report.logical_z_ok, report.logical_x_ok))
        checks |= {(c.fixes_zero, c.fixes_one) for c in report.checks}
    # both verdicts occur, and every field takes both values
    assert {passed for passed, _, _ in verdicts} == {True, False}
    assert {z for _, z, _ in verdicts} == {x for _, _, x in verdicts} == {True, False}
    assert {f0 for f0, _ in checks} == {f1 for _, f1 in checks} == {True, False}


def test_build_syndrome_table_matches_reference_field_for_field():
    for code in _fast_and_reference_codes():
        assert build_syndrome_table(code) == oracles.build_syndrome_table(code), code.code_id


# -- apply_pauli and eigenvalue measurement ------------------------------------------

def test_apply_pauli_phased_x():
    reg = QRegister.computational(3, "000")
    out = apply_pauli(PauliString.single(3, 1, "X", I), reg)
    assert amplitude(out, "100") == I


def test_apply_pauli_y_action():
    reg = QRegister.computational(1, "0")
    out = apply_pauli(PauliString.single(1, 1, "Y"), reg)
    assert amplitude(out, "1") == I
    out = apply_pauli(PauliString.single(1, 1, "Y"), QRegister.computational(1, "1"))
    assert amplitude(out, "0") == -I


def test_apply_pauli_z_sign():
    reg = QRegister.computational(2, "01")
    out = apply_pauli(PauliString.from_word("IZ"), reg)
    assert amplitude(out, "01") == -ONE


def test_measure_stabilizer_eigenvalue():
    code = get_code("three")
    assert measure_stabilizer_eigenvalue(code.codeword_zero, code.generators[0]) == 1
    flipped = apply_pauli(PauliString.single(3, 1, "X"), code.codeword_zero)
    assert measure_stabilizer_eigenvalue(flipped, code.generators[0]) == -1
    with pytest.raises(ValueError):
        superpos = QRegister.from_components(
            1, np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]]) / np.sqrt(2)
        )
        measure_stabilizer_eigenvalue(superpos, PauliString.single(1, 1, "Z"))


# -- codeword action rows ------------------------------------------------------------

def test_codeword_action_table_mapping_rows():
    rows, _ = codeword_action_diff(MAPPING_TABLE)
    assert [(row.unit, row.codeword) for row in rows] == [
        ("i", "0"), ("i", "1"), ("j", "0"), ("j", "1"), ("k", "0"), ("k", "1"),
    ]
    zero_row, one_row = rows[:2]
    assert (zero_row.sign, zero_row.label) == (1, "1")
    assert zero_row.match
    assert (one_row.sign, one_row.label) == (-1, "0")
    assert one_row.match


def test_codeword_action_j_sign_diff():
    one_row = codeword_action_diff(MAPPING_TABLE)[0][3]
    assert (one_row.codeword, one_row.unit) == ("1", "j")
    # computed +|1d...> where the published row says -|1d...>
    assert (one_row.sign, one_row.label) == (1, "1d")
    assert (one_row.reference_sign, one_row.reference_label) == (-1, "1d")
    assert not one_row.match


def test_codeword_action_rows_equal_quaternion_products_under_every_mapping():
    names = list(quat.UNIT_BY_NAME)
    for labels in itertools.permutations(["0", "1", "0d", "1d"]):
        mapping = dict(zip(names, labels))
        unit_of = {label: quat.UNIT_BY_NAME[name] for name, label in mapping.items()}
        rows, matches = codeword_action_diff(mapping)
        assert len(rows) == 6
        for row in rows:
            product = unit_of[row.codeword] * quat.UNIT_BY_NAME[row.unit]
            assert product == unit_of[row.label] * float(row.sign)
            assert (row.reference_sign, row.reference_label) == (
                REFERENCE_CODEWORD_ACTION[row.codeword, row.unit])
        assert matches == sum(row.match for row in rows)


def test_codeword_action_match_counts():
    _, table_matches = codeword_action_diff(MAPPING_TABLE)
    _, text_matches = codeword_action_diff(MAPPING_TEXT)
    assert table_matches == 4
    assert text_matches == 2


def test_codeword_action_validation():
    with pytest.raises(ValueError, match="distinct"):
        codeword_action_diff({"1": "0", "i": "0", "j": "1", "k": "1d"})
    with pytest.raises(ValueError, match="exactly 1, i, j, k"):
        codeword_action_diff({"1": "0"})
