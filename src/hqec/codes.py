"""Pauli strings with unit-quaternion phases, stabilizer codes, and audits.

Three codes ship:

* ``three``    -- the 3-qubit bit-flip construction (generators ZZI, IZZ).
* ``paper5``   -- a published five-qubit variant with generators
  XXXXI, ZZIII, IZZII, IIZZZ and claimed codewords |00000>, |11111>.
* ``perfect5`` -- the textbook [[5,1,3]] code (cyclic XZZXI family).

Syndromes are commutation-based: bit ``i`` is +1 when the error commutes
with generator ``i`` and -1 when it anticommutes.  The ``paper5`` code's
published syndrome table disagrees with that rule (and its generators do
not fix the claimed codewords); :func:`audit_against_paper` and
:func:`verify_codewords` report those discrepancies instead of repairing
them.  The published rows are reference data only, never decoder truth.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import quaternion as quat
from .quaternion import Quaternion, phase_label
from .linalg import (
    HAMILTON_INDEX, HAMILTON_SIGNS, QVector, inner_product, left_mul_matrix, real_norm_sq,
)
from .register import UNIT_FOR_LETTER, QRegister

LETTERS = ("I", "X", "Y", "Z")
_ERROR_LETTERS = ("X", "Y", "Z")


# Symplectic (x|z) bits of each letter, as binary digits: Y = XZ up to phase.
_X_DIGITS = str.maketrans("IXYZ", "0110")
_Z_DIGITS = str.maketrans("IXYZ", "0011")


@dataclass(frozen=True)
class PauliString:
    """Per-qubit I/X/Y/Z word carrying one unit-quaternion phase.

    The phase multiplies the whole operator from the left and must be one
    of the eight units ``+-1, +-i, +-j, +-k``.  ``x`` and ``z`` are the
    symplectic bitmasks the algebra runs on (qubit 1 is the most
    significant bit): X sets the x bit, Z the z bit, Y both.
    """

    letters: tuple[str, ...]
    phase: Quaternion = quat.ONE
    x: int = field(init=False, compare=False, repr=False)
    z: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        if not self.letters:
            raise ValueError("empty Pauli string")
        for letter in self.letters:
            if letter not in LETTERS:
                raise ValueError(f"bad Pauli letter {letter!r}")
        if self.phase not in quat.UNIT_PHASES:
            raise ValueError(f"phase must be one of the eight unit phases, got {self.phase}")
        word = self.word()
        object.__setattr__(self, "x", int(word.translate(_X_DIGITS), 2))
        object.__setattr__(self, "z", int(word.translate(_Z_DIGITS), 2))

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(("I",) * n)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str, phase: Quaternion = quat.ONE) -> "PauliString":
        if not 1 <= qubit <= n:
            raise ValueError(f"qubit {qubit} out of range 1..{n}")
        letters = tuple(letter if q == qubit else "I" for q in range(1, n + 1))
        return cls(letters, phase)

    @classmethod
    def from_word(cls, word: str, phase: Quaternion = quat.ONE) -> "PauliString":
        return cls(tuple(word), phase)

    @property
    def n(self) -> int:
        return len(self.letters)

    def word(self) -> str:
        return "".join(self.letters)

    @property
    def label(self) -> str:
        """Compact text: ``X1`` for a plain single, ``iX1`` when phased, else the word."""
        supports = [(q, letter) for q, letter in enumerate(self.letters, start=1) if letter != "I"]
        prefix = "" if self.phase == quat.ONE else phase_label(self.phase).lstrip("+")
        if len(supports) == 1:
            q, letter = supports[0]
            return f"{prefix}{letter}{q}"
        if not supports:
            return f"{prefix}I" if prefix else "I"
        return f"{prefix}{self.word()}"


def _symplectic_sign(ax: int, az: int, bx: int, bz: int) -> int:
    # Each qubit where one operator has x and the other z (but not both
    # ways) contributes one anticommuting letter pair.
    return -1 if ((ax & bz) ^ (az & bx)).bit_count() & 1 else 1


def commute_sign(a: PauliString, b: PauliString) -> int:
    """+1 when the strings commute, -1 when they anticommute.

    The sign is the parity of the symplectic product
    ``popcount((a.x & b.z) ^ (a.z & b.x))``.  Phases never matter: unit
    scalars cannot flip a commutator sign.
    """
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")
    return _symplectic_sign(a.x, a.z, b.x, b.z)


@dataclass(frozen=True)
class Syndrome:
    """Ordered +-1 outcomes, one per stabilizer generator."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", tuple(self.bits))
        for bit in self.bits:
            if bit not in (-1, 1):
                raise ValueError(f"syndrome bits must be +1 or -1, got {bit}")

    @classmethod
    def _of(cls, bits: tuple[int, ...]) -> "Syndrome":
        # For a tuple that holds only +1 and -1 by construction: nothing is checked.
        syndrome = object.__new__(cls)
        object.__setattr__(syndrome, "bits", bits)
        return syndrome

    @property
    def trivial(self) -> bool:
        return -1 not in self.bits

    def __str__(self) -> str:
        return "(" + ",".join(f"{b:+d}" for b in self.bits) + ")"


@dataclass(frozen=True, eq=False)
class StabilizerCode:
    """Stabilizer code with explicit codeword states.

    Generator pairs must commute; that is checked at construction.  The
    declared distance ``d`` fixes the claimed correction radius
    ``t = (d - 1) // 2`` but is not re-derived from the generators, so a
    code whose published parameters overstate its behavior still builds
    (the audits are where the mismatch shows up).

    ``signatures[q - 1, letter]`` (X, Y, Z as 0, 1, 2) has bit ``i < m``
    set when that letter on qubit ``q`` anticommutes with generator ``i``,
    and bits ``m``, ``m + 1`` for ``logical_x``, ``logical_z``.  An error's
    signature is the XOR over its letters, and ``verdicts[signature]`` is
    True exactly when :func:`decode` finds the syndrome unknown or
    :func:`logical_failure` holds for its correction.
    """

    code_id: str
    n: int
    k: int
    d: int
    generators: tuple[PauliString, ...]
    logical_x: PauliString
    logical_z: PauliString
    codeword_zero: QRegister
    codeword_one: QRegister
    _decoder: tuple = field(init=False, repr=False)
    signatures: np.ndarray = field(init=False, repr=False)
    verdicts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for ps in (*self.generators, self.logical_x, self.logical_z):
            if ps.n != self.n:
                raise ValueError(f"operator length {ps.n} does not match n={self.n}")
        for cw in (self.codeword_zero, self.codeword_one):
            if cw.n != self.n:
                raise ValueError("codeword register size does not match n")
        for i, a in enumerate(self.generators):
            for b in self.generators[i + 1 :]:
                if commute_sign(a, b) != 1:
                    raise ValueError(
                        f"generators {a.word()} and {b.word()} anticommute"
                    )
        for name, table in zip(("_decoder", "signatures", "verdicts"), _build_tables(self)):
            object.__setattr__(self, name, table)


def syndrome_of(e: PauliString, code: StabilizerCode) -> Syndrome:
    """Commutation syndrome of ``e`` against the code's generators.

    The phase of ``e`` never affects the outcome, so a phased error such
    as ``iX1`` shares the syndrome of ``X1``.
    """
    if e.n != code.n:
        raise ValueError(f"error length {e.n} does not match code n={code.n}")
    return Syndrome(tuple(_symplectic_sign(e.x, e.z, g.x, g.z) for g in code.generators))


def _build_tables(code: StabilizerCode) -> tuple[tuple, np.ndarray, np.ndarray]:
    # The decoder and the read-only ``signatures`` and ``verdicts`` tables of
    # StabilizerCode.  The decoder holds, for each syndrome index, the
    # identity and single-qubit errors matching it; empty means unknown.
    # Enumeration order doubles as the decoder tie-break: weight, then qubit
    # index, then X < Y < Z.  X on a qubit anticommutes with a check whose z
    # bit there is set, Z with its x bit, and Y with their XOR.
    checks = (*code.generators, code.logical_x, code.logical_z)
    m, logicals = len(code.generators), np.arange(4)
    masks = np.array([(c.x, c.z) for c in checks])
    # column q - 1 holds qubit q, whose mask bit is n - q (qubit 1 is the most significant)
    x, z = (masks[:, k, None] >> np.arange(code.n - 1, -1, -1) & 1 for k in (0, 1))
    weights = 1 << np.arange(len(checks), dtype=np.intp)
    signatures = np.stack([weights @ bits for bits in (z, x ^ z, x)], axis=1)
    singles = [(PauliString.identity(code.n), 0)] + [
        (PauliString.single(code.n, q + 1, letter), signature)
        for q, row in enumerate(signatures.tolist())
        for letter, signature in zip(_ERROR_LETTERS, row)
    ]
    decoder: list[list[PauliString]] = [[] for _ in range(1 << m)]
    verdicts = np.ones(4 << m, dtype=bool)
    for error, signature in singles:
        index = signature & ((1 << m) - 1)
        if not decoder[index]:
            verdicts[index + (logicals << m)] = logicals != signature >> m
        decoder[index].append(error)
    signatures.flags.writeable = verdicts.flags.writeable = False
    return tuple(map(tuple, decoder)), signatures, verdicts


@dataclass(frozen=True)
class DecodeOutcome:
    """Chosen correction plus collision metadata.

    ``correction`` is ``None`` exactly when the syndrome matches no
    enumerated single-qubit error (``unknown``), which is distinct from
    the identity correction returned for the trivial syndrome.
    """

    correction: PauliString | None
    unknown: bool
    ambiguous: bool
    candidates: tuple[PauliString, ...]


def decode(syndrome: Syndrome, code: StabilizerCode) -> DecodeOutcome:
    """Minimum-weight single-qubit correction for a syndrome.

    Ties are broken by weight, then lowest qubit index, then letter order
    X < Y < Z; every co-matching error is reported in ``candidates``.
    """
    if len(syndrome.bits) != len(code.generators):
        raise ValueError(
            f"syndrome length {len(syndrome.bits)} does not match "
            f"{len(code.generators)} generators"
        )
    # The decoder's index has bit i set when generator i anticommutes (_build_tables).
    candidates = code._decoder[sum(1 << i for i, bit in enumerate(syndrome.bits) if bit == -1)]
    if not candidates:
        return DecodeOutcome(None, unknown=True, ambiguous=False, candidates=())
    return DecodeOutcome(
        candidates[0], unknown=False, ambiguous=len(candidates) > 1, candidates=candidates
    )


def logical_failure(error: PauliString, correction: PauliString, code: StabilizerCode) -> bool:
    """True when the residual ``error * correction`` damages the logical qubit.

    The residual, phases dropped, is the XOR of the two masks; it fails
    when it anticommutes with logical X or logical Z.
    """
    if error.n != code.n or correction.n != code.n:
        raise ValueError(f"operator lengths {error.n}, {correction.n} do not match code n={code.n}")
    x, z = error.x ^ correction.x, error.z ^ correction.z
    return any(
        _symplectic_sign(x, z, logical.x, logical.z) == -1
        for logical in (code.logical_x, code.logical_z)
    )


# -- state-level application and measurement ----------------------------

def _pauli_scalar(ps: PauliString) -> Quaternion:
    # The unit that multiplies every amplitude: the phase, times i per Y letter.
    scalar = ps.phase
    for _ in range((ps.x & ps.z).bit_count() % 4):
        scalar = scalar * quat.I
    return scalar


def apply_pauli(ps: PauliString, reg: QRegister) -> QRegister:
    """Apply a phased Pauli string to a register (phase as a left scalar).

    Per qubit, X permutes the basis, Z contributes ``(-1)**bit`` and Y
    acts as ``i * X * Z``; the accumulated unit scalar multiplies every
    amplitude from the left.
    """
    if ps.n != reg.n:
        raise ValueError(f"operator length {ps.n} does not match register n={reg.n}")
    indices = np.arange(reg.dim)
    signs = 1.0 - 2.0 * (np.bitwise_count(indices & ps.z) & 1)
    rotated = (reg.amps.components @ left_mul_matrix(_pauli_scalar(ps)).T) * signs[:, None]
    out = np.empty_like(rotated)
    out[indices ^ ps.x] = rotated
    return QRegister.from_components(reg.n, out)


def stabilizer_expectation_sign(reg: QRegister, s: PauliString) -> int:
    """Sign of the real part of ``<reg| s |reg>`` (0 when it vanishes)."""
    value = inner_product(reg.amps, apply_pauli(s, reg).amps).w
    if value > 0.0:
        return 1
    if value < 0.0:
        return -1
    return 0


# -- codeword verification ------------------------------------------------

@dataclass(frozen=True)
class CodewordCheck:
    generator: str
    fixes_zero: bool
    fixes_one: bool


@dataclass(frozen=True)
class CodewordReport:
    code_id: str
    checks: tuple[CodewordCheck, ...]
    logical_z_ok: bool
    logical_x_ok: bool

    @property
    def passed(self) -> bool:
        return (
            all(c.fixes_zero and c.fixes_one for c in self.checks)
            and self.logical_z_ok
            and self.logical_x_ok
        )

    @property
    def failing_generators(self) -> tuple[str, ...]:
        return tuple(c.generator for c in self.checks if not (c.fixes_zero and c.fixes_one))


def verify_codewords(code: StabilizerCode) -> CodewordReport:
    """Check the generators fix both codewords and the logicals act as declared.

    A generator must map each codeword onto itself, logical Z |0> and -|1>
    onto |0> and |1>, and logical X |1> and |0> onto |0> and |1>.  As in
    :func:`apply_pauli`, amplitude ``j`` of an image is the source's
    amplitude ``j ^ x``, negated for odd parity of ``(j ^ x) & z``, times
    the unit scalar ``u`` on the left, which moves component ``t ^ u`` to
    ``t`` with a sign.  So all images are one exact gather from the stacked
    ``(|0>, |1>, -|0>, -|1>)`` times one sign array, each compared with its
    codeword at :data:`quaternion.TOLERANCE`.
    """
    ops = (*code.generators, code.logical_z, code.logical_x)
    zero, one = code.codeword_zero.amps.components, code.codeword_one.amps.components
    signed, m = np.stack((zero, one, -zero, -one)), len(code.generators)
    source = np.arange(1 << code.n) ^ np.array([op.x for op in ops])[:, None]
    negate = (np.bitwise_count(source & np.array([op.z for op in ops])[:, None]) & 1) << 1
    units = np.array([_pauli_scalar(op).as_tuple() for op in ops])
    # The row of ``signed`` each op maps onto codeword c; row ^ 2 negates it.
    rows = np.array([(0, 1)] * m + [(0, 3), (1, 0)])[:, :, None, None] ^ negate[:, None, :, None]
    perm = HAMILTON_INDEX[units.nonzero()[1]][:, None, None]
    images = signed[rows, source[:, None, :, None], perm] * (units @ HAMILTON_SIGNS)[:, None, None]
    ok = (np.abs(images - signed[:2]) <= quat.TOLERANCE).all(axis=(2, 3))
    checks = tuple(
        CodewordCheck(g.word(), fixes_zero=f0, fixes_one=f1)
        for g, (f0, f1) in zip(code.generators, ok.tolist())
    )
    return CodewordReport(code.code_id, checks, all(ok[m].tolist()), all(ok[m + 1].tolist()))


# -- shipped codes ---------------------------------------------------------

# code id -> (generator words, logical X, logical Z, codeword basis labels);
# every code is declared k = 1, d = 3.  ``three`` is the bit-flip
# construction: d = 3 is the bit-flip distance, and phase errors are
# invisible to ZZI, IZZ.  ``paper5`` ships exactly as printed: XXXXI does
# not fix the claimed |00000>, |11111>, and several single-qubit errors
# share syndromes; :func:`verify_codewords` and :func:`audit_against_paper`
# record both facts.  ``perfect5`` is the cyclic [[5,1,3]] code (Laflamme et
# al., PRL 77 (1996) 198); labels ``None`` project |0...0> onto the joint +1
# eigenspace for |0>, and |1> is its logical-X image, so verify_codewords
# passes and all 15 single-qubit errors have distinct nontrivial syndromes.
_CODES = {
    "three": (("ZZI", "IZZ"), "XXX", "ZZZ", ("000", "111")),
    "paper5": (("XXXXI", "ZZIII", "IZZII", "IIZZZ"), "XXXXX", "ZZZZZ", ("00000", "11111")),
    "perfect5": (("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"), "XXXXX", "ZZZZZ", None),
}

CODE_IDS = tuple(_CODES)


@functools.cache  # codes are immutable, so each is built once
def get_code(code_id: str) -> StabilizerCode:
    try:
        words, x_word, z_word, labels = _CODES[code_id]
    except KeyError:
        raise ValueError(f"unknown code id {code_id!r}; known: {', '.join(CODE_IDS)}") from None
    generators = tuple(map(PauliString.from_word, words))
    logical_x, n = PauliString.from_word(x_word), len(x_word)
    if labels is None:
        arr = QRegister.computational(n, 0).amps.components
        for g in generators:
            arr = (arr + apply_pauli(g, QRegister.from_components(n, arr)).amps.components) / 2.0
        norm = float(np.sqrt(real_norm_sq(QVector.from_components(arr))))
        zero = QRegister.from_components(n, arr / norm)
        one = apply_pauli(logical_x, zero)
    else:
        zero, one = (QRegister.computational(n, label) for label in labels)
    return StabilizerCode(
        code_id, n, k=1, d=3, generators=generators, logical_x=logical_x,
        logical_z=PauliString.from_word(z_word), codeword_zero=zero, codeword_one=one,
    )


# -- syndrome tables and the published-table audit -------------------------

@dataclass(frozen=True)
class SyndromeTableRow:
    qubit: int
    letter: str
    phase: Quaternion
    error_label: str
    variants: tuple[str, ...]
    syndrome: Syndrome


@dataclass(frozen=True)
class SyndromeTable:
    code_id: str
    generator_count: int
    rows: tuple[SyndromeTableRow, ...]


def build_syndrome_table(code: StabilizerCode) -> SyndromeTable:
    """Syndromes for every single-qubit X/Y/Z error, with phased variants.

    Each row's syndrome is the low m bits of the error's entry in
    ``code.signatures``.  The row is annotated with its spelling under the
    paired unit for the letter (``iX``, ``jY``, ``kZ``); a unit phase never
    changes a commutation syndrome, so the variant shares the row's.
    """
    m = len(code.generators)
    # Bit i of a signature set means generator i reads -1.
    bits = (1 - 2 * (code.signatures[..., None] >> np.arange(m) & 1)).tolist()
    prefixes = [phase_label(UNIT_FOR_LETTER[letter]).lstrip("+") for letter in _ERROR_LETTERS]
    rows = tuple(
        SyndromeTableRow(qubit, letter, UNIT_FOR_LETTER[letter], f"{letter}{qubit}",
                         (f"{prefix}{letter}{qubit}",), Syndrome._of(tuple(syndrome)))
        for qubit, letters in enumerate(bits, start=1)
        for letter, prefix, syndrome in zip(_ERROR_LETTERS, prefixes, letters)
    )
    return SyndromeTable(code.code_id, m, rows)


#: Published syndrome assignments for the paper5 code, stored verbatim as
#: audit reference data (they disagree with the commutation rule above).
REFERENCE_TABLE2: dict[tuple[str, int], tuple[int, int, int, int]] = {
    ("X", 1): (-1, -1, 1, 1),
    ("Y", 1): (-1, -1, 1, 1),
    ("Z", 1): (1, -1, 1, 1),
    ("X", 2): (-1, -1, -1, 1),
    ("Y", 2): (-1, -1, -1, 1),
    ("Z", 2): (1, -1, -1, 1),
    ("X", 3): (-1, 1, -1, -1),
    ("Y", 3): (-1, 1, -1, -1),
    ("Z", 3): (1, 1, -1, -1),
    ("X", 4): (-1, 1, 1, -1),
    ("Y", 4): (-1, 1, 1, -1),
    ("Z", 4): (1, 1, 1, -1),
    ("X", 5): (1, 1, 1, -1),
    ("Y", 5): (1, 1, 1, -1),
    ("Z", 5): (1, 1, 1, -1),
}


@dataclass(frozen=True)
class AuditRow:
    error_label: str
    computed: Syndrome
    reference: Syndrome
    match: bool


@dataclass(frozen=True)
class AuditReport:
    """Row-by-row diff of the computed paper5 table against the published one."""

    rows: tuple[AuditRow, ...]
    mismatch_count: int
    collisions: dict[tuple[int, ...], tuple[str, ...]]
    trivial_syndrome_errors: tuple[str, ...]


def audit_against_paper(table: SyndromeTable) -> AuditReport:
    """Compare a computed paper5 syndrome table with the published rows.

    Also reports computed-table collisions (distinct errors sharing a
    syndrome) and errors whose computed syndrome is trivial.
    """
    if table.code_id != "paper5":
        raise ValueError("the published reference table applies to the paper5 code only")
    rows = []
    mismatches = 0
    by_syndrome: dict[tuple[int, ...], list[str]] = {}
    trivial = []
    for row in table.rows:
        reference = Syndrome(REFERENCE_TABLE2[(row.letter, row.qubit)])
        match = row.syndrome.bits == reference.bits
        mismatches += not match
        rows.append(AuditRow(row.error_label, row.syndrome, reference, match))
        by_syndrome.setdefault(row.syndrome.bits, []).append(row.error_label)
        if row.syndrome.trivial:
            trivial.append(row.error_label)
    collisions = {
        bits: tuple(labels) for bits, labels in by_syndrome.items() if len(labels) > 1
    }
    return AuditReport(tuple(rows), mismatches, collisions, tuple(trivial))


# -- single-quaternion-slot codeword bookkeeping ---------------------------

#: Slot-value labellings: which unit each display label stands for.
#: "0d"/"1d" are the dotted labels.  The prose mapping and the mapping the
#: printed tables actually use disagree; both ship so neither is guessed.
MAPPING_TEXT = {"1": "0", "i": "0d", "j": "1", "k": "1d"}
MAPPING_TABLE = {"1": "0", "i": "1", "j": "0d", "k": "1d"}

#: Published codeword transformation rows: (codeword label, unit) ->
#: (sign, transformed first-slot label).
REFERENCE_CODEWORD_ACTION = {
    ("0", "i"): (1, "1"),
    ("0", "j"): (1, "0d"),
    ("0", "k"): (1, "1d"),
    ("1", "i"): (-1, "0"),
    ("1", "j"): (-1, "1d"),
    ("1", "k"): (1, "0d"),
}


@dataclass(frozen=True)
class CodewordActionRow:
    codeword: str
    unit: str
    sign: int
    label: str
    reference_sign: int
    reference_label: str

    @property
    def match(self) -> bool:
        return (self.sign, self.label) == (self.reference_sign, self.reference_label)


def codeword_action_diff(mapping: Mapping[str, str]) -> tuple[tuple[CodewordActionRow, ...], int]:
    """Each codeword's first slot value right-multiplied by i, j and k, and how
    many of these six rows match the published ones.

    ``mapping`` gives the slot values 1, i, j, k distinct display labels; the
    codewords are the values labelled "0" and "1".  Unit a times unit b is
    ``HAMILTON_SIGNS[a, a ^ b]`` times unit ``a ^ b``, shown as a signed label.
    Rows run unit i, j, k, and codeword 0 then 1 within each unit.
    """
    if set(mapping) != set(quat.UNIT_BY_NAME):
        raise ValueError("mapping must assign labels to exactly 1, i, j, k")
    if len(set(mapping.values())) != 4:
        raise ValueError("mapping labels must be distinct")
    names = list(quat.UNIT_BY_NAME)
    unit_of = {label: names.index(name) for name, label in mapping.items()}
    rows = []
    for b, unit in enumerate(names[1:], 1):
        for codeword in ("0", "1"):
            a = unit_of[codeword]
            rows.append(CodewordActionRow(
                codeword, unit, int(HAMILTON_SIGNS[a, a ^ b]), mapping[names[a ^ b]],
                *REFERENCE_CODEWORD_ACTION[codeword, unit],
            ))
    return tuple(rows), sum(row.match for row in rows)
