"""Exact algebra over weighted sums of n-qubit Pauli strings.

A Pauli string is stored in symplectic form: two integer bitmasks ``x`` and
``z`` where bit ``i`` refers to qubit ``i`` (qubit 0 is the leftmost letter in
the label convention used throughout)::

    (x_i, z_i) = (0, 0) -> I     (1, 0) -> X
                 (1, 1) -> Y     (0, 1) -> Z

Products and commutators are exact (phases tracked as powers of i); matrices
enter only through the small-system oracle pair ``to_matrix`` /
``decompose_matrix``.

``PauliSum`` is the one accumulator: every operator is built through it, so
it alone merges, multiplies, hermitizes and sorts Pauli terms. It drops
coefficients below ``DROP_TOL``, the one tolerance of the algebra.

Every ``PauliOperator`` keeps its terms in one canonical order: by the packed
axis word of the string, 2 bits per qubit with qubit 0 most significant and
the axis codes I < X < Y < Z. This is the lexicographic order of the labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

DROP_TOL = 1e-12
ORACLE_LIMIT = 12  # max qubit count for dense-matrix conversions

_AXIS_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def _phase_exponent(x1: int, z1: int, x2: int, z2: int) -> int:
    """Exponent k (mod 4) such that P(x1,z1) P(x2,z2) = i^k P(x1^x2, z1^z2)."""
    k = (x1 & z1).bit_count() + (x2 & z2).bit_count()
    k -= ((x1 ^ x2) & (z1 ^ z2)).bit_count()
    k += 2 * (z1 & x2).bit_count()
    return k % 4


_I_POWERS = (1, 1j, -1, -1j)


class PauliString(NamedTuple):
    """A single Pauli string with a complex coefficient."""

    n: int
    x: int
    z: int
    coeff: complex

    @classmethod
    def from_label(cls, label: str, coeff: complex = 1.0) -> "PauliString":
        x = z = 0
        for i, c in enumerate(label):
            try:
                bx, bz = _AXIS_BITS[c]
            except KeyError:
                raise ValueError(f"invalid Pauli axis {c!r} in {label!r}") from None
            x |= bx << i
            z |= bz << i
        return cls(len(label), x, z, complex(coeff))

    @property
    def label(self) -> str:
        # char indexed by x_bit + 2 z_bit: I, X, Z, Y
        return "".join(
            "IXZY"[((self.x >> i) & 1) + 2 * ((self.z >> i) & 1)]
            for i in range(self.n)
        )

    @property
    def support(self) -> int:
        """Number of non-identity axes."""
        return (self.x | self.z).bit_count()

    def with_coeff(self, coeff: complex) -> "PauliString":
        return PauliString(self.n, self.x, self.z, complex(coeff))

    def dagger(self) -> "PauliString":
        # Pauli strings are hermitian, only the coefficient conjugates.
        return PauliString(self.n, self.x, self.z, self.coeff.conjugate())


def _order_table() -> np.ndarray:
    """``_ORDER[z_byte, (x^z)_byte]``: the eight axis codes ``2 z + (x^z)``
    (I=0, X=1, Y=2, Z=3) of a mask byte, 2 bits each, with the byte's lowest
    qubit most significant, as a big-endian uint16 like the sort keys."""
    b = np.arange(256, dtype=np.uint16)
    word = np.zeros((256, 256), dtype=np.uint16)
    for j in range(8):
        code = 2 * ((b[:, None] >> j) & 1) + ((b[None, :] >> j) & 1)
        word |= code << (14 - 2 * j)
    return word.astype(">u2")


_ORDER = _order_table()
# Rows keyed per pass: bounds the intp index temporaries of the table lookup.
_ORDER_BLOCK = 4096


def _mask_bytes(masks: Iterable[int], nbytes: int) -> np.ndarray:
    """Little-endian bytes of each mask, one row per mask (byte b = qubits 8b..8b+7)."""
    raw = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    return np.frombuffer(raw, dtype=np.uint8).reshape(-1, nbytes)


class ClassifyCounts(NamedTuple):
    n_real: int
    n_imag: int
    n_mixed: int


class PauliSum:
    """Coefficient accumulator keyed by symplectic masks (x, z).

    ``to_operator`` drops coefficients with |c| < ``DROP_TOL`` and sorts the
    rest into the canonical order of ``PauliOperator``; a NaN coefficient
    is kept, so an overflow stays visible.
    """

    def __init__(self, n: int):
        self.n = n
        self.data: dict[tuple[int, int], complex] = {}

    def add_string(self, x: int, z: int, c: complex) -> None:
        key = (x, z)
        self.data[key] = self.data.get(key, 0.0) + c

    def add_operator(self, op: "PauliOperator", scale: complex = 1.0) -> None:
        for t in op.terms:
            self.add_string(t.x, t.z, scale * t.coeff)

    def add_product(self, a: "PauliOperator", b_terms: Iterable[PauliString],
                    offset: int = 0, scale: complex = 1.0) -> None:
        """Add scale * a * b, with a on the full register and the strings of
        b on the subregister that starts at qubit ``offset``."""
        data = self.data
        b = [(t.x << offset, t.z << offset, t.coeff) for t in b_terms]
        for ta in a.terms:
            xa, za = ta.x, ta.z
            ca = scale * ta.coeff
            for xb, zb, cb in b:
                k = _phase_exponent(xa, za, xb, zb)
                key = (xa ^ xb, za ^ zb)
                data[key] = data.get(key, 0.0) + ca * cb * _I_POWERS[k]

    def hermitize(self) -> None:
        """Replace the accumulated T by T + T^dag (keeps 2 Re of coefficients)."""
        self.data = {k: 2 * v.real for k, v in self.data.items()
                     if v.real != 0}  # keeps NaN

    def to_operator(self) -> "PauliOperator":
        n = self.n
        strings = [PauliString(n, x, z, c) for (x, z), c in self.data.items()
                   if not abs(c) < DROP_TOL]
        # Sort key: the packed axis words of each term, compared as bytes;
        # zero qubits still get one (all-I) byte, as NumPy has no 0-byte rows.
        nbytes = (n + 7) // 8 or 1
        keys = np.empty((len(strings), nbytes), dtype=">u2")
        for lo in range(0, len(strings), _ORDER_BLOCK):
            block = strings[lo:lo + _ORDER_BLOCK]
            keys[lo:lo + len(block)] = _ORDER[
                _mask_bytes((t.z for t in block), nbytes),
                _mask_bytes((t.x ^ t.z for t in block), nbytes)]
        order = np.argsort(keys.view(f"S{2 * nbytes}").ravel())
        return PauliOperator(n, tuple(map(strings.__getitem__, order)))


@dataclass(frozen=True)
class PauliOperator:
    """Simplified weighted sum of Pauli strings in a canonical total order.

    Instances are immutable; every constructor builds through ``PauliSum``,
    which merges duplicate axis sequences, drops coefficients below
    ``DROP_TOL`` and sorts terms by their packed axis word (qubit 0 most
    significant, I < X < Y < Z), the lexicographic order of the labels.
    """

    n_qubits: int
    terms: tuple[PauliString, ...]

    # -- constructors -------------------------------------------------

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[PauliString]) -> "PauliOperator":
        acc = PauliSum(n)
        for t in terms:
            if t.n != n:
                raise ValueError(f"term on {t.n} qubits in {n}-qubit operator")
            acc.add_string(t.x, t.z, t.coeff)
        return acc.to_operator()

    @classmethod
    def from_label(cls, label: str, coeff: complex = 1.0) -> "PauliOperator":
        s = PauliString.from_label(label, coeff)
        return cls.from_terms(s.n, [s])

    @classmethod
    def identity(cls, n: int, coeff: complex = 1.0) -> "PauliOperator":
        return cls.from_terms(n, [PauliString(n, 0, 0, complex(coeff))])

    @classmethod
    def zero(cls, n: int) -> "PauliOperator":
        return cls(n, ())

    # -- basic queries ------------------------------------------------

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, label_or_string: "str | PauliString") -> complex:
        if isinstance(label_or_string, str):
            probe = PauliString.from_label(label_or_string)
        else:
            probe = label_or_string
        for t in self.terms:
            if t.x == probe.x and t.z == probe.z:
                return t.coeff
        return 0.0

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "PauliOperator") -> "PauliOperator":
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit-count mismatch in operator sum")
        return PauliOperator.from_terms(
            self.n_qubits, list(self.terms) + list(other.terms))

    def __sub__(self, other: "PauliOperator") -> "PauliOperator":
        return self + (-1.0) * other

    def __neg__(self) -> "PauliOperator":
        return (-1.0) * self

    def scale(self, c: complex) -> "PauliOperator":
        if c == 0:
            return PauliOperator.zero(self.n_qubits)
        return PauliOperator(
            self.n_qubits,
            tuple(t.with_coeff(t.coeff * c) for t in self.terms))

    def __rmul__(self, c: complex) -> "PauliOperator":
        if isinstance(c, (int, float, complex)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other: "PauliOperator | complex") -> "PauliOperator":
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit-count mismatch in operator product")
        acc = PauliSum(self.n_qubits)
        acc.add_product(self, other.terms)
        return acc.to_operator()

    def dagger(self) -> "PauliOperator":
        return PauliOperator(self.n_qubits,
                             tuple(t.dagger() for t in self.terms))

    def embed(self, n_total: int, offset: int = 0) -> "PauliOperator":
        """View this operator on a larger register, shifted by ``offset``."""
        if offset < 0 or offset + self.n_qubits > n_total:
            raise ValueError("embedding range out of register")
        return PauliOperator(
            n_total,
            tuple(PauliString(n_total, t.x << offset, t.z << offset, t.coeff)
                  for t in self.terms))


def commutator(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    return a * b - b * a


def classify(op: PauliOperator) -> ClassifyCounts:
    """Partition term coefficients into purely real / purely imaginary / mixed."""
    n_real = n_imag = n_mixed = 0
    for t in op.terms:
        re, im = abs(t.coeff.real), abs(t.coeff.imag)
        if im < DROP_TOL:
            n_real += 1
        elif re < DROP_TOL:
            n_imag += 1
        else:
            n_mixed += 1
    return ClassifyCounts(n_real, n_imag, n_mixed)


def is_hermitian(op: PauliOperator) -> bool:
    return all(abs(t.coeff.imag) < DROP_TOL for t in op.terms)


# -- basis-index action and the dense-matrix oracle --------------------
#
# Basis indices follow the map stated in ``lgt.lattice.RegisterLayout``;
# ``_index_mask`` is the one place that reverses qubits into index bits.


def _index_mask(mask: int, n: int) -> int:
    """Map a qubit bitmask (bit i = qubit i) to an index bitmask (qubit 0 = MSB)."""
    if n == 0:
        return 0
    return int(format(mask, f"0{n}b")[::-1], 2) if mask else 0


def index_masks(p: PauliString) -> tuple[int, int, complex]:
    """(index x-mask, index z-mask, i^|Y|) of a string's axes: the unit
    string maps |j> to i^|Y| (-1)^parity(j & zmask) |j ^ xmask>."""
    return (_index_mask(p.x, p.n), _index_mask(p.z, p.n),
            (1j) ** ((p.x & p.z).bit_count() % 4))


def string_action(p: PauliString) -> tuple[int, np.ndarray]:
    """Matrix-free action of the axes of ``p`` on basis indices.

    Returns (flip, phases) with P|j> = phases[j] |j ^ flip| for the unit
    coefficient string; the coefficient is not included.
    """
    xm, zm, ypow = index_masks(p)
    idx = np.arange(1 << p.n, dtype=np.int64)
    par = np.bitwise_count(idx & zm) & 1
    phases = ypow * np.where(par, -1.0, 1.0)
    return xm, phases.astype(complex)


def to_matrix(op: PauliOperator) -> np.ndarray:
    """Dense matrix of the operator (small systems only)."""
    n = op.n_qubits
    if n > ORACLE_LIMIT:
        raise ValueError(f"to_matrix limited to {ORACLE_LIMIT} qubits, got {n}")
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim)
    for t in op.terms:
        flip, phases = string_action(t)
        m[idx ^ flip, idx] += t.coeff * phases
    return m


def _block_decompose(m: np.ndarray, prefix_x: int, prefix_z: int, qubit: int,
                     out: PauliSum) -> None:
    if m.shape[0] == 1:
        c = m[0, 0]
        if c != 0:
            out.add_string(prefix_x, prefix_z, c)
        return
    h = m.shape[0] // 2
    a, b = m[:h, :h], m[:h, h:]
    c_, d = m[h:, :h], m[h:, h:]
    bit = 1 << qubit
    for x, z, blk in (
        (0, 0, (a + d) / 2),
        (bit, 0, (b + c_) / 2),
        (bit, bit, 1j * (b - c_) / 2),
        (0, bit, (a - d) / 2),
    ):
        if np.any(blk):
            _block_decompose(blk, prefix_x | x, prefix_z | z, qubit + 1, out)


def decompose_matrix(m: np.ndarray) -> PauliOperator:
    """Pauli decomposition with Hilbert-Schmidt coefficients Tr(P m)/2^n."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    dim = m.shape[0]
    n = dim.bit_length() - 1
    if dim != 1 << n:
        raise ValueError(f"dimension {dim} is not a power of two")
    if n > ORACLE_LIMIT:
        raise ValueError(f"decompose_matrix limited to {ORACLE_LIMIT} qubits")
    # The recursion splits on the most significant index bit, which is qubit 0.
    out = PauliSum(n)
    _block_decompose(m, 0, 0, 0, out)
    return out.to_operator()

