"""Exact algebra over weighted sums of n-qubit Pauli strings.

A Pauli string is stored in symplectic form: two bitmasks ``x`` and ``z``
where bit ``i`` refers to qubit ``i`` (qubit 0 is the leftmost letter in the
label convention used throughout)::

    (x_i, z_i) = (0, 0) -> I     (1, 0) -> X
                 (1, 1) -> Y     (0, 1) -> Z

An operator holds its strings as arrays, one row per string: the x and z
masks as ``(N, W)`` uint64 words, W = ceil(n / 64) (at least one), where
qubit q is bit q % 64 of word q // 64 (so the words' little-endian byte
view has qubits 8b..8b+7 in byte b), and the coefficients as real and
imaginary float parts. ``PauliString`` objects, with Python-int masks,
exist only at ``PauliOperator.terms``, built when a caller asks for them.
A pass that counts or writes an operator's strings (the CNOT and gate
counts, the QASM writer) takes the rows in ``blocks`` of
``_ORDER_BLOCK``, so it holds one block's temporaries beside the operator.

Products are exact: the phase of P(x1,z1) P(x2,z2) = i^k P(x1^x2, z1^z2)
is the symplectic rule of Aaronson & Gottesman (quant-ph/0406196),
evaluated on whole mask arrays with ``np.bitwise_count``. Coefficient
products are spelled out as real float operations in the order Python's
complex product uses, one rounding each, so no fused multiply-add enters.
Matrices enter only through ``decompose_matrix``.

``PauliSum`` is the one accumulator: every operator is built through it, so
it alone merges, hermitizes and sorts Pauli terms. Duplicate strings are
summed in insertion order, and coefficients below ``DROP_TOL``, the one
tolerance of the algebra, are dropped (NaN is kept, so an overflow stays
visible). ``PauliOperator.__mul__`` multiplies operators whose supports may
overlap. Factors on disjoint qubits (a hopping term's bilinear and U, a
plaquette's links, a one-hot S+ step's sigma+ and sigma-) give no
duplicate string, so ``add_tensor_product`` lays out their product in one
broadcast, with nothing sorted or merged. An operator is scaled by
``PauliOperator.scale``; only ``add_tensor_product`` takes a scale, which
it applies to the product last.
Coefficient arithmetic does not warn on overflow: the caller decides
whether a non-finite coefficient is an error. A merge holds the result,
one sort-key array (2 bytes per mask byte of a row) and index arrays of 8
bytes a row beside its input chunks, which it releases as their rows are
written; it joins only consecutive small chunks, up to ``_ORDER_BLOCK``
rows, and never copies all rows into one array.

Every ``PauliOperator`` keeps its terms in one canonical order: by the packed
axis word of the string, 2 bits per qubit with qubit 0 most significant and
the axis codes I < X < Y < Z. This is the lexicographic order of the labels.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, NamedTuple

import numpy as np

DROP_TOL = 1e-12
ORACLE_LIMIT = 12  # max qubit count for dense-matrix conversions

_AXIS_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


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


# -- mask words -------------------------------------------------------------


def _n_words(n: int) -> int:
    return (n + 63) // 64 or 1


def _masks(xs: Iterable[int], zs: Iterable[int], n_words: int) -> np.ndarray:
    """Python-int mask pairs as (N, 2 n_words) uint64 words: x, then z."""
    size = 8 * n_words
    raw = b"".join(x.to_bytes(size, "little") + z.to_bytes(size, "little")
                   for x, z in zip(xs, zs))
    return np.frombuffer(raw, dtype="<u8").reshape(-1, 2 * n_words).astype(np.uint64)


def _ints(words: np.ndarray) -> list[int]:
    """The rows of a word array as Python-int masks."""
    raw = words.astype("<u8", copy=False).tobytes()
    step = 8 * words.shape[1]
    return [int.from_bytes(raw[i:i + step], "little")
            for i in range(0, len(raw), step)]


def _shift(masks: np.ndarray, offset: int, n_words: int) -> np.ndarray:
    """x and z words moved up by ``offset`` qubits, on ``n_words`` words each."""
    width = masks.shape[1] // 2
    if offset == 0 and width == n_words:
        return masks
    q, r = divmod(offset, 64)
    out = np.zeros((len(masks), 2 * n_words), dtype=np.uint64)
    for half in (0, 1):
        src, dst = half * width, half * n_words
        for j in range(width):
            if j + q < n_words:
                out[:, dst + j + q] |= masks[:, src + j] << np.uint64(r)
            if r and j + q + 1 < n_words:
                out[:, dst + j + q + 1] |= masks[:, src + j] >> np.uint64(64 - r)
    return out


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits per mask, summed over the last (word) axis one word at a
    time into int64, which holds any qubit count."""
    count = np.bitwise_count(words[..., 0]).astype(np.int64)
    for j in range(1, words.shape[-1]):
        count += np.bitwise_count(words[..., j])
    return count


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) with the float operations of Python's complex
    product, each rounded on its own."""
    return ar * br - ai * bi, ar * bi + ai * br


_I_POWERS_RE = np.array([1.0, 0.0, -1.0, 0.0])  # i^k, k = 0..3
_I_POWERS_IM = np.array([0.0, 1.0, 0.0, -1.0])


def _quiet():
    """Let inf and NaN pass silently, as Python's complex arithmetic does."""
    return np.errstate(over="ignore", invalid="ignore")


def _order_table() -> np.ndarray:
    """``_ORDER[z_byte << 8 | (x^z)_byte]``: the eight axis codes
    ``2 z + (x^z)`` (I=0, X=1, Y=2, Z=3) of a mask byte, 2 bits each, with
    the byte's lowest qubit most significant, as a big-endian uint16 like
    the sort keys."""
    b = np.arange(256, dtype=np.uint16)
    word = np.zeros((256, 256), dtype=np.uint16)
    for j in range(8):
        code = 2 * ((b[:, None] >> j) & 1) + ((b[None, :] >> j) & 1)
        word |= code << (14 - 2 * j)
    return word.astype(">u2").ravel()


_ORDER = _order_table()
# Rows per pass over an operator's rows: bounds the temporaries of a
# merge's key lookup and duplicate flags, the small chunks a merge joins
# into one block, and what a count or a written circuit holds at a time.
_ORDER_BLOCK = 4096


def _key_width(n: int) -> int:
    """Bytes of mask per sort key; zero qubits still get one (all-I) byte,
    as NumPy has no 0-byte keys."""
    return (n + 7) // 8 or 1


def _sort_keys(masks: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out``, (N, ``_key_width(n)``) big-endian uint16 for n
    qubits, with one key per row whose byte order (``out`` viewed as bytes
    strings) is the canonical order: the packed axis words of the string,
    byte by byte of the masks."""
    w = masks.shape[1] // 2
    nbytes = out.shape[1]
    for lo in range(0, len(masks), _ORDER_BLOCK):
        block = masks[lo:lo + _ORDER_BLOCK]
        z = block[:, w:]
        zb = z.astype("<u8", copy=False).view(np.uint8)[:, :nbytes]
        xzb = (block[:, :w] ^ z).astype("<u8", copy=False).view(np.uint8)[:, :nbytes]
        idx = zb.astype(np.intp) << 8 | xzb
        np.take(_ORDER, idx, out=out[lo:lo + _ORDER_BLOCK], mode="clip")


def _blocks(parts: list, real: bool):
    """The (masks, coeffs) chunks of ``parts`` in order, consecutive ones
    joined while they fit in ``_ORDER_BLOCK`` rows, each entry of
    ``parts`` cleared as it is taken; with ``real``, only the rows whose
    real part is not 0 (NaN is kept)."""
    run, size = [], 0
    for i, part in enumerate(parts):
        parts[i] = None
        if run and size + len(part[1]) > _ORDER_BLOCK:
            yield _joined(run, real)
            run, size = [], 0
        run.append(part)
        size += len(part[1])
    yield _joined(run, real)


def _joined(chunks: list, real: bool) -> tuple[np.ndarray, np.ndarray]:
    if len(chunks) == 1:
        masks, coeffs = chunks[0]
    else:
        masks = np.concatenate([m for m, _ in chunks])
        coeffs = np.concatenate([c for _, c in chunks])
    if real:
        keep = coeffs[:, 0] != 0
        if not keep.all():
            masks, coeffs = masks[keep], coeffs[keep]
    return masks, coeffs


class ClassifyCounts(NamedTuple):
    n_real: int
    n_imag: int
    n_mixed: int


class PauliSum:
    """Accumulator of weighted Pauli strings, kept as array chunks in
    insertion order until they are merged. ``add_operator`` adds an
    operator's rows as they are (scale it first with ``.scale``).

    ``to_operator`` sums duplicate strings in insertion order, drops
    coefficients with |c| < ``DROP_TOL`` and sorts the rest into the
    canonical order of ``PauliOperator``; a NaN coefficient is kept, so an
    overflow stays visible. Beside the chunks and the result, a merge
    holds one sort-key array and index arrays of 8 bytes a row: the
    chunks are scattered into the result one by one and released.
    """

    def __init__(self, n: int):
        self.n = n
        # (masks, coeffs) rows as in ``PauliOperator``: the merged rows so
        # far, then the chunks added since
        self._merged = self._no_rows()
        self._parts: list[tuple[np.ndarray, np.ndarray]] = []

    def _no_rows(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros((0, 2 * _n_words(self.n)), np.uint64), np.zeros((0, 2))

    def _append(self, masks: np.ndarray, coeffs: np.ndarray) -> None:
        if len(coeffs):
            self._parts.append((masks, coeffs))

    def add_strings(self, xs: Iterable[int], zs: Iterable[int],
                    coeffs: Iterable[complex]) -> None:
        """Add strings given as Python-int masks and coefficients."""
        cs = [complex(c) for c in coeffs]
        self._append(_masks(xs, zs, _n_words(self.n)),
                     np.array([(c.real, c.imag) for c in cs], dtype=float).reshape(-1, 2))

    def add_string(self, x: int, z: int, c: complex) -> None:
        self.add_strings([x], [z], [c])

    def add_operator(self, op: "PauliOperator") -> None:
        if op.n_qubits != self.n:
            raise ValueError("qubit-count mismatch in operator sum")
        self._append(op.masks, op.coeffs)

    def add_tensor_product(self, factors: Iterable["PauliOperator"],
                           scale: complex = 1.0) -> None:
        """Add scale * f_1 f_2 ... f_k for factors on pairwise disjoint
        qubits; ValueError if two supports overlap.

        The coefficients are those of the chained product
        ``identity(n) * f_1 * ... * f_k``, scaled by ``.scale(scale)`` and
        added with ``add_operator``, bit for bit: factor by factor in the given order (complex
        products do not associate in floating point), each partial product
        merged as ``to_operator`` merges it (+ 0.0, then terms below
        ``DROP_TOL`` dropped), the scale last. Disjoint strings commute
        with phase i^0 and never coincide, so no partial product is sorted
        or merged. The rows are laid out factor-major, the factors ordered
        by their lowest support qubit and each in its own canonical order,
        which is canonical order when the supports are non-interleaved
        qubit ranges, such as link registers."""
        factors = list(factors)
        used, lowest = 0, []
        for f in factors:
            if f.n_qubits != self.n:
                raise ValueError("qubit-count mismatch in tensor product")
            supp, = _ints(np.bitwise_or.reduce(f.x | f.z, axis=0, keepdims=True))
            if used & supp:
                raise ValueError("tensor product factors share a qubit")
            used |= supp
            # lowest support qubit + 1; 0 for an identity factor, whose one
            # row goes anywhere
            lowest.append((supp & -supp).bit_length())
        # coefficients as a tensor with one axis per factor, in factor order
        re, im = np.ones(()), np.zeros(())
        keep = np.ones((), dtype=bool)
        with _quiet():
            for f in factors:
                re, im = _cmul(*_cmul(re[..., None], im[..., None], f.re, f.im), 1.0, 0.0)
                re, im = re + 0.0, im + 0.0
                keep = keep[..., None] & ~(np.hypot(re, im) < DROP_TOL)
            scale = complex(scale)
            if scale != 1:
                re, im = _cmul(scale.real, scale.imag, re, im)
        layout = sorted(range(len(factors)), key=lowest.__getitem__)
        w = _n_words(self.n)
        masks = np.zeros((1, 2 * w), dtype=np.uint64)
        for i in layout:
            masks = (masks[:, None] | factors[i].masks).reshape(-1, 2 * w)
        coeffs = np.stack([re.transpose(layout).ravel(), im.transpose(layout).ravel()],
                          axis=1)
        keep = keep.transpose(layout).ravel()
        if not keep.all():
            masks, coeffs = masks[keep], coeffs[keep]
        self._append(masks, coeffs)

    def _merge(self, real: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Collapse the chunks into one: a row per distinct string, in
        canonical order, with its contributions summed in insertion order
        starting from 0.0 (nothing dropped yet). With ``real``, rows whose
        real part is 0 are left out first (see ``hermitize``).

        The chunks are taken in blocks of up to ``_ORDER_BLOCK`` rows
        (consecutive small chunks joined), so every pass below runs per
        block. One sort of the rows' keys gives each row its group, and the
        blocks are scattered into the result one by one, each released
        once written."""
        if not self._parts:
            return self._merged
        parts = [self._merged, *self._parts] if len(self._merged[1]) else self._parts
        # from here on ``parts``, then ``blocks``, hold the only references
        # to the chunks
        self._merged, self._parts = self._no_rows(), []
        blocks = [b for b in _blocks(parts, real) if len(b[1])]
        if not blocks:
            return self._merged
        rows = sum(len(c) for _, c in blocks)
        keys = np.empty((rows, _key_width(self.n)), dtype=">u2")
        lo = 0
        for masks, _ in blocks:
            _sort_keys(masks, keys[lo:lo + len(masks)])
            lo += len(masks)
        keys = keys.view(f"S{2 * keys.shape[1]}").ravel()
        # the group sums do not depend on the order of equal keys; a
        # stable sort is the one that runs along the presorted chunks
        order = np.argsort(keys, kind="stable")
        # a row opens a group where its key differs from the previous one
        first = np.ones(rows, dtype=bool)
        for lo in range(1, rows, _ORDER_BLOCK):
            run = keys[order[lo - 1:lo + _ORDER_BLOCK]]
            np.not_equal(run[1:], run[:-1], out=first[lo:lo + len(run) - 1])
        del keys
        group = first.cumsum(dtype=np.intp)
        group -= 1
        del first
        # the group of each row in insertion order
        where = np.empty_like(order)
        where[order] = group
        n_groups = int(group[-1]) + 1
        del order, group
        masks = np.empty((n_groups, 2 * _n_words(self.n)), dtype=np.uint64)
        sums = np.zeros(n_groups, dtype=complex)
        lo = 0
        with _quiet():
            for i, (block, coeffs) in enumerate(blocks):
                blocks[i] = None
                at = where[lo:lo + len(coeffs)]
                lo += len(coeffs)
                masks[at] = block
                # as 0.0 + each row in turn: a -0.0 part becomes 0.0
                np.add.at(sums, at, np.ascontiguousarray(coeffs).view(complex).ravel())
        self._merged = (masks, sums.view(float).reshape(-1, 2))
        return self._merged

    def hermitize(self) -> None:
        """Replace the accumulated T by T + T^dag (keeps 2 Re of coefficients).

        The merge leaves out rows with a zero real part, which changes no
        bit: a sum starting from 0.0 is never -0.0, so adding +-0.0 leaves
        it as it was, and a string with only such rows would sum to 0.0
        and be dropped here anyway."""
        masks, coeffs = self._merge(real=True)
        keep = coeffs[:, 0] != 0  # keeps NaN
        if not keep.all():
            masks, coeffs = masks[keep], coeffs[keep]
        doubled = np.zeros_like(coeffs)
        with _quiet():
            np.multiply(coeffs[:, 0], 2, out=doubled[:, 0])
        self._merged = (masks, doubled)

    def to_operator(self) -> "PauliOperator":
        masks, coeffs = self._merge()
        keep = ~(np.hypot(coeffs[:, 0], coeffs[:, 1]) < DROP_TOL)
        if not keep.all():
            masks, coeffs = masks[keep], coeffs[keep]
        return PauliOperator(self.n, masks, coeffs)


class PauliOperator:
    """Simplified weighted sum of Pauli strings in a canonical total order.

    The strings live in two read-only arrays, one row per string:
    ``masks`` (N, 2W) holds the x words then the z words, W = ceil(n / 64)
    (at least one), with qubit q at bit q % 64 of word q // 64, and
    ``coeffs`` (N, 2) the real and imaginary parts of the coefficients.
    ``x``, ``z``, ``re`` and ``im`` are views of them. ``terms`` builds the
    matching ``PauliString`` tuple on first use.

    Every constructor builds through ``PauliSum``, which merges duplicate
    axis sequences, drops coefficients below ``DROP_TOL`` and sorts terms by
    their packed axis word (qubit 0 most significant, I < X < Y < Z), the
    lexicographic order of the labels. The initializer takes arrays already
    in that form.
    """

    def __init__(self, n_qubits: int, masks: np.ndarray, coeffs: np.ndarray):
        masks.flags.writeable = coeffs.flags.writeable = False
        w = masks.shape[1] // 2
        self.n_qubits, self.masks, self.coeffs = n_qubits, masks, coeffs
        self.x, self.z = masks[:, :w], masks[:, w:]
        self.re, self.im = coeffs[:, 0], coeffs[:, 1]

    # -- constructors -------------------------------------------------

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[PauliString]) -> "PauliOperator":
        terms = list(terms)
        for t in terms:
            if t.n != n:
                raise ValueError(f"term on {t.n} qubits in {n}-qubit operator")
        acc = PauliSum(n)
        acc.add_strings([t.x for t in terms], [t.z for t in terms],
                        [t.coeff for t in terms])
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
        return PauliSum(n).to_operator()

    # -- basic queries ------------------------------------------------

    @functools.cached_property
    def terms(self) -> tuple[PauliString, ...]:
        n = self.n_qubits
        return tuple(PauliString(n, x, z, complex(re, im)) for x, z, re, im in zip(
            _ints(self.x), _ints(self.z), self.re.tolist(), self.im.tolist()))

    @property
    def n_terms(self) -> int:
        return len(self.coeffs)

    def blocks(self) -> Iterator["PauliOperator"]:
        """The rows in consecutive blocks of ``_ORDER_BLOCK``, each an
        operator on views of this one's arrays: a pass that counts or
        writes the strings holds one block's temporaries at a time."""
        for lo in range(0, self.n_terms, _ORDER_BLOCK):
            rows = slice(lo, lo + _ORDER_BLOCK)
            yield PauliOperator(self.n_qubits, self.masks[rows], self.coeffs[rows])

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self.terms)

    def __len__(self) -> int:
        return self.n_terms

    def coefficient(self, label_or_string: "str | PauliString") -> complex:
        if isinstance(label_or_string, str):
            probe = PauliString.from_label(label_or_string)
        else:
            probe = label_or_string
        row = _masks([probe.x], [probe.z], _n_words(self.n_qubits))
        hit = np.flatnonzero((self.masks == row).all(axis=1))
        return complex(*self.coeffs[hit[0]]) if len(hit) else 0.0

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "PauliOperator") -> "PauliOperator":
        acc = PauliSum(self.n_qubits)
        acc.add_operator(self)
        acc.add_operator(other)
        return acc.to_operator()

    def __sub__(self, other: "PauliOperator") -> "PauliOperator":
        return self + (-1.0) * other

    def __neg__(self) -> "PauliOperator":
        return (-1.0) * self

    def scale(self, c: complex) -> "PauliOperator":
        if c == 0:
            return PauliOperator.zero(self.n_qubits)
        if c == 1:
            return self
        c = complex(c)
        with _quiet():
            coeffs = np.stack(_cmul(self.re, self.im, c.real, c.imag), axis=1)
        return PauliOperator(self.n_qubits, self.masks, coeffs)

    def __rmul__(self, c: complex) -> "PauliOperator":
        if isinstance(c, (int, float, complex)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other: "PauliOperator | complex") -> "PauliOperator":
        """self * other, self's terms outer; or self scaled by a number."""
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit-count mismatch in operator product")
        w = _n_words(self.n_qubits)
        masks = self.masks[:, None] ^ other.masks
        k = (_popcount(self.x & self.z)[:, None] + _popcount(other.x & other.z)
             - _popcount(masks[..., :w] & masks[..., w:])
             + 2 * _popcount(self.z[:, None] & other.x)) & 3
        with _quiet():
            re, im = _cmul(*_cmul(self.re[:, None], self.im[:, None], other.re, other.im),
                           _I_POWERS_RE[k], _I_POWERS_IM[k])
        acc = PauliSum(self.n_qubits)
        acc._append(masks.reshape(-1, 2 * w), np.stack([re.ravel(), im.ravel()], axis=1))
        return acc.to_operator()

    def dagger(self) -> "PauliOperator":
        # Pauli strings are hermitian, only the coefficients conjugate.
        return PauliOperator(self.n_qubits, self.masks, self.coeffs * _CONJUGATE)

    def embed(self, n_total: int, offset: int = 0) -> "PauliOperator":
        """View this operator on a larger register, shifted by ``offset``."""
        if offset < 0 or offset + self.n_qubits > n_total:
            raise ValueError("embedding range out of register")
        return PauliOperator(n_total, _shift(self.masks, offset, _n_words(n_total)),
                             self.coeffs)


_CONJUGATE = np.array([1.0, -1.0])


def classify(op: PauliOperator) -> ClassifyCounts:
    """Partition term coefficients into purely real / purely imaginary / mixed."""
    real = np.abs(op.im) < DROP_TOL
    imag = ~real & (np.abs(op.re) < DROP_TOL)
    n_real, n_imag = int(real.sum()), int(imag.sum())
    return ClassifyCounts(n_real, n_imag, op.n_terms - n_real - n_imag)


# -- basis-index masks and the matrix decomposition ---------------------
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


def _block_decompose(m: np.ndarray, prefix_x: int, prefix_z: int, qubit: int,
                     n: int, out: list[PauliString]) -> None:
    if m.shape[0] == 1:
        c = m[0, 0]
        if c != 0:
            out.append(PauliString(n, prefix_x, prefix_z, complex(c)))
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
            _block_decompose(blk, prefix_x | x, prefix_z | z, qubit + 1, n, out)


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
    out: list[PauliString] = []
    _block_decompose(m, 0, 0, 0, n, out)
    return PauliOperator.from_terms(n, out)
