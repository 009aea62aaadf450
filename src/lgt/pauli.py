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
visible). Each product, placement and merge takes a whole batch in one
array pass, and its single form is the batch of one:
``add_products`` multiplies rows whose supports may overlap (``__mul__``
is the outer product of two operators' rows); ``add_tensor_products``
lays out products of factors on disjoint qubits (a hopping term's
bilinear and U, a plaquette's links, a one-hot S+ step's sigma+ and
sigma-), which give no duplicate string, with nothing sorted or merged
(``add_tensor_product`` is one product); ``placements`` moves an
operator's qubit registers to many offsets of a larger register (``place``
one, so one plaquette loop serves every place it occurs); and
``to_operators`` merges the rows of many operators in one sort by
(operator, string), each operator's sums in its own insertion order. An
operator is scaled by ``PauliOperator.scale``; only the tensor products
take a scale, applied to the product last. Coefficient arithmetic does not
warn on overflow: the caller decides whether a non-finite coefficient is
an error.

A merge sorts by keys: one sort key per row (2 bytes per mask byte), one
stable sort, index arrays of 8 bytes a row. It holds those and the result
beside its input chunks, which it releases as their rows are written; it
joins only consecutive small chunks, up to ``_ORDER_BLOCK`` rows, and
never copies all rows into one array. Where one canonical chunk (an
operator added whole, or the rows of an earlier merge) holds most rows of
a large merge, such as the plaquette term among the Hamiltonian's terms,
only the other chunks are keyed and sorted: each of their strings is
found in that run by a binary search over a few keyed rows, and the run's
rows are moved into the result around the strings it lacks. Either way
every string's contributions are summed in insertion order, so the two
paths give the same bits.

Every ``PauliOperator`` keeps its terms in one canonical order: by the packed
axis word of the string, 2 bits per qubit with qubit 0 most significant and
the axis codes I < X < Y < Z. This is the lexicographic order of the labels.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, NamedTuple, Sequence

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


def _place(masks: np.ndarray, width: int, offsets: list[list[int]],
           n_words: int) -> np.ndarray:
    """(K, N, 2 ``n_words``) x and z words, copy k with register i (qubits
    i width .. (i + 1) width - 1) moved to start at qubit ``offsets[k][i]``.
    A register moves one source word's piece at a time, each piece split
    over two words where it straddles a word boundary of the destination;
    consecutive copies whose piece lands in one word move together."""
    k = len(offsets)
    if all(row == [0] for row in offsets) and 2 * n_words == masks.shape[1]:
        return np.broadcast_to(masks, (k, *masks.shape))
    words = masks.reshape(len(masks), 2, masks.shape[1] // 2)
    out = np.zeros((k, len(masks), 2, n_words), dtype=np.uint64)
    for i in range(len(offsets[0])):
        lo, end = i * width, (i + 1) * width
        while lo < end:
            j, r = divmod(lo, 64)
            hi = min(64 * (j + 1), end)
            piece = words[:, :, j] >> r if r else words[:, :, j]
            if hi < 64 * (j + 1):  # the word's later qubits are the next register's
                piece = piece & ((1 << (hi - lo)) - 1)
            dest = [divmod(row[i] + lo - i * width, 64) for row in offsets]
            a = 0
            while a < k:  # the copies from a to b write to word q
                q, b = dest[a][0], a + 1
                while b < k and dest[b][0] == q:
                    b += 1
                s = [d[1] for d in dest[a:b]]
                spill = max(s) + hi - lo > 64
                s = s[0] if len(set(s)) == 1 else np.array(s, np.uint64)[:, None, None]
                out[a:b, :, :, q] |= piece << s
                if spill:  # two shifts: one by 64 is undefined
                    out[a:b, :, :, q + 1] |= (piece >> 1) >> (63 - s)
                a = b
            lo = hi
    return out.reshape(k, len(masks), 2 * n_words)


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
        idx = zb.astype(np.intp)
        idx <<= 8
        idx |= xzb
        np.take(_ORDER, idx, out=out[lo:lo + _ORDER_BLOCK], mode="clip")


def _items(masks: np.ndarray) -> np.ndarray:
    """The rows of a mask array as one opaque item each: NumPy moves such
    items several times faster than rows of words. A view where ``masks``
    is contiguous."""
    return np.ascontiguousarray(masks).view(f"V{masks.itemsize * masks.shape[1]}").ravel()


def _keys(masks: np.ndarray, n: int) -> np.ndarray:
    """The sort key of each row (see ``_sort_keys``) as one byte string."""
    keys = np.empty((len(masks), _key_width(n)), dtype=">u2")
    _sort_keys(masks, keys)
    return keys.view(f"S{2 * keys.shape[1]}").ravel()


def _group(blocks: list, n: int, owner: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """The group of each row of ``blocks``, rows taken in insertion order
    and groups numbered by string in canonical order, and the number of
    groups: one stable sort of the rows' keys. With ``owner`` (an operator
    index per row) the keys lead with it: a group per (owner, string)."""
    rows = sum(len(c) for _, c in blocks)
    lead = 0 if owner is None else 2
    keys = np.empty((rows, lead + _key_width(n)), dtype=">u2")
    if lead:
        keys[:, :lead] = owner.astype(">u4").view(">u2").reshape(-1, lead)
    lo = 0
    for masks, _ in blocks:
        _sort_keys(masks, keys[lo:lo + len(masks), lead:])
        lo += len(masks)
    keys = keys.view(f"S{2 * keys.shape[1]}").ravel()
    # the group sums do not depend on the order of equal keys; a
    # stable sort is the one that runs along the presorted chunks
    order = np.argsort(keys, kind="stable")
    # a row opens a group where its key differs from the previous one
    first = np.empty(rows, dtype=bool)
    first[0] = True
    for lo in range(1, rows, _ORDER_BLOCK):
        run = keys[order[lo - 1:lo + _ORDER_BLOCK]]
        np.not_equal(run[1:], run[:-1], out=first[lo:lo + len(run) - 1])
    del keys
    group = first.cumsum(dtype=np.intp)
    group -= 1
    del first
    where = np.empty_like(order)
    where[order] = group
    return where, int(group[-1]) + 1


def _scatter(blocks: list, where: np.ndarray, masks: np.ndarray,
             sums: np.ndarray) -> None:
    """Write each row of ``blocks`` to result row ``where`` and add its
    coefficient to that row's complex sum, row by row in order (so 0.0 +
    each row in turn: a -0.0 part becomes 0.0); each entry of ``blocks``
    is cleared once written."""
    lo = 0
    with _quiet():
        for i, (block, coeffs) in enumerate(blocks):
            blocks[i] = None
            at = where[lo:lo + len(coeffs)]
            lo += len(coeffs)
            masks[at] = block
            np.add.at(sums, at, np.ascontiguousarray(coeffs).view(complex).ravel())


def _find(run: np.ndarray, masks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """For each of ``masks`` (distinct strings, canonical order), the first
    row of ``run`` (canonical, each string once) that is not before it,
    and whether that row is the string itself.

    Only a fence row of ``run`` per string is keyed: ``np.searchsorted``
    of the fences gives each string a window between two fences, and a
    binary search on the window's masks, keying the rows it visits,
    finishes the place."""
    keys = _keys(masks, n)
    fences = np.arange(0, len(run), max(1, len(run) // len(masks)))
    j = np.searchsorted(_keys(run[fences], n), keys)
    # the place is in (fence j - 1, fence j], or [0, fence 0] for j = 0
    lo = np.where(j > 0, fences[j - 1] + 1, 0)
    hi = np.append(fences, len(run))[j]
    while True:
        live = np.flatnonzero(lo < hi)
        if not len(live):
            break
        mid = (lo[live] + hi[live]) // 2
        below = _keys(run[mid], n) < keys[live]
        lo[live[below]] = mid[below] + 1
        hi[live[~below]] = mid[~below]
    found = lo < len(run)
    found[found] = (run[lo[found]] == masks[found]).all(axis=1)
    return lo, found


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
    if run:
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
    overflow stays visible.

    The accumulator holds the merged rows so far (canonical), the chunks
    added since, and the place among them of the largest chunk that
    ``add_operator`` added, whose rows are canonical too. A merge of more
    than ``_ORDER_BLOCK`` rows in which one canonical chunk (that one, or
    the merged rows) holds more rows than all others together merges into
    that run (``_merge_into_run``): only the other chunks are keyed and
    sorted, and the run's rows are moved, not keyed. Every other merge
    keys and sorts all rows (``_merge_sorted``). Either way, beside the
    chunks and the result, a merge holds sort keys and index arrays of 8
    bytes for the rows it sorts, and temporaries of ``_ORDER_BLOCK`` rows
    for those it moves; the chunks are scattered into the result one by
    one and released.
    """

    def __init__(self, n: int):
        self.n = n
        # (masks, coeffs) rows as in ``PauliOperator``: the merged rows so
        # far (None before a merge), then the chunks added since, with the
        # index in ``_parts`` of the largest chunk added by ``add_operator``
        # and its row count
        self._merged: tuple[np.ndarray, np.ndarray] | None = None
        self._parts: list[tuple[np.ndarray, np.ndarray]] = []
        self._run, self._run_rows = None, 0

    def _no_rows(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros((0, 2 * _n_words(self.n)), np.uint64), np.zeros((0, 2))

    def add_rows(self, masks: np.ndarray, coeffs: np.ndarray) -> None:
        """Add rows as ``PauliOperator`` holds them: masks (N, 2W) words on
        this register and coefficients (N, 2)."""
        if len(coeffs):
            self._parts.append((masks, coeffs))

    def add_strings(self, xs: Iterable[int], zs: Iterable[int],
                    coeffs: Iterable[complex]) -> None:
        """Add strings given as Python-int masks and coefficients;
        ValueError if a mask sets a qubit outside the register."""
        xs, zs = list(xs), list(zs)
        if any(m >> self.n for m in (*xs, *zs)):
            raise ValueError(f"a mask sets a qubit outside the {self.n}-qubit register")
        cs = [complex(c) for c in coeffs]
        self.add_rows(_masks(xs, zs, _n_words(self.n)),
                      np.array([(c.real, c.imag) for c in cs], dtype=float).reshape(-1, 2))

    def add_string(self, x: int, z: int, c: complex) -> None:
        self.add_strings([x], [z], [c])

    def add_operator(self, op: "PauliOperator") -> None:
        if op.n_qubits != self.n:
            raise ValueError("qubit-count mismatch in operator sum")
        rows = len(op.coeffs)
        if rows > self._run_rows:
            self._run, self._run_rows = len(self._parts), rows
        self.add_rows(op.masks, op.coeffs)

    def add_products(self, a_masks: np.ndarray, a_coeffs: np.ndarray,
                     b_masks: np.ndarray, b_coeffs: np.ndarray) -> None:
        """Add the products P_a P_b of the rows of mask (..., 2W) and
        coefficient (..., 2) arrays, broadcast against each other, in the
        broadcast's order; ``PauliOperator.__mul__`` is an outer product."""
        w = _n_words(self.n)
        masks = a_masks ^ b_masks
        k = (_popcount(a_masks[..., :w] & a_masks[..., w:])
             + _popcount(b_masks[..., :w] & b_masks[..., w:])
             - _popcount(masks[..., :w] & masks[..., w:])
             + 2 * _popcount(a_masks[..., w:] & b_masks[..., :w])) & 3
        with _quiet():
            re, im = _cmul(*_cmul(a_coeffs[..., 0], a_coeffs[..., 1],
                                  b_coeffs[..., 0], b_coeffs[..., 1]),
                           _I_POWERS_RE[k], _I_POWERS_IM[k])
        self.add_rows(masks.reshape(-1, 2 * w), np.stack([re.ravel(), im.ravel()], axis=1))

    def add_tensor_product(self, factors: Iterable["PauliOperator"],
                           scale: complex = 1.0) -> None:
        """Add scale * f_1 f_2 ... f_k, the one-product case of
        ``add_tensor_products``."""
        factors = list(factors)
        if any(f.n_qubits != self.n for f in factors):
            raise ValueError("qubit-count mismatch in tensor product")
        self.add_tensor_products([(f.masks[None], f.coeffs[None]) for f in factors], scale)

    def add_tensor_products(self, factors: Sequence[tuple[np.ndarray, np.ndarray]],
                            scale: complex = 1.0) -> None:
        """Add scale * f_1[p] ... f_k[p] for each product p in turn, factor
        i as masks (P, r_i, 2W) and coefficients (P, r_i, 2); ValueError if
        two factors of a product share a qubit.

        The coefficients are those of the chained product
        ``identity(n) * f_1 * ... * f_k``, scaled by ``.scale(scale)`` and
        added with ``add_operator``, bit for bit: factor by factor in the
        given order (complex products do not associate in floating point),
        each partial product merged as ``to_operator`` merges it (+ 0.0,
        then terms below ``DROP_TOL`` dropped), the scale last. Disjoint
        strings commute with phase i^0 and never coincide, so no partial
        product is sorted or merged. A product's rows are laid out
        factor-major, the factors ordered by their lowest support qubit
        (over all products), which is canonical order when the factors
        are canonical on non-interleaved qubit ranges, such as link
        registers."""
        w = _n_words(self.n)
        n_products = len(factors[0][0])
        used, lowest = np.zeros((n_products, w), dtype=np.uint64), []
        for masks, _ in factors:
            if masks.shape[-1] != 2 * w:
                raise ValueError("qubit-count mismatch in tensor product")
            supp = np.bitwise_or.reduce(masks[..., :w] | masks[..., w:], axis=1)
            if (used & supp).any():
                raise ValueError("tensor product factors share a qubit")
            used |= supp
            # lowest support qubit + 1 over all products; 0 for an identity
            # factor, whose one row goes anywhere
            supp, = _ints(np.bitwise_or.reduce(supp, axis=0, keepdims=True))
            lowest.append((supp & -supp).bit_length())
        # coefficients as a tensor with an axis for the product, then one
        # per factor in factor order
        re, im = np.ones(n_products), np.zeros(n_products)
        keep = np.ones(n_products, dtype=bool)
        with _quiet():
            for i, (_, coeffs) in enumerate(factors):
                shape = (n_products,) + (1,) * i + (coeffs.shape[1],)
                re, im = _cmul(*_cmul(re[..., None], im[..., None], coeffs[..., 0].reshape(shape),
                                      coeffs[..., 1].reshape(shape)), 1.0, 0.0)
                re, im = re + 0.0, im + 0.0
                keep = keep[..., None] & ~(np.hypot(re, im) < DROP_TOL)
            scale = complex(scale)
            if scale != 1:
                re, im = _cmul(scale.real, scale.imag, re, im)
        layout = sorted(range(len(factors)), key=lowest.__getitem__)
        masks = np.zeros((n_products, 1, 2 * w), dtype=np.uint64)
        for i in layout:
            f = factors[i][0]
            masks = (masks[:, :, None] | f[:, None]).reshape(
                n_products, masks.shape[1] * f.shape[1], 2 * w)
        axes = (0, *(1 + i for i in layout))
        coeffs = np.stack([re.transpose(axes).ravel(), im.transpose(axes).ravel()], axis=1)
        keep = keep.transpose(axes).ravel()
        masks = masks.reshape(-1, 2 * w)
        if not keep.all():
            masks, coeffs = masks[keep], coeffs[keep]
        self.add_rows(masks, coeffs)

    def _merge(self, real: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Collapse the chunks into one: a row per distinct string, in
        canonical order, with its contributions summed in insertion order
        starting from 0.0 (nothing dropped yet). With ``real``, rows whose
        real part is 0 are left out first (see ``hermitize``), and the
        merge sorts all rows."""
        if not self._parts:
            return self._merged or self._no_rows()
        parts, run, run_rows = self._parts, self._run, self._run_rows
        if self._merged is not None and len(self._merged[1]):
            # the merged rows are canonical too
            parts = [self._merged, *parts]
            run = 0 if run_rows <= len(parts[0][1]) else run + 1
            run_rows = len(parts[run][1])
        # from here on ``parts``, then the blocks taken from it, hold the
        # only references to the chunks
        self._merged, self._parts, self._run, self._run_rows = None, [], None, 0
        if not real and len(parts) > 1 and 2 * run_rows > _ORDER_BLOCK:
            rows = sum(len(c) for _, c in parts)
            if rows > _ORDER_BLOCK and 2 * run_rows > rows:
                self._merged = self._merge_into_run(parts, run)
                return self._merged
        self._merged = self._merge_sorted(parts, real)[:2]
        return self._merged

    def _merge_sorted(self, parts: list, real: bool, owner: np.ndarray | None = None):
        """The merge of ``parts`` by one sort of all rows' keys (by owner
        first with ``owner``, see ``_group``), and each row's group.

        The chunks are taken in blocks of up to ``_ORDER_BLOCK`` rows
        (consecutive small chunks joined), so every pass runs per block.
        The sort gives each row its group, and the blocks are scattered
        into the result one by one, each released once written."""
        blocks = [b for b in _blocks(parts, real) if len(b[1])]
        if not blocks:
            return *self._no_rows(), np.zeros(0, np.intp)
        where, n_groups = _group(blocks, self.n, owner)
        masks = np.empty((n_groups, 2 * _n_words(self.n)), dtype=np.uint64)
        sums = np.zeros(n_groups, dtype=complex)
        _scatter(blocks, where, masks, sums)
        return masks, sums.view(float).reshape(-1, 2), where

    def _merge_into_run(self, parts: list, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The merge of ``parts`` whose chunk ``i`` is a canonical run
        holding most of the rows, beside at least one other chunk.

        The other chunks, before and after the run, are grouped as
        ``_merge_sorted`` groups them, and ``_find`` places each of their
        strings in the run. The result is the run with the strings it
        lacks inserted at their places. The sums follow insertion order:
        the rows before the run are added, then the run's rows (moved in
        blocks of ``_ORDER_BLOCK``), then the rows after it."""
        run_masks, run_coeffs = parts[i]
        head = list(_blocks(parts[:i], False)) if i else []
        tail = list(_blocks(parts[i + 1:], False)) if i + 1 < len(parts) else []
        parts.clear()
        n_head = sum(len(c) for _, c in head)
        blocks = head + tail
        where, n_groups = _group(blocks, self.n)
        strings = np.empty((n_groups, run_masks.shape[1]), dtype=np.uint64)
        lo = 0
        for masks, _ in blocks:
            strings[where[lo:lo + len(masks)]] = masks
            lo += len(masks)
        pos, found = _find(run_masks, strings, self.n)
        del strings
        # a string the run lacks goes before the run row at its place,
        # after the strings the run lacks at earlier or equal places
        new = pos[~found]
        at = np.empty(n_groups, dtype=np.intp)
        at[~found] = new + np.arange(len(new))
        at[found] = pos[found] + np.searchsorted(new, pos[found], side="right")
        where = at[where]
        n_run = len(run_coeffs)
        masks = np.empty((n_run + len(found) - int(found.sum()), run_masks.shape[1]),
                         dtype=np.uint64)
        sums = np.zeros(len(masks), dtype=complex)
        # the run's rows fill, in order, the result rows no lacking string takes
        is_run = np.ones(len(masks), dtype=bool)
        is_run[at[~found]] = False
        del blocks, at, found
        _scatter(head, where[:n_head], masks, sums)
        r, rows = 0, _items(masks)
        with _quiet():
            for lo in range(0, len(masks), _ORDER_BLOCK):
                take = is_run[lo:lo + _ORDER_BLOCK]
                k = r + int(np.count_nonzero(take))
                rows[lo:lo + _ORDER_BLOCK][take] = _items(run_masks[r:k])
                block = sums[lo:lo + _ORDER_BLOCK]
                block[take] += np.ascontiguousarray(run_coeffs[r:k]).view(complex).ravel()
                r = k
        _scatter(tail, where[n_head:], masks, sums)
        return masks, sums.view(float).reshape(-1, 2)

    def hermitize(self) -> "PauliOperator":
        """Replace the accumulated T by T + T^dag (keeps 2 Re of coefficients)
        and return it as an operator, with nothing below ``DROP_TOL``
        dropped yet (``to_operator`` drops it).

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
        return PauliOperator(self.n, masks, doubled)

    def to_operator(self) -> "PauliOperator":
        masks, coeffs = self._merge()
        drop = np.hypot(coeffs[:, 0], coeffs[:, 1]) < DROP_TOL  # keeps NaN
        if drop.any():
            keep = ~drop
            masks, coeffs = masks[keep], coeffs[keep]
        return PauliOperator(self.n, masks, coeffs)

    def to_operators(self, owner, count: int) -> list["PauliOperator"]:
        """``count`` operators, operator g what ``to_operator`` gives for
        the rows r with ``owner[r]`` = g alone (nothing merged before),
        from one sort by (owner, string); empties the accumulator."""
        if self._merged is not None:
            raise ValueError("to_operators takes rows that were never merged")
        owner = np.asarray(owner, dtype=np.intp)
        parts, self._parts, self._run, self._run_rows = self._parts, [], None, 0
        masks, coeffs, where = self._merge_sorted(parts, False, owner)
        row_owner = np.empty(len(masks), dtype=np.intp)
        row_owner[where] = owner
        keep = ~(np.hypot(coeffs[:, 0], coeffs[:, 1]) < DROP_TOL)
        bounds = np.searchsorted(row_owner[keep], np.arange(count + 1))
        masks, coeffs = masks[keep], coeffs[keep]
        return [PauliOperator(self.n, masks[a:b], coeffs[a:b])
                for a, b in zip(bounds[:-1], bounds[1:])]


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
        """The coefficient of one string, 0.0 if absent; ValueError for a
        label or string on another qubit count."""
        if isinstance(label_or_string, str):
            probe = PauliString.from_label(label_or_string)
        else:
            probe = label_or_string
        if probe.n != self.n_qubits:
            raise ValueError(f"{probe.n}-qubit string in {self.n_qubits}-qubit operator")
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
        acc = PauliSum(self.n_qubits)
        acc.add_products(self.masks[:, None], self.coeffs[:, None], other.masks, other.coeffs)
        return acc.to_operator()

    def dagger(self) -> "PauliOperator":
        # Pauli strings are hermitian, only the coefficients conjugate.
        return PauliOperator(self.n_qubits, self.masks, self.coeffs * _CONJUGATE)

    def embed(self, n_total: int, offset: int = 0) -> "PauliOperator":
        """View this operator on a larger register, shifted by ``offset``."""
        return self.place(n_total, [offset])

    def place(self, n_total: int, offsets: Sequence[int]) -> "PauliOperator":
        """View this operator on an ``n_total``-qubit register, its qubits
        cut into ``len(offsets)`` consecutive registers of equal width and
        register i moved to start at qubit ``offsets[i]``. The registers
        must ascend without overlap, so every string keeps its place in the
        canonical order; ValueError otherwise. The coefficients are
        shared, not copied. The one-copy case of ``placements``."""
        return PauliOperator(n_total, self.placements(n_total, [offsets])[0], self.coeffs)

    def placements(self, n_total: int, offsets: Sequence[Sequence[int]]) -> np.ndarray:
        """The masks of ``place(n_total, o)`` for each o of ``offsets`` as one
        (copies, rows, 2W) array; ValueError as ``place``."""
        offsets = [list(map(int, row)) for row in offsets]
        if not offsets:
            return np.zeros((0, *self.masks.shape[:1], 2 * _n_words(n_total)), np.uint64)
        width, rest = divmod(self.n_qubits, len(offsets[0]))
        if rest or any(row[0] < 0 or row[-1] + width > n_total
                       or any(b - a < width for a, b in zip(row, row[1:]))
                       for row in offsets):
            raise ValueError("embedding range out of register")
        return _place(self.masks, width, offsets, _n_words(n_total))


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
