"""Statevector simulation on the reachable coset: the coset map, the fused
Trotter kernel, exact evolution, the basis decoder, physical observables,
configuration readout and the Gauss-law filter.

Basis indices follow the map stated in ``lgt.lattice.RegisterLayout``.
Every string moves a basis index by its x-mask, so from a basis state i0
both the product formula and e^{-iHt} stay inside the coset i0 + V, where V
is the GF(2) span of the strings' x-masks, of rank r <= n. A ``Coset``
numbers those 2^r indices in ascending order, and a ``StateVector`` holds
one amplitude per coset position; the full register is the coset with
V = GF(2)^n. ``Coset.taper`` rewrites a string as an r-qubit string on the
positions (qubit tapering, Bravyi, Gambetta, Mezzacapo & Temme,
arXiv:1701.08213), so a tapered Trotter plan is an ordinary plan on r
qubits.

In the (2,)*r view of the amplitudes qubit q is axis q, and a string acts
with no index arrays: its X/Y axes become reversed slices (views) and its
Z/Y parity a broadcast tensor of 2^|Z/Y axes| entries. The product formula
has one exponential per string, but a Trotter plan cuts its strings into
runs and folds each run into one operator, psi <- sum_w D_w psi[. ^ w]
over the shifts w its x-masks span: the fusion of runs of gates used by
blocked statevector simulators (Doi & Horii, arXiv:2102.02957), here for
Pauli strings. A step then makes one pass per term, not per string. One
cut (``_block_starts``) prices each run by the form it takes, and
``FUSE_ENTRIES`` bounds a fused term tensor.

A block whose shifts span k >= 2 dimensions acts on each coset c + W of
its shift span as one dense 2^k x 2^k matrix, as blocked simulators apply
fused k-qubit gates as small dense matrices (Häner & Steiger,
arXiv:1704.01127). Where its table of 2^r positions fits the bytes of
``FUSE_ENTRIES`` complex entries, it takes this matvec form: one gather
of the amplitudes into coset order and one batched matvec, (..., K, K) @
(..., K, 1), with the matrices stored once per value of the qubits they
depend on and built straight from the strings, one update per string.
Such a block spans up to 16 shifts, where a batched matvec costs about
what one of 4 shifts does, and holds at most ``FUSE_ENTRIES`` matrix
entries; a chain of them gathers each block's input from the previous
block's products, so only its last block scatters into state order. A
pass over a few thousand amplitudes costs NumPy's strided iterator, not
arithmetic, so a few calls beat 2^k passes there. Blocks of k <= 1, and
blocks of large r, keep the pass form. Each matvec rounds alike whatever
the number of cosets, so a tapered and a full-register step agree bit for
bit where both registers fit the tables (n <= 14) or the cut takes no
block of k >= 2; where only the coset fits (13 of ``double_plaquette_2d``'s
19 qubits, in a plan cut for 20 steps) they agree to round-off.

In qubit order a pass-form block's axes sit among the untouched ones, and
NumPy would walk each pass in rows of a few amplitudes. So consecutive
blocks form layout runs, as blocked simulators order qubits per run of
gates and swap axes only between runs: a run holds the amplitudes in its
own axis order, the t qubits its pass-form blocks act on first, and
leaves at least ``ROW_AXES`` qubits untouched where it can. Its passes
then walk rows of 2^(r - t) contiguous amplitudes, and a step makes one
transposing copy into each run's order and one back to qubit order; a
matvec-form block gathers from whatever order it finds. Per amplitude a
step does the same products and sums in the same order as in qubit order,
so the result does not depend on the layouts. One loop on the plan cuts,
folds and lays out each block and binds it to views of two scratch
buffers; the step is the resulting list of NumPy calls, kept on the plan,
and nothing is cached at module level.

``decode_basis`` is the one map from basis indices to fermion occupations
and link fluxes. ``ConfigKeys`` is the one walk over a coset: it decodes
the 2^r positions once per run, in blocks, into three tables, the
configuration key, the G_x = 0 mask and the particle number of each
position. Readouts decode nothing: ``standard_observables`` dots a state's
probabilities with the particle numbers, ``config_probabilities`` sums them
per key with one ``np.bincount``, and ``gauss_filter`` selects the G_x = 0
positions; labels are decoded only for the keys a caller asks for. Exact
evolution runs on a span of basis states inside the state's coset, all 2^n
by default or the G_x = 0 sector that ``gauss_filter`` returns, which the
quantum-link Hamiltonian leaves invariant. There the Gauss penalty
vanishes, so H restricted to the span has a small norm, and e^{-iHt} is a
truncated Taylor series in s substeps of norm at most ``TAYLOR_STEP``,
built from ``OperatorAction`` alone, which holds the restricted H as one
(flip masks x span) gather table and applies it with one gather, one
multiply and one sum: the scaling-and-stepping scheme of Al-Mohy & Higham,
SIAM J. Sci. Comput. 33, 488 (2011), with the exact infinity norm of the
restricted H in place of their norm estimates. The package needs no scipy.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from lgt.gauge import check_spin, register_flux
from lgt.lattice import Link, RegisterLayout
from lgt.matter import FermionMapping
from lgt.pauli import DROP_TOL, PauliOperator, PauliString, _index_mask, index_masks

MAX_QUBITS = 24      # statevector simulation limit
LEAK_TOL = 1e-12     # allowed |<out|H|in>| per unit of sum |coeff| across a span
GAUSS_TOL = 1e-9     # |G_x| / e below this counts as G_x = 0
READOUT_TOL = 1e-12  # configuration probabilities at or below this are not listed
GAUSS_BLOCK = 1 << 16  # coset positions ConfigKeys decodes at a time
FUSE_SPAN = 3          # a pass-form Trotter block's x-masks span at most this
                       # dimension; 2^FUSE_SPAN passes price a matvec-form block
FUSE_ENTRIES = 1 << 13  # entries of one fused term tensor at most (128 KB, which
                        # also bounds a matvec-form block's position table and
                        # its matrices)
ROW_AXES = 3           # qubits a Trotter layout run leaves untouched, if it can
TAYLOR_STEP = 2.0       # ||H tau||_inf of one exact-evolution substep at most
TAYLOR_TERMS = 60       # Taylor terms a substep may take before evolve gives up


def _echelon(masks) -> dict[int, int]:
    """The GF(2) span of qubit masks in reduced row-echelon form, {pivot:
    vector}: a vector's pivot, its lowest qubit, is set in no other vector.
    The pivots are the lowest qubits of the span's nonzero members, so they
    do not depend on the order of ``masks``."""
    rows: dict[int, int] = {}
    for x in masks:
        for p, v in rows.items():
            if x >> p & 1:
                x ^= v
        if x:
            p = (x & -x).bit_length() - 1
            rows = {q: v ^ x if v >> p & 1 else v for q, v in rows.items()}
            rows[p] = x
    return rows


@dataclass(frozen=True)
class Coset:
    """The basis indices offset + V, numbered in ascending order.

    ``basis`` holds V as qubit masks (bit q = qubit q) in reduced row-echelon
    form: v_j's pivot, its lowest qubit p_j, is set in no other v_k, and
    the pivots ascend. ``offset`` is a basis index with every pivot bit
    clear. Position c, read as r bits with tapered qubit 0 most significant
    (c_j the bit of tapered qubit j), holds the basis index offset + sum_j
    c_j v_j (XOR); a pivot is the most significant index bit of its vector,
    so ``index`` ascends. ``lgt.pauli._index_mask`` turns qubit masks into
    index bits. Raises ValueError if ``basis`` or ``offset`` is not in
    that form.
    """

    n: int
    basis: tuple[int, ...]
    offset: int

    def __post_init__(self):
        pivot_bits = sum(v & -v for v in self.basis)
        if not (all(0 < v < 1 << self.n and v & pivot_bits == v & -v
                    for v in self.basis)
                and list(self.pivots) == sorted(set(self.pivots))
                and 0 <= self.offset < 1 << self.n
                and not self._offset_bits & pivot_bits):
            raise ValueError("coset not in reduced row-echelon form")

    @classmethod
    def full(cls, n: int) -> "Coset":
        """The whole register: V = GF(2)^n, position = basis index."""
        return cls(n, tuple(1 << q for q in range(n)), 0)

    @classmethod
    def reachable(cls, op: PauliOperator, index: int) -> "Coset":
        """The coset of basis index ``index`` under the span of the
        strings' x-masks: every state e^{-iHt} or a product formula reaches
        from that basis state lies in it."""
        rows = _echelon({t.x for t in op.terms})
        bits = _index_mask(index, op.n_qubits)
        for p, v in rows.items():
            if bits >> p & 1:
                bits ^= v
        return cls(op.n_qubits, tuple(rows[p] for p in sorted(rows)),
                   _index_mask(bits, op.n_qubits))

    @property
    def r(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple((v & -v).bit_length() - 1 for v in self.basis)

    @functools.cached_property
    def _offset_bits(self) -> int:
        return _index_mask(self.offset, self.n)

    @functools.cached_property
    def index(self) -> np.ndarray:
        """Basis index of every position, ascending (2^r int64 entries)."""
        idx = np.array([self.offset], dtype=np.int64)
        # the last tapered qubit is the least significant position bit
        for v in reversed(self.basis):
            idx = np.concatenate([idx, idx ^ _index_mask(v, self.n)])
        return idx

    def positions(self, indices) -> np.ndarray:
        """Positions of an array of basis indices; ValueError if one is not
        in the coset."""
        idx = np.asarray(indices, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.index, idx), len(self.index) - 1)
        if not np.array_equal(self.index[pos], idx):
            raise ValueError("basis index outside the coset")
        return pos

    def basis_state(self, index: int) -> "StateVector":
        amps = np.zeros(1 << self.r, dtype=complex)
        amps[self.positions([index])] = 1.0
        return StateVector(amps, self)

    def taper(self, p: PauliString) -> PauliString:
        """The r-qubit string that acts on positions as ``p`` acts on the
        coset: x'_j = bit p_j of x, z'_j = parity(z & v_j), and the
        coefficient times i^(|Y| - |Y'|) (-1)^parity(z & offset), which is
        +-1 (Dehaene & De Moor, PRA 68, 042318). Raises ValueError if the
        x-mask is not in V."""
        x = z = 0
        rest = p.x
        for j, (pivot, v) in enumerate(zip(self.pivots, self.basis)):
            if p.x >> pivot & 1:
                x |= 1 << j
                rest ^= v
            if (p.z & v).bit_count() & 1:
                z |= 1 << j
        if rest:
            raise ValueError(f"string {p.label} moves states off the coset")
        k = ((p.x & p.z).bit_count() - (x & z).bit_count()
             + 2 * (p.z & self._offset_bits).bit_count())
        return PauliString(self.r, x, z, -p.coeff if k % 4 else p.coeff)


@dataclass
class StateVector:
    """Amplitudes over the positions of a coset (default: the whole
    register of log2 len(amps) qubits, so position = basis index)."""

    amps: np.ndarray
    coset: Coset | None = None

    def __post_init__(self):
        if self.coset is None:
            self.coset = Coset.full(max(len(self.amps) - 1, 0).bit_length())
        if len(self.amps) != 1 << self.coset.r:
            raise ValueError("state size mismatch")

    @property
    def n_qubits(self) -> int:
        return self.coset.r

    def copy(self) -> "StateVector":
        return StateVector(self.amps.copy(), self.coset)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def loschmidt(state0: StateVector, state_t: StateVector) -> float:
    """|<phi_0 | phi_t>|^2, the survival probability of the initial state."""
    if state0.coset != state_t.coset:
        raise ValueError("states on different cosets")
    return float(abs(np.vdot(state0.amps, state_t.amps)) ** 2)


# -- matrix-free operator action ------------------------------------------


class OperatorAction:
    """H|psi> on the span of sorted basis indices (all 2^n by default) as
    one gather table, a row per index-flip mask xm in ascending order.

    Amplitude arrays hold one entry per basis index, in basis order. Row g
    holds ``src[g, i]``, the position of basis[i] ^ xm, and ``coef[g, i]``,
    the entry of H from there to position i (summed over the strings that
    flip xm); where basis[i] ^ xm leaves the span it reads position i with
    coefficient 0. An operator with no strings has no rows. An action
    takes complex amplitudes and works in one buffer of the table's size,
    kept with the table. Raises ValueError if H maps a state of the span
    out of it.
    """

    def __init__(self, op: PauliOperator, basis: np.ndarray | None = None):
        self.n = op.n_qubits
        self.basis = np.asarray(np.arange(1 << self.n) if basis is None
                                else basis, dtype=np.int64)
        dim = len(self.basis)
        masks = [index_masks(t) for t in op.terms]
        rows = {xm: g for g, xm in enumerate(sorted({m[0] for m in masks}))}
        # row g first holds diag[j] = <basis[j] ^ xm| H |basis[j]>
        self.src = np.empty((len(rows), dim), dtype=np.intp)
        # coef and the action's buffer end in one spare 0: NumPy multiplies
        # a lone complex pair in place without the vector loop's fused
        # multiply-add, so every in-place product spans two or more pairs
        size = len(rows) * dim
        self._coef = np.zeros(size + 1, dtype=complex)
        self._buf = np.zeros(size + 1, dtype=complex)
        self.coef = self._coef[:size].reshape(len(rows), dim)
        self._rows = self._buf[:size].reshape(len(rows), dim)
        for t, (xm, zm, ypow) in zip(op.terms, masks):
            self.coef[rows[xm]] += (t.coeff * ypow) * np.where(
                np.bitwise_count(self.basis & zm) & 1, -1.0, 1.0)
        leak_tol = LEAK_TOL * max(1.0, sum(abs(t.coeff) for t in op.terms))
        for xm, g in rows.items():
            diag = self.coef[g]
            target = self.basis ^ xm
            pos = np.minimum(np.searchsorted(self.basis, target), dim - 1)
            outside = self.basis[pos] != target
            if np.abs(diag[outside]).max(initial=0.0) > leak_tol:
                raise ValueError("operator maps the basis span out of itself")
            diag[outside] = 0.0
            self.src[g] = np.where(outside, np.arange(dim), pos)
            diag[:] = diag[self.src[g]]

    def __call__(self, amps: np.ndarray) -> np.ndarray:
        amps.take(self.src, out=self._rows, mode="clip")  # no index is out of range
        # coef first: the product's rounding depends on the operand order
        np.multiply(self._coef, self._buf, out=self._buf)
        return np.add.reduce(self._rows, axis=0)


# -- Trotter -------------------------------------------------------------


def _shift(x: int, axes) -> tuple[slice, ...]:
    """Index of psi[. ^ x] over axes holding the qubits ``axes``: the X/Y
    axes reversed."""
    return tuple(slice(None, None, -1) if (x >> q) & 1 else slice(None)
                 for q in axes)


def _fold(terms: dict[int, np.ndarray], p: PauliString, theta: float
          ) -> dict[int, np.ndarray]:
    """The terms {w: D_w} of exp(-i theta P) B from those of B; the
    coefficient of P is ignored.

    exp(-i theta P) = cos(theta) I - F X^x with F = i sin(theta) i^|Y|
    signs[. ^ x], where signs is (-1)^parity over the Z/Y axes, so
    (cos I - F X^x) sum_w D_w X^w = sum_w cos D_w X^w
    - sum_w (F D_w[. ^ x]) X^(x ^ w). A diagonal P multiplies every D_w
    by exp(-i theta signs). New shifts follow the old ones, so the order
    of the terms comes from the fold alone, and the shift of term a is the
    XOR of the shifts of terms 2^j over the bits j of a.
    """
    # (-1)^parity of the Z/Y axes' bits, in C order over those axes
    signs = np.where(np.bitwise_count(np.arange(1 << p.z.bit_count())) & 1, -1.0, 1.0)
    signs = signs.reshape([1 + ((p.z >> q) & 1) for q in range(p.n)])
    if p.x == 0:
        phase = np.exp(-1j * theta * signs)
        return {w: d * phase for w, d in terms.items()}
    flip = _shift(p.x, range(p.n))
    f = (1j * math.sin(theta) * 1j ** ((p.x & p.z).bit_count() % 4)) * signs[flip]
    cos = math.cos(theta)
    out = {w: cos * d for w, d in terms.items()}
    for w, d in terms.items():
        moved = f * d[flip]
        v = w ^ p.x
        out[v] = out[v] - moved if v in out else -moved
    return out


def _span(run) -> list[int]:
    """The shifts w(a) of a run's terms in ``_fold``'s order: a string whose
    x-mask is new appends w ^ x for every shift w so far, so w(a) ^ w(b) =
    w(a ^ b)."""
    shifts = [0]
    for p in run:
        if p.x not in shifts:
            shifts += [w ^ p.x for w in shifts]
    return shifts


def _subsets(mask: int) -> np.ndarray:
    """The qubit masks of all subsets of the qubits in ``mask``; bit i of a
    subset's number selects the i-th lowest qubit."""
    qubits = [q for q in range(mask.bit_length()) if mask >> q & 1]
    return ((np.arange(1 << len(qubits))[:, None] >> np.arange(len(qubits))) & 1
            ) @ (np.int64(1) << np.array(qubits, dtype=np.int64))


def _matvec_table(run, dt: float, axes: tuple[int, ...]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(M, positions): a run of strings as one batched matvec on the
    amplitudes held in the axis order ``axes``, axis 0 the most
    significant bit of a flat index.

    The run's K shifts w(a) (``_span``) span W, and the coset c + W, c
    with W's pivot qubits (``_echelon``) clear, holds position c ^ w(a) at
    a. M[c, a, b] maps the amplitude at c ^ w(b) into c ^ w(a); it depends
    only on c's dep qubits, the Z/Y qubits of the run outside the pivots,
    so M has shape (2^dep, 1, K, K) and broadcasts over the free qubits,
    those neither pivots nor dep. M is built in one pass over the strings,
    whatever K: exp(-i theta P) = cos(theta) I - i sin(theta) P, and P
    moves c ^ w(a ^ s) to c ^ w(a), w(s) = x, times i^|Y|
    (-1)^parity(z & (c ^ w(a ^ s))), so each string updates M <- cos M -
    g M[:, a ^ s], the rows a ^ s a view with the axes of s's bits
    reversed. The parity is parity(z & c) ^ parity(z & w(a ^ s)), from a
    (strings, cosets) and a (strings, K) table, and each string's g is
    i sin(theta) i^|Y| or its negation by it, so each entry rounds alike
    on any register. ``positions`` (2^dep, 2^free, K, 1) holds the flat
    index of each position c ^ w(a), every index once."""
    r = len(axes)
    shifts = _span(run)
    rows = _echelon(shifts)
    pivots = sum(1 << q for q in rows)
    dep = functools.reduce(int.__or__, (p.z for p in run)) & ~pivots
    reps, w = _subsets(dep), np.array(shifts, dtype=np.int64)  # c, w(a)
    bit = np.zeros(r, dtype=np.int64)  # the flat index bit of each qubit
    bit[list(axes)] = 1 << np.arange(r - 1, -1, -1)

    def flat(masks: np.ndarray) -> np.ndarray:
        return ((masks[..., None] >> np.arange(r)) & 1) @ bit

    free = _subsets((1 << r) - 1 & ~dep & ~pivots)
    positions = (flat(reps)[:, None, None] | flat(free)[:, None]) ^ flat(w)
    size, k = len(shifts), len(rows)
    index = [shifts.index(p.x) for p in run]  # s, w(s) = x
    z = np.array([p.z for p in run], dtype=np.int64)[:, None]
    moved_w = w[np.arange(size) ^ np.array(index)[:, None]]  # (L, K): w(a ^ s)
    # (L, C, K): parity(z & (c ^ w(a ^ s))), 1 where g is negated
    odd = (np.bitwise_count(z & reps)[:, :, None]
           ^ np.bitwise_count(z & moved_w)[:, None]) & 1
    shape = (len(reps),) + (2,) * k  # bit k - 1 of a on the first axis
    m = np.zeros((len(reps), size, size), dtype=complex)
    m[:, np.arange(size), np.arange(size)] = 1.0
    moved = np.empty_like(m)
    view, moved_view = (a.reshape(shape + (size,)) for a in (m, moved))
    for p, s, odd_p in zip(run, index, odd):
        theta = p.coeff.real * dt
        coef = 1j * math.sin(theta) * 1j ** ((p.x & p.z).bit_count() % 4)
        g = np.where(odd_p, -coef, coef).reshape(shape + (1,))
        np.multiply(g, view[(slice(None),) + _shift(s, range(k - 1, -1, -1))],
                    out=moved_view)
        m *= math.cos(theta)
        m -= moved
    return m[:, None], positions[..., None].astype(np.intp, copy=False)


def _matvec_fits(r: int) -> bool:
    """Whether a matvec-form block's table of 2^r positions fits the bytes
    of ``FUSE_ENTRIES`` complex entries (r <= 14)."""
    return (1 << r) * np.dtype(np.intp).itemsize <= FUSE_ENTRIES * np.dtype(complex).itemsize


def _block_starts(strings: tuple[PauliString, ...], n_steps: int) -> list[int]:
    """Where the blocks of a plan start: the cut of the strings into runs
    that minimises sum c (n_steps + L), the work of n_steps steps and of
    building each run of L strings, priced by the form the run takes. A
    run whose x-masks span k >= 2 dimensions takes the matvec form where
    ``_matvec_fits``: c = 2^``FUSE_SPAN``, as a batched matvec of 4 to 16
    shifts costs about a few passes; it spans at most 16 shifts, and its
    matrices, 2^dep of K x K, hold at most ``FUSE_ENTRIES`` entries. Any
    other run takes the pass form: c = 2^k, k <= ``FUSE_SPAN``. A run of
    two or more strings acts on at most log2(``FUSE_ENTRIES``) Z/Y axes, so
    none of its term tensors exceeds that many entries. Neither limit
    shrinks as a run grows (a new shift adds one pivot, so dep + 2k
    grows), so the scan of the runs that end at a string stops at the
    first that breaks one. The dep qubits are counted as on the tapered
    register, so a plan on the full register cuts as its tapered plan
    does (its own matrices may then be larger)."""
    max_axes = FUSE_ENTRIES.bit_length() - 1
    n = strings[0].n if strings else 0
    xs, zs = [p.x for p in strings], [p.z for p in strings]
    fits = bool(strings) and _matvec_fits(n)
    if fits:
        # each string's Z/Y qubits as a tapered plan has them, kept above its
        # own: its parities with the echelon basis of the span V of all the
        # x-masks, at V's pivots (on the tapered register V is all of it)
        basis = _echelon(xs)
        parity = np.bitwise_count(np.array(zs, dtype=np.int64)[:, None]
                                  & np.array(list(basis.values()), dtype=np.int64)) & 1
        deps = parity @ (np.int64(1) << np.array(list(basis), dtype=np.int64))
        zs = [z | d << n for z, d in zip(zs, deps.tolist())]
    own = (1 << n) - 1
    strings_xz = list(zip(xs, zs))
    cost = [0] * (len(strings) + 1)
    start = [0] * (len(strings) + 1)
    for j in range(1, len(strings) + 1):
        x, axes = strings_xz[j - 1]
        span, size, pivots = {0, x}, 1 + (x != 0), x & -x
        price, steps, outside = size, n_steps + j, ~axes
        best, start[j] = cost[j - 1] + price * (n_steps + 1), j - 1
        if (axes & own).bit_count() > max_axes:  # no run of two or more
            cost[j] = best
            continue
        for i in range(j - 2, -1, -1):
            x, z = strings_xz[i]
            if x not in span or z & outside:
                if x not in span:
                    if size == (16 if fits else 1 << FUSE_SPAN):
                        break
                    span |= {w ^ x for w in span}
                    size *= 2
                    pivots = sum({w & -w for w in span})
                axes |= z
                outside = ~axes
                matvec = fits and size >= 4
                price = 1 << FUSE_SPAN if matvec else size
                if (axes & own).bit_count() > max_axes or matvec and (
                        (axes >> n & ~pivots).bit_count() + 2 * size.bit_length() - 2
                        > max_axes):
                    break
            c = cost[i] + price * (steps - i)
            if c < best:
                best, start[j] = c, i
        cost[j] = best
    starts = []
    j = len(strings)
    while j:
        j = start[j]
        starts.append(j)
    starts.reverse()
    return starts


def _layouts(touched: list[int], r: int) -> list[tuple[tuple[int, ...], int]]:
    """(axes, t) of each block, from the qubit masks its passes act on (the
    X, Y or Z qubits of its strings in the pass form, none in the matvec
    form): the axis order of its layout run and the number of qubits the
    run touches. A run of consecutive blocks grows while the union of their
    masks leaves at least ``ROW_AXES`` qubits untouched, or does not grow;
    a run that a block touching no qubit opens after another run takes no
    block that touches one, so that block runs in the layout it finds. Its
    order puts the touched qubits first and the rest after them, each group
    in the previous run's order (qubit order before the first run)."""
    runs: list[list[int]] = []  # [blocks, union of their masks]
    for mask in touched:
        if (runs and (runs[-1][1] | mask).bit_count() <= r - ROW_AXES
                and (not mask or runs[-1][1] or len(runs) == 1)):
            runs[-1][0] += 1
            runs[-1][1] |= mask
        else:
            runs.append([1, mask])
    axes, out = tuple(range(r)), []
    for count, union in runs:
        head = tuple(q for q in axes if union >> q & 1)
        axes = head + tuple(q for q in axes if not union >> q & 1)
        out += [(axes, len(head))] * count
    return out


class _Sum(NamedTuple):
    """A pass-form block bound to the buffers: psi[index] views of the
    buffer holding the amplitudes, summed into ``out``, the other buffer
    (None for a diagonal block, which scales ``psi`` in place)."""

    out: np.ndarray | None
    d: np.ndarray  # D_w of the first term
    psi: np.ndarray  # psi[index] of the first term
    rest: tuple[tuple[np.ndarray, np.ndarray], ...]  # (D_w, psi[index]) of the others


class _Matvec(NamedTuple):
    """A matvec-form block bound to the buffers: a gather through ``table``
    from ``src``, the buffer holding the amplitudes or the previous block's
    products, into ``gathered``, and a product into ``product`` (``src``'s
    memory). The last block of a chain of consecutive matvec blocks then
    scatters the products to their ``positions`` in ``dst`` (the memory of
    ``gathered``), which then holds the amplitudes; inside a chain ``dst``
    is None and the next block gathers from the products."""

    src: np.ndarray  # flat
    table: np.ndarray  # positions, or inv(previous positions)[positions]
    gathered: np.ndarray
    m: np.ndarray
    product: np.ndarray
    dst: np.ndarray | None  # flat
    positions: np.ndarray | None  # where dst takes the products


class _Copy(NamedTuple):
    """A transposing copy into the next layout run's axis order."""

    dst: np.ndarray
    src: np.ndarray


class _Step(NamedTuple):
    """A plan's step as NumPy calls bound to two scratch buffers."""

    axes: tuple[int, ...]  # the first run's axis order
    enter: np.ndarray  # the buffer the state is copied into, as (2,)*r
    ops: tuple[_Sum | _Matvec | _Copy, ...]  # in step order
    leave: np.ndarray  # the buffer the last run ends in, in qubit order


@dataclass(frozen=True)
class TrotterPlan:
    """A first-order product formula, one exponential per string in order,
    on the positions of ``coset`` (r = ``n_qubits`` qubits); ``trotter_plan``
    gives an operator's strings in canonical order.

    A step is one list of NumPy calls on two scratch buffers, built on
    first use by one loop over the blocks: the strings cut into consecutive
    runs (``_block_starts``). The cut depends on ``n_steps``, since a plan
    of more steps repays more folding. A block whose shifts span k >= 2
    dimensions takes the matvec form where its position table of 2^r
    entries fits the bytes of ``FUSE_ENTRIES`` complex entries, the budget
    of one fused term tensor (r <= 14): one gather and one batched matvec
    (``_matvec_table``) of 4 to 16 terms, whose matrices hold at most
    ``FUSE_ENTRIES`` entries, and one scatter after the last block of each
    chain of them. Any other block is folded into one operator of at most
    2^``FUSE_SPAN`` terms (``_fold``) and takes the pass form, one pass per
    term. Consecutive pass-form blocks share a layout run (``_layouts``),
    which holds the amplitudes in its own axis order, the qubits its blocks
    touch first, so that a pass walks rows of at least 2^``ROW_AXES``
    contiguous amplitudes where r allows; a transposing copy enters each
    run, and a matvec-form block runs in the layout it finds."""

    strings: tuple[PauliString, ...]  # real coefficients; angle = coeff * dt
    dt: float
    n_steps: int
    coset: Coset

    @property
    def n_qubits(self) -> int:
        return self.coset.r

    @functools.cached_property
    def _step(self) -> _Step:
        r = self.n_qubits
        full = (2,) * r
        starts = _block_starts(self.strings, self.n_steps)
        ends = starts[1:] + [len(self.strings)]
        runs = [self.strings[i:j] for i, j in zip(starts, ends)]
        fits = _matvec_fits(r)
        matvec = [fits and len(_echelon(p.x for p in run)) >= 2 for run in runs]
        touched = [0 if by_matvec else  # the qubits the block's passes act on
                   functools.reduce(int.__or__, (p.x | p.z for p in run))
                   for run, by_matvec in zip(runs, matvec)]
        layouts = _layouts(touched, r)
        buffers = np.empty(1 << r, dtype=complex), np.empty(1 << r, dtype=complex)
        axes = layouts[0][0] if layouts else tuple(range(r))
        first, psi = axes, 0  # psi: the buffer holding the amplitudes
        ops: list = []
        for run, by_matvec, (run_axes, t) in zip(runs, matvec, layouts):
            if run_axes != axes:
                src = buffers[psi].reshape(full).transpose(
                    [axes.index(q) for q in run_axes])
                psi ^= 1
                ops.append(_Copy(buffers[psi].reshape(full), src))
                axes = run_axes
            if by_matvec:
                m, positions = _matvec_table(run, self.dt, axes)
                table = positions
                if ops and type(ops[-1]) is _Matvec:
                    # gather straight from the previous block's products
                    inv = np.empty(1 << r, dtype=np.intp)
                    inv[ops[-1].positions.reshape(-1)] = np.arange(1 << r)
                    table = inv[positions]
                    ops[-1] = ops[-1]._replace(dst=None, positions=None)
                    psi ^= 1  # its products stay in its product buffer
                src, dst = buffers[psi], buffers[psi ^ 1]
                ops.append(_Matvec(src, table, dst.reshape(positions.shape), m,
                                   src.reshape(positions.shape), dst, positions))
                psi ^= 1
                continue
            terms = {0: np.ones((1,) * r, dtype=complex)}
            for p in run:
                terms = _fold(terms, p, p.coeff.real * self.dt)
            view = buffers[psi].reshape((2,) * t + (1 << r - t,))
            laid_out = []
            for w, d in terms.items():
                # a NumPy scalar at r = 0; size 1 past the t touched axes
                d = np.asarray(d).transpose(axes)
                laid_out.append((d.reshape(d.shape[:t] + (1,)), view[_shift(w, axes[:t])]))
            (d, first_view), *rest = laid_out
            out = None
            if rest:
                psi ^= 1
                out = buffers[psi].reshape(view.shape)
            ops.append(_Sum(out, d, first_view, tuple(rest)))
        leave = buffers[psi].reshape(full).transpose([axes.index(q) for q in range(r)])
        return _Step(first, buffers[0].reshape(full), tuple(ops), leave)

    def kernel_summary(self) -> dict[str, int]:
        """What a step runs, read from its ops: ``blocks``, the fused
        blocks; of those in the pass form, ``passes_per_step``, the passes
        over the state (one per term), and ``fused_bytes``, the bytes of
        their term tensors; of those in the matvec form (4 to 16 terms),
        ``matvec_blocks``, their number, ``matrix_bytes``, the bytes of
        their M, and ``position_bytes``, those of their gather tables and
        of the scatter positions of each chain's last block;
        ``layouts_per_step``, the transposing copies of a step, into each
        layout run's order and back to qubit order."""
        ops = self._step.ops
        sums = [op for op in ops if type(op) is _Sum]
        matvecs = [op for op in ops if type(op) is _Matvec]
        return {"blocks": len(sums) + len(matvecs),
                "passes_per_step": sum(1 + len(op.rest) for op in sums),
                "fused_bytes": sum(d.nbytes for op in sums
                                   for d in (op.d, *(d for d, _ in op.rest))),
                "matvec_blocks": len(matvecs),
                "matrix_bytes": sum(op.m.nbytes for op in matvecs),
                "position_bytes": sum(op.table.nbytes + (0 if op.positions is None
                                                         else op.positions.nbytes)
                                      for op in matvecs),
                "layouts_per_step": 2 + len(ops) - len(sums) - len(matvecs)}


def trotter_plan(op: PauliOperator, dt: float, n_steps: int,
                 coset: Coset | None = None) -> TrotterPlan:
    """The product formula of ``op``'s strings in their canonical order,
    each tapered onto ``coset`` (default the whole register, where tapering
    leaves every string as it is). Raises ValueError if a coefficient is
    not real or the coset is not on ``op``'s register."""
    if (np.abs(op.im) > DROP_TOL).any():
        raise ValueError("Trotter plan requires hermitian (real) coefficients")
    if coset is None:
        coset = Coset.full(op.n_qubits)
    elif coset.n != op.n_qubits:
        raise ValueError("coset and Hamiltonian differ in size")
    return TrotterPlan(tuple(map(coset.taper, op.terms)), dt, n_steps, coset)


def trotter_step(state: StateVector, plan: TrotterPlan) -> StateVector:
    """One step of the plan on the state's amplitudes, in place, by the
    plan's list of bound NumPy calls. A copy moves them into a scratch
    buffer in the first layout run's order. A diagonal block multiplies
    them there. A block in the matvec form, of 4 to 16 terms, gathers them
    into the other buffer and multiplies each coset's vector by its matrix
    back into the first; the next block of a chain of such blocks gathers
    straight from those products, and the chain's last block scatters its
    products into the other buffer, which then holds the amplitudes. Any
    other block, of at most 2^``FUSE_SPAN`` terms, makes one pass per term
    into the other buffer, which then holds them, with the state's own
    array as the product scratch. Between runs a transposing copy moves
    them into the other buffer in the next run's order, and after the last
    run a copy moves them back into the state in qubit order.

    The matvec is NumPy's (..., K, K) @ (..., K, 1), one K x K product per
    coset, so each amplitude's rounding depends on M_c and its coset's
    vector only, not on the number of cosets: the tapered and the
    full-register step agree bit for bit where both take the same forms,
    which the module docstring states, and to round-off elsewhere."""
    if state.coset != plan.coset:
        raise ValueError("state and plan on different cosets")
    state.amps = np.ascontiguousarray(state.amps, dtype=complex)
    step = plan._step
    home = state.amps.reshape((2,) * plan.n_qubits)
    np.copyto(step.enter, home.transpose(step.axes))
    for op in step.ops:
        kind = type(op)
        if kind is _Matvec:
            op.src.take(op.table, out=op.gathered, mode="clip")  # all in range
            np.matmul(op.m, op.gathered, out=op.product)
            if op.dst is not None:
                op.dst[op.positions] = op.product
        elif kind is _Copy:
            np.copyto(op.dst, op.src)
        else:
            out, d, psi, rest = op
            if out is None:
                psi *= d
                continue
            np.multiply(d, psi, out=out)
            tmp = state.amps.reshape(out.shape)
            for d, psi in rest:
                np.multiply(d, psi, out=tmp)
                out += tmp
    np.copyto(home, step.leave)
    return state


def trotter_states(state0: StateVector, plan: TrotterPlan):
    """Yield (t, state) after every Trotter step, starting from (0, state0)."""
    state = state0.copy()
    yield 0.0, state
    for step in range(1, plan.n_steps + 1):
        trotter_step(state, plan)
        yield step * plan.dt, state


# -- exact evolution -----------------------------------------------------


class ExactEvolver:
    """e^{-iHt} on the span of sorted basis indices (all 2^n by default). A
    state is gathered from, and the result scattered to, the span's
    positions in the state's coset.

    H restricted to the span is an ``OperatorAction`` table. ``norm`` is its
    exact ||H||_inf, the largest sum of |coef| over a span position's rows,
    and equal to its 1-norm since H is hermitian. ``evolve`` cuts t into
    s = ceil(norm |t| / ``TAYLOR_STEP``) substeps tau (none at t = 0) and
    sums the Taylor series of e^{-iH tau} term by term, stopping once two
    consecutive terms are below 2^-53 of the partial sum in the infinity
    norm, Al-Mohy & Higham's stopping rule. It holds the table, the table's
    buffer and three span vectors; ``matvecs`` counts the actions of H.

    Raises ValueError if H maps the span out of itself, if the span leaves
    a state's coset, or if a state has weight outside the span.
    """

    def __init__(self, h: PauliOperator, basis: np.ndarray | None = None):
        self.n = h.n_qubits
        if self.n > MAX_QUBITS:
            raise ValueError(f"evolution limited to {MAX_QUBITS} qubits")
        self._action = OperatorAction(h, basis)
        # position i of the table holds row i of the restricted H
        self.norm = float(np.abs(self._action.coef).sum(axis=0).max(initial=0.0))
        self.matvecs = 0

    def substeps(self, t: float) -> int:
        return math.ceil(self.norm * abs(t) / TAYLOR_STEP)

    def kernel_summary(self, sample_dt: float) -> dict[str, float | int]:
        """The span's ||H||_inf, the substeps of one ``sample_dt`` and the
        actions of H so far."""
        return {"sector_norm": self.norm,
                "substeps_per_sample": self.substeps(sample_dt),
                "matvecs": self.matvecs}

    def _restrict(self, state: StateVector) -> tuple[np.ndarray, np.ndarray]:
        """(positions of the basis in the state's coset, the state's
        amplitudes there)."""
        if state.coset.n != self.n:
            raise ValueError("state size mismatch")
        pos = state.coset.positions(self._action.basis)
        amps = state.amps[pos]
        if state.norm ** 2 - np.vdot(amps, amps).real > 1e-12:
            raise ValueError("state has weight outside the evolution basis")
        return pos, amps

    def evolve(self, state: StateVector, t: float) -> StateVector:
        pos, amps = self._restrict(state)
        out = np.zeros_like(state.amps)
        out[pos] = self._propagate(amps, t)
        return StateVector(out, state.coset)

    def _propagate(self, total: np.ndarray, t: float) -> np.ndarray:
        """e^{-iHt} on span amplitudes, summed into ``total`` in place."""
        s = self.substeps(t)
        for _ in range(s):
            term = total.copy()
            prev = np.abs(term).max(initial=0.0)
            for k in range(1, TAYLOR_TERMS + 1):
                term = self._action(term)
                term *= -1j * t / (s * k)
                self.matvecs += 1
                size = np.abs(term).max(initial=0.0)
                total += term
                if prev + size <= 2.0 ** -53 * np.abs(total).max(initial=0.0):
                    break
                prev = size
            else:
                raise RuntimeError(f"Taylor series of e^(-iHt) not converged "
                                   f"after {TAYLOR_TERMS} terms")
        return total


# -- basis decoding, observables and configuration readout -----------------


def decode_basis(layout: RegisterLayout, mapping: FermionMapping,
                 theta_along, indices) -> tuple[np.ndarray, np.ndarray]:
    """Occupation table (len(indices), n_modes) of 0/1 and physical flux
    table (len(indices), n_links) in units of e, NaN where a link register
    holds no flux state of the window, for an array of basis indices."""
    n = layout.n_total
    idx = np.asarray(indices, dtype=np.int64)
    masks = mapping.occ
    occ = np.empty((len(idx), len(masks)), dtype=np.int8)
    for j, mask in enumerate(masks):
        occ[:, j] = np.bitwise_count(idx & _index_mask(mask, n)) & 1
    width = (1 << layout.qubits_per_link) - 1
    flux = np.empty((len(idx), len(layout.links)))
    for li, link in enumerate(layout.links):
        reg = (idx >> layout.register_shift(li)) & width
        flux[:, li] = (register_flux(layout.spin, layout.encoding, reg)
                       + theta_along(link.direction))
    return occ, flux


SITE_CHARS = {(0, 1): "o", (1, 1): "p", (0, 0): "a", (1, 0): "b"}


def basis_config_label(layout: RegisterLayout, mapping: FermionMapping,
                       theta_along, index):
    """Physical label of a computational basis state, e.g. 'pao|1;0;0';
    one string for an int index, an array of strings for an index array.

    Site letters: o vacuum, p particle, a antiparticle, b pair; the flux list
    is semicolon-separated (CSV-safe) in link order, x marking out-of-window
    link states.
    """
    occ, flux = decode_basis(layout, mapping, theta_along, np.atleast_1d(index))
    n_sp = layout.n_spinor
    letters = np.array([SITE_CHARS.get(bits, "{" + "".join(map(str, bits)) + "}")
                        for bits in itertools.product((0, 1), repeat=n_sp)])
    weights = 1 << np.arange(n_sp - 1, -1, -1)
    parts = [letters[occ[:, s * n_sp:(s + 1) * n_sp] @ weights]
             for s in range(layout.spec.n_sites)]
    parts.append("|")
    for li in range(flux.shape[1]):
        if li:
            parts.append(";")
        values, inverse = np.unique(flux[:, li], return_inverse=True)
        parts.append(np.array(_flux_names(values), dtype=str)[inverse])
    labels = functools.reduce(np.strings.add, parts)
    return labels if np.ndim(index) else str(labels[0])


def _flux_names(values: np.ndarray) -> list[str]:
    """The label text of each flux value: 'x' for NaN (no flux state), an
    integer without a decimal point, anything else in ``:g`` format to six
    significant digits or to the first decimal, whichever is more, so two
    flux states of a link, one unit or more apart, never share a text."""
    return ["x" if np.isnan(v) else str(int(round(v))) if abs(v - round(v)) < 1e-9
            else f"{v:.{max(6, len(str(int(abs(v)))) + 1)}g}" for v in values]


class ConfigKeys:
    """The lattice configurations of a coset's positions, decoded once per
    run: the one walk over the coset, whose tables every readout and the
    Gauss-law filter read.

    Two positions share a key exactly when their basis states share a
    ``basis_config_label``. The fermion bits fix the site letters, and the
    flux states of a link have distinct texts, so only the register values
    outside the flux window (no flux state, all read 'x') merge: each link
    register holding one is set to the smallest such value, and the keys
    number the resulting canonical indices in ascending order. ``key``
    holds the key of every position of ``coset`` (2^r entries), ``index``
    the canonical basis index of every key, a state of that configuration.
    Per position, ``physical`` is True where G_x = 0 at every site
    (``gauss_law`` within ``GAUSS_TOL``), and ``particles`` holds the
    particle number, per site sum n_upper - sum n_lower + n_spinor/2
    (gamma^0 = diag(+1 ... +1, -1 ... -1) in all supported representations).

    The coset is decoded in blocks of ``GAUSS_BLOCK`` positions, so memory
    stays at a few arrays of 2^r entries. Raises ValueError, before the
    coset's indices are built, if the register has more than
    ``MAX_QUBITS`` qubits or the coset is on another register.
    """

    def __init__(self, layout: RegisterLayout, mapping: FermionMapping, params,
                 coset: Coset):
        if layout.n_total > MAX_QUBITS:
            raise ValueError(f"configuration enumeration limited to {MAX_QUBITS} qubits")
        if coset.n != layout.n_total:
            raise ValueError("coset and register differ in size")
        self.coset = coset
        self.layout = layout
        self._decode = (mapping, params.theta_along)
        width = (1 << layout.qubits_per_link) - 1
        regs = np.arange(width + 1)
        off = np.isnan(register_flux(layout.spin, layout.encoding, regs))
        table = np.where(off, np.argmax(off), regs)  # register -> canonical
        shifts = [layout.register_shift(li) for li in range(len(layout.links))]
        half = layout.n_spinor // 2
        gamma0 = np.tile(np.repeat([1, -1], half), layout.spec.n_sites).astype(np.int8)
        constant = half * layout.spec.n_sites
        canonical = coset.index.copy()
        self.physical = np.empty(len(canonical), dtype=bool)
        # at most n_fermionic <= MAX_QUBITS particles
        self.particles = np.empty(len(canonical), dtype=np.int8)
        for start in range(0, len(canonical), GAUSS_BLOCK):
            block = canonical[start:start + GAUSS_BLOCK]
            occ, flux = decode_basis(layout, mapping, params.theta_along, block)
            rows = slice(start, start + len(block))
            self.physical[rows] = (np.abs(gauss_law(layout, occ, flux))
                                   <= GAUSS_TOL).all(axis=1)
            self.particles[rows] = occ @ gamma0 + constant
            for shift in shifts:
                reg = (block >> shift) & width
                block ^= (reg ^ table[reg]) << shift
        self.index, self.key = np.unique(canonical, return_inverse=True)

    def labels(self, keys: np.ndarray) -> list[str]:
        """``basis_config_label`` of each key's configuration."""
        return basis_config_label(self.layout, *self._decode,
                                  self.index[keys]).tolist()


def standard_observables(state: StateVector, configs: ConfigKeys,
                         probs: np.ndarray | None = None) -> dict[str, float]:
    """Expectations of the diagonal observables in a state, read from the
    tables of ``configs``: ``total_particle_number``. ``probs`` is
    ``state.probabilities()``, computed here if not given. Raises
    ValueError if the state and the tables are on different cosets."""
    if state.coset != configs.coset:
        raise ValueError("state and configuration keys on different cosets")
    if probs is None:
        probs = state.probabilities()
    return {"total_particle_number": float(probs @ configs.particles)}


def config_probabilities(state: StateVector, configs: ConfigKeys,
                         probs: np.ndarray | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """(keys, probabilities) of the configurations with probability above
    ``READOUT_TOL`` in a state, largest first, ties in the order of their
    first position. A configuration's probability sums its positions'
    probabilities in position order, starting from 0.0. ``probs`` is
    ``state.probabilities()``, computed here if not given."""
    if state.coset != configs.coset:
        raise ValueError("state and configuration keys on different cosets")
    if probs is None:
        probs = state.probabilities()
    support = np.flatnonzero(probs > READOUT_TOL)
    key = configs.key[support]
    total = np.bincount(key, weights=probs[support])
    keys, first = np.unique(key, return_index=True)
    p = total[keys]
    order = np.lexsort((first, -p))
    return keys[order], p[order]


# -- Gauss-law filtering ---------------------------------------------------


def gauss_law(layout: RegisterLayout, occ: np.ndarray, flux: np.ndarray
              ) -> np.ndarray:
    """G_x / e per decoded row and site: the site charge plus the incoming
    minus the outgoing flux (NaN where a link is outside its window)."""
    spec = layout.spec
    n_sp = layout.n_spinor
    g = np.empty((len(occ), spec.n_sites))
    for s, site in enumerate(spec.sites()):
        col = occ[:, s * n_sp:(s + 1) * n_sp].sum(axis=1) - n_sp / 2.0
        for link, sign in spec.gauss_fluxes(site):
            col = col + sign * (flux[:, layout.link_index(link)]
                                if isinstance(link, Link) else link)
        g[:, s] = col
    return g


def gauss_filter(configs: ConfigKeys) -> tuple[int, np.ndarray]:
    """(physical configuration count, sorted basis indices of the coset
    with G_x = 0), read from the ``physical`` table of ``configs``; keys
    on ``Coset.full`` give the whole G_x = 0 sector.

    A physical configuration has each link register in its flux window, one
    of d_S states under both encodings: 2^n_fermionic * d_S^n_links of them."""
    layout = configs.layout
    total = (1 << layout.n_fermionic) * check_spin(layout.spin) ** layout.spec.n_links
    return total, configs.coset.index[configs.physical]
