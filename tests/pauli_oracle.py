"""Dense-matrix and commutator oracles for the Pauli algebra (small
systems), the Pauli-string counts of the encoded spin operators, the
per-string Pauli-exponential kernel that the fused Trotter blocks of
``lgt.dynamics`` are checked against, the fused kernel in qubit order that
its layout runs and matvec chains replaced, a matvec-form block's
matrices built one coset at a time from the folded terms (the path that
the direct build of ``lgt.dynamics._matvec_table`` replaced), the cost
of every cut of a few strings, which ``lgt.dynamics._block_starts`` must
minimise, the
per-flip-group action of H that the gather table of
``lgt.dynamics.OperatorAction`` replaced, the observables decoded
from a state's support that the tables of ``lgt.dynamics.ConfigKeys``
replaced (with the charge and flux per site and link they also gave), the
energy on an exact-evolution span, the readout by label dictionaries that
the keyed readout of ``lgt.dynamics`` and ``lgt.cli`` replaced, the merge
of concatenated chunks that ``PauliSum``'s in-place scatter replaced (and
that its merge into a run must match), the register moves of
``PauliOperator.place`` on Python ints, the
plaquette term as a chain of operator products that the tensor products of
``lgt.hamiltonian.build_plaquette`` replaced, the scaled general
product that the tensor products of ``build_hopp_wilson`` replaced, the
one-hot S+ as a chain of operator sums that the tensor products of
``lgt.gauge.encode_lin`` replaced, the mass, hopping, electric and
Gauss terms built term by term (each bilinear the product of the ladder
operators, each merge per site) that the batched builds of
``lgt.hamiltonian`` replaced, and the
whole-array CNOT and gate counts that the row-block pass of
``lgt.circuits.step_gate_counts`` (which ``lgt.resources.cnot_per_trotter_step``
reads) replaced, with the support count of each string that the tests read.

Basis indices follow the map stated in ``lgt.lattice.RegisterLayout``.
"""

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lgt.dynamics import (
    FUSE_ENTRIES,
    FUSE_SPAN,
    LEAK_TOL,
    READOUT_TOL,
    Coset,
    StateVector,
    _block_starts,
    _fold,
    _matvec_table,
    _shift,
    basis_config_label,
    decode_basis,
)
from lgt.gauge import _one_hot_qubit, _sigma_pm, check_spin, encode_log, spin_matrices
from lgt.hamiltonian import (
    HamiltonianTerms,
    ModelParams,
    _encoded_links,
    build_plaquette,
)
from lgt.lattice import Link, RegisterLayout
from lgt.matter import FermionMapping, clifford_rep, fermion_mapping, gamma_mix
from lgt.pauli import (
    DROP_TOL,
    ORACLE_LIMIT,
    PauliOperator,
    PauliString,
    PauliSum,
    _I_POWERS_IM,
    _I_POWERS_RE,
    _cmul,
    _index_mask,
    _ints,
    _key_width,
    _masks,
    _n_words,
    _quiet,
    _sort_keys,
    index_masks,
)


def exp_factors(p: PauliString, theta: float):
    """(flip, cos theta, factor) applying exp(-i theta P) to the (2,)*n
    amplitude tensor, where qubit q is axis q; the coefficient is ignored.

    ``flip`` reverses the X/Y axes (None for a diagonal P). ``factor``
    broadcasts: length 2 on the Z/Y axes, 1 elsewhere. It is exp(-i theta
    signs) for a diagonal P and i sin(theta) i^|Y| signs, read at the
    flipped index, otherwise; signs is (-1)^parity over the Z/Y axes.
    """
    z_bits = [(p.z >> q) & 1 for q in range(p.n)]
    signs = functools.reduce(np.multiply.outer, [(1.0, -1.0)] * sum(z_bits),
                             np.ones(()))
    signs = signs.reshape([1 + b for b in z_bits])
    if p.x == 0:
        return None, 1.0, np.exp(-1j * theta * signs)
    flip = tuple(slice(None, None, -1) if (p.x >> q) & 1 else slice(None)
                 for q in range(p.n))
    ypow = index_masks(p)[2]
    return flip, math.cos(theta), (1j * math.sin(theta) * ypow) * signs[flip]


def apply_exp(psi: np.ndarray, flip, cos: float, factor: np.ndarray) -> None:
    """psi <- exp(-i theta P) psi in place, with the factors of
    ``exp_factors``: cos(theta) psi - i sin(theta) P psi, where
    (P psi)[k] = i^|Y| signs[k ^ flip] psi[k ^ flip]."""
    if flip is None:
        psi *= factor
        return
    moved = factor * psi[flip]
    psi *= cos
    psi -= moved


def apply_pauli_exp(state, p: PauliString, theta: float):
    """state <- exp(-i theta P_axes) state, in place; coefficient ignored."""
    if state.n_qubits != p.n:
        raise ValueError("state size mismatch")
    state.amps = np.ascontiguousarray(state.amps, dtype=complex)
    apply_exp(state.amps.reshape((2,) * p.n), *exp_factors(p, theta))
    return state


def trotter_step_reference(state, plan):
    """One step of a Trotter plan, one exponential per string in order."""
    for t in plan.strings:
        apply_pauli_exp(state, t, t.coeff.real * plan.dt)
    return state


def matvec_reference(terms: dict, r: int) -> tuple[np.ndarray, np.ndarray]:
    """(M, positions) of a block's terms {w: D_w} on the (2,)*r view in
    qubit order, one row per coset c + W of the span W of the shifts, c the
    member with W's pivot qubits clear (the lowest qubits of W's nonzero
    members): ``positions[c, a]`` is the flat index of c ^ w_a, w_a the
    shift of term a, and ``M[c, a, b]`` is D_{w_a ^ w_b} there."""
    shifts = list(terms)
    masks = [_index_mask(w, r) for w in shifts]
    pivots = _index_mask(sum({w & -w for w in shifts}), r)
    dense = {w: np.broadcast_to(d, (2,) * r).reshape(-1) for w, d in terms.items()}
    cosets = [c for c in range(1 << r) if not c & pivots]
    positions = np.array([[c ^ m for m in masks] for c in cosets])
    m = np.array([[[dense[wa ^ wb][c ^ ma] for wb in shifts]
                   for wa, ma in zip(shifts, masks)] for c in cosets])
    return m, positions


def position_blocks(plan) -> list[tuple]:
    """Each block of a Trotter plan on the (2,)*r view in qubit order: a
    span of at least 4 shifts whose position table of 2^r intp entries
    fits ``FUSE_ENTRIES`` complex entries is ("matvec", M, positions),
    the package's matrices (``lgt.dynamics._matvec_table``; the tests
    check them on their own against ``matvec_reference`` of the folded
    terms, so that this oracle checks layouts and chains bit for bit) with
    their positions in qubit order; any
    other block is ("passes", terms), a term (index, D_w) with psi[index]
    = psi[. ^ w], D_w broadcast against it."""
    r = plan.n_qubits
    fits = (1 << r) * np.dtype(np.intp).itemsize <= FUSE_ENTRIES * np.dtype(complex).itemsize
    starts = _block_starts(plan.strings, plan.n_steps)
    identity = {0: np.ones((1,) * r, dtype=complex)}
    blocks = []
    for i, j in zip(starts, starts[1:] + [len(plan.strings)]):
        terms = identity
        for p in plan.strings[i:j]:
            terms = _fold(terms, p, p.coeff.real * plan.dt)
        if fits and len(terms) >= 4:
            blocks.append(("matvec", *_matvec_table(plan.strings[i:j], plan.dt,
                                                    tuple(range(r)))))
        else:
            blocks.append(("passes", tuple((_shift(w, range(r)), d)
                                           for w, d in terms.items())))
    return blocks


def block_starts_reference(strings, n_steps: int, entries: int = FUSE_ENTRIES
                           ) -> dict[tuple[int, ...], int]:
    """Every cut of at most 10 strings into runs that the cut's rules allow,
    with its cost sum c (n_steps + L) over its runs of L strings: {block
    starts: cost}, found by trying all 2^(L - 1) cuts.

    A run's x-masks span K shifts W. Where K >= 4 and a table of 2^n intp
    positions fits ``entries`` complex entries, the run takes the matvec
    form: c = 2^FUSE_SPAN, K <= 16, and 2^dep K^2 <= ``entries``, where
    dep counts the Z/Y qubits of the run's strings tapered onto the coset
    of the span of all the x-masks, outside the pivots (the lowest qubits
    of the nonzero members) of W tapered alike. Any other run takes the
    pass form: c = K <= 2^FUSE_SPAN. The strings of a run of two or more
    act on at most log2(``entries``) Z/Y qubits together."""
    assert len(strings) <= 10
    if not strings:
        return {(): 0}
    n = strings[0].n
    fits = (1 << n) * np.dtype(np.intp).itemsize <= entries * np.dtype(complex).itemsize
    coset = Coset.reachable(PauliOperator.from_terms(
        n, [PauliString(n, p.x, 0, 1.0) for p in strings]), 0)
    tapered = [coset.taper(p) for p in strings]

    def span(run) -> set[int]:
        shifts = {0}
        for p in run:
            shifts |= {w ^ p.x for w in shifts}
        return shifts

    @functools.cache
    def price(i: int, j: int) -> int | None:
        size = len(span(strings[i:j]))
        z = functools.reduce(int.__or__, (p.z for p in strings[i:j]))
        if j - i > 1 and 1 << z.bit_count() > entries:
            return None
        if fits and size >= 4:
            pivots = sum({w & -w for w in span(tapered[i:j])})
            dep = functools.reduce(int.__or__, (p.z for p in tapered[i:j])) & ~pivots
            matrices = (1 << dep.bit_count()) * size * size
            return 1 << FUSE_SPAN if size <= 16 and matrices <= entries else None
        return size if size <= 1 << FUSE_SPAN else None

    costs = {}
    for cuts in range(1 << len(strings) - 1):
        starts = (0,) + tuple(i for i in range(1, len(strings)) if cuts >> i - 1 & 1)
        prices = [(price(i, j), j - i) for i, j in zip(starts, starts[1:] + (len(strings),))]
        if all(c is not None for c, _ in prices):
            costs[starts] = sum(c * (n_steps + length) for c, length in prices)
    return costs


def fused_step_reference(state, plan):
    """One step of a Trotter plan by the fused kernel in qubit order, with
    no layout runs: a diagonal block multiplies the amplitudes; a block of
    the matvec form gathers each coset's amplitudes, multiplies them by
    its matrix, (C, 1, K, K) @ (C, F, K, 1), and scatters the products
    into a second buffer, block by block; any other block makes one pass
    per term into a second buffer; the two buffers then swap roles."""
    if state.coset != plan.coset:
        raise ValueError("state and plan on different cosets")
    state.amps = np.ascontiguousarray(state.amps, dtype=complex)
    psi = home = state.amps.reshape((2,) * plan.n_qubits)
    out, tmp = np.empty_like(psi), np.empty_like(psi)
    for form, *block in position_blocks(plan):
        if form == "matvec":
            m, positions = block
            product = m @ psi.reshape(-1)[positions]
            out.reshape(-1)[positions] = product
            psi, out = out, psi
            continue
        (index, d), *rest = block[0]
        if not rest:
            psi *= d
            continue
        np.multiply(d, psi[index], out=out)
        for index, d in rest:
            np.multiply(d, psi[index], out=tmp)
            out += tmp
        psi, out = out, psi
    if psi is not home:
        home[...] = psi
    return state


def commutator(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    return a * b - b * a


def is_hermitian(op: PauliOperator) -> bool:
    return bool((np.abs(op.im) < DROP_TOL).all())


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


def action_matrix(action) -> np.ndarray:
    """Dense matrix of an ``lgt.dynamics.OperatorAction`` on its span, read
    from its table the way ``__call__`` applies it: row i gathers
    coef[g, i] * amps[src[g, i]] from every row g."""
    dim = len(action.basis)
    m = np.zeros((dim, dim), dtype=complex)
    rows = np.broadcast_to(np.arange(dim), action.src.shape)
    np.add.at(m, (rows, action.src), action.coef)
    return m


class GroupedAction:
    """H|psi> on the span of sorted basis indices (all 2^n by default), one
    flip group at a time: the action that ``lgt.dynamics.OperatorAction``'s
    gather table replaced, kept as its reference. ``groups`` holds (src,
    diag) per index-flip mask in ascending order, the diagonal group always
    first with src None; diag[j] is <basis[j] ^ xm| H |basis[j]> and src[i]
    the position of basis[i] ^ xm. Raises ValueError if H maps a state of
    the span out of it."""

    def __init__(self, op: PauliOperator, basis: np.ndarray | None = None):
        self.n = op.n_qubits
        self.basis = np.asarray(np.arange(1 << self.n) if basis is None
                                else basis, dtype=np.int64)
        dim = len(self.basis)
        diags: dict[int, np.ndarray] = {0: np.zeros(dim, dtype=complex)}
        for t in op.terms:
            xm, zm, ypow = index_masks(t)
            diag = diags.get(xm)
            if diag is None:
                diag = diags[xm] = np.zeros(dim, dtype=complex)
            diag += (t.coeff * ypow) * np.where(
                np.bitwise_count(self.basis & zm) & 1, -1.0, 1.0)
        leak_tol = LEAK_TOL * max(1.0, sum(abs(t.coeff) for t in op.terms))
        self.groups: list[tuple[np.ndarray | None, np.ndarray]] = []
        for xm, diag in sorted(diags.items()):
            src = None
            if xm:
                target = self.basis ^ xm
                pos = np.minimum(np.searchsorted(self.basis, target), dim - 1)
                outside = self.basis[pos] != target
                if np.abs(diag[outside]).max(initial=0.0) > leak_tol:
                    raise ValueError("operator maps the basis span out of itself")
                diag[outside] = 0.0
                src = np.where(outside, np.arange(dim), pos)
            self.groups.append((src, diag))

    def __call__(self, amps: np.ndarray) -> np.ndarray:
        out = np.zeros_like(amps)
        for src, diag in self.groups:
            tmp = diag * amps
            out += tmp if src is None else tmp[src]
        return out


@dataclass(frozen=True)
class SpinPauliCounts:
    sx: int
    sy: int
    sz: int
    splus: int


def spin_pauli_counts(spin: float, encoding: str) -> SpinPauliCounts:
    """Exact Pauli-string counts of the encoded spin operators."""
    d_s = check_spin(spin)
    if encoding == "linear":
        n_xy = 2 * d_s - 2
        n_z = d_s if d_s % 2 == 0 else d_s - 1
        return SpinPauliCounts(n_xy, n_xy, n_z, 4 * (d_s - 1))
    if encoding != "log":
        raise ValueError(f"unsupported encoding {encoding!r}")
    if d_s > 1 << 10:
        raise ValueError("logarithmic count enumeration limited to d_S <= 1024")
    mats = spin_matrices(spin)
    sx_enc = encode_log(spin, mats.sx)
    sy_enc = encode_log(spin, mats.sy)
    return SpinPauliCounts(
        sx_enc.n_terms,
        sy_enc.n_terms,
        encode_log(spin, mats.sz).n_terms,
        (sx_enc + 1j * sy_enc).n_terms,
    )


def one_hot_splus_reference(spin: float) -> PauliOperator:
    """One-hot S+ as a chain: each ladder step's sigma+ sigma- product
    merged on its own, scaled, and added to the whole growing sum."""
    d_s = check_spin(spin)
    n = d_s
    splus = PauliOperator.zero(n)
    two_s = d_s - 1
    for step in range(two_s):
        m = -spin + step
        amp = math.sqrt(spin * (spin + 1) - m * (m + 1))
        q_from = _one_hot_qubit(spin, m)
        moved = _sigma_pm(n, q_from + 1, "+") * _sigma_pm(n, q_from, "-")
        splus = splus + amp * moved
    return splus


def _phase_exponent(x1: int, z1: int, x2: int, z2: int) -> int:
    """Exponent k (mod 4) such that P(x1,z1) P(x2,z2) = i^k P(x1^x2, z1^z2)."""
    k = (x1 & z1).bit_count() + (x2 & z2).bit_count()
    k -= ((x1 ^ x2) & (z1 ^ z2)).bit_count()
    k += 2 * (z1 & x2).bit_count()
    return k % 4


def product_reference(a: PauliOperator, b: PauliOperator) -> dict:
    """(x, z) -> coefficient of a * b, one string pair at a time in Python
    complex arithmetic, duplicates summed in order from 0.0, coefficients
    below DROP_TOL dropped."""
    data = {}
    for ta in a.terms:
        for tb in b.terms:
            k = _phase_exponent(ta.x, ta.z, tb.x, tb.z)
            key = (ta.x ^ tb.x, ta.z ^ tb.z)
            data[key] = data.get(key, 0.0) + ta.coeff * tb.coeff * (1, 1j, -1, -1j)[k]
    return {key: c for key, c in data.items() if not abs(c) < DROP_TOL}


def popcount_reference(words: np.ndarray) -> np.ndarray:
    """Set bits per mask, summed over the last (word) axis."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def supports_reference(op: PauliOperator) -> np.ndarray:
    """Number of non-identity axes of each term, from the whole x | z
    array."""
    return popcount_reference(op.x | op.z)


def cnot_per_trotter_step_reference(op: PauliOperator) -> int:
    """2 sum_P (support(P) - 1); identity strings cost nothing."""
    supports = supports_reference(op)
    return 2 * int((supports[supports > 0] - 1).sum())


def step_gate_counts_reference(op: PauliOperator) -> dict[str, int]:
    """Gates of each name in the written Trotter step, names with no gate
    left out, each count over the whole mask arrays."""
    n_y = int(np.bitwise_count(op.x & op.z).sum())
    counts = {"h": 2 * int(np.bitwise_count(op.x).sum()), "s": n_y, "sdg": n_y,
              "cx": cnot_per_trotter_step_reference(op),
              "rz": int(np.count_nonzero(supports_reference(op)))}
    return {name: c for name, c in counts.items() if c}


def add_product_reference(acc: PauliSum, a: PauliOperator, b: PauliOperator,
                          scale: complex = 1.0) -> None:
    """Add scale * a * b to ``acc``, a-term by a-term, b-term by b-term, the
    scale applied to a first: the general product each hopping term was
    added with before it became a tensor product."""
    if not a.n_qubits == b.n_qubits == acc.n:
        raise ValueError("qubit-count mismatch in operator product")
    w = _n_words(acc.n)
    bm, bx, bz = b.masks, b.x, b.z
    masks = a.masks[:, None] ^ bm
    k = (popcount_reference(a.x & a.z)[:, None] + popcount_reference(bx & bz)
         - popcount_reference(masks[..., :w] & masks[..., w:])
         + 2 * popcount_reference(a.z[:, None] & bx)) & 3
    with _quiet():
        ar, ai = a.re, a.im
        if scale != 1:
            scale = complex(scale)
            ar, ai = _cmul(scale.real, scale.imag, ar, ai)
        re, im = _cmul(*_cmul(ar[:, None], ai[:, None], b.re, b.im),
                       _I_POWERS_RE[k], _I_POWERS_IM[k])
    acc.add_rows(masks.reshape(-1, 2 * w),
                 np.stack([re.ravel(), im.ravel()], axis=1))


def merge_reference(n: int, chunks) -> tuple[np.ndarray, np.ndarray]:
    """The (masks, coeffs) chunks, in insertion order, merged as
    ``PauliSum`` merged them before its chunks were scattered in place:
    concatenated, stably sorted into canonical order, and the coefficients
    of each string summed in insertion order starting from 0.0, nothing
    dropped."""
    masks, coeffs = (np.concatenate(a) for a in zip(*chunks))
    if len(masks) > 1:
        keys = np.empty((len(masks), _key_width(n)), dtype=">u2")
        _sort_keys(masks, keys)
        order = np.argsort(keys.view(f"S{2 * keys.shape[1]}").ravel(), kind="stable")
        masks, coeffs = masks[order], coeffs[order]
    first = np.ones(len(masks), dtype=bool)
    first[1:] = (masks[1:] != masks[:-1]).any(axis=1)
    if first.all():
        return masks, coeffs + 0.0  # as 0.0 + c: a -0.0 part becomes 0.0
    group = np.cumsum(first) - 1
    sums = np.zeros((group[-1] + 1, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(sums, group, coeffs)  # row by row, in order
    return masks[first], sums


def place_reference(op: PauliOperator, n: int, offsets) -> PauliOperator:
    """``op.place(n, offsets)`` with each register's bits moved as Python
    ints, the coefficients as they are."""
    width = op.n_qubits // len(offsets)

    def moved(mask: int) -> int:
        return sum((mask >> (i * width) & (1 << width) - 1) << offset
                   for i, offset in enumerate(offsets))

    return PauliOperator(n, _masks([moved(x) for x in _ints(op.x)],
                                   [moved(z) for z in _ints(op.z)], _n_words(n)),
                         op.coeffs)


def build_plaquette_reference(layout: RegisterLayout, params: ModelParams) -> PauliOperator:
    """The plaquette term as the chained product identity * U1 * U2 * U3^dag
    * U4^dag per plaquette, each partial product merged and sorted, each U
    placed by ``place_reference``."""
    spec = layout.spec
    if spec.d < 2:
        return PauliOperator.zero(layout.n_total)
    links = _encoded_links(layout, params)
    acc = PauliSum(layout.n_total)
    n = layout.n_total

    for edges in spec.plaquettes():
        prod = PauliOperator.identity(n)
        for link, dagger in edges:
            enc = links[link]
            op = enc.u_dag if dagger else enc.u
            prod = prod * place_reference(op, n, [layout.gauge_offset(link)])
        acc.add_operator(prod.scale(-1.0 / (4.0 * params.e ** 2)))
    acc.hermitize()
    return acc.to_operator()


# -- the Hamiltonian terms built term by term -------------------------------


def raising_reference(mapping: FermionMapping, j: int) -> PauliOperator:
    """The encoded creation operator a_j^dag = X_F (I + Z_D)/2 Z_S as the
    product of its X and Z parts (two Pauli strings)."""
    if not 0 <= j < mapping.n_modes:
        raise ValueError(f"mode {j} out of range for N={mapping.n_modes}")
    n = mapping.n_modes
    xf = PauliOperator.from_terms(n, [PauliString(n, mapping.flip[j], 0, 0.5)])
    # (I + Z_D) Z_S = Z_S + Z_(D xor S): Z strings multiply without phase
    zs = PauliOperator.from_terms(n, [
        PauliString(n, 0, mapping.prefix[j], 1.0),
        PauliString(n, 0, mapping.occ[j] ^ mapping.prefix[j], 1.0)])
    return xf * zs


def lowering_reference(mapping: FermionMapping, j: int) -> PauliOperator:
    return raising_reference(mapping, j).dagger()


def number_reference(mapping: FermionMapping, j: int) -> PauliOperator:
    """a_j^dag a_j = (I - Z_occ)/2."""
    n = mapping.n_modes
    return PauliOperator.from_terms(n, [PauliString(n, 0, 0, 0.5),
                                        PauliString(n, 0, mapping.occ[j], -0.5)])


def bilinear_reference(mapping: FermionMapping, i: int, j: int,
                       c: complex = 1.0) -> PauliOperator:
    """c . a_i^dag a_j as the scaled product of the ladder operators, or
    of the number operator for i = j: the form every bilinear took before
    ``FermionMapping.bilinears`` built them from the masks."""
    if i == j:
        return c * number_reference(mapping, i)
    return c * (raising_reference(mapping, i) * lowering_reference(mapping, j))


def build_mass_reference(layout: RegisterLayout, params: ModelParams,
                         mapping: FermionMapping) -> PauliOperator:
    """The mass term, one bilinear operator added per (site, alpha, beta)."""
    rep = clifford_rep(layout.spec.d)
    coeff = params.m + params.r * layout.spec.d
    acc = PauliSum(layout.n_total)
    g0 = rep.gammas[0]
    for site in layout.spec.sites():
        for alpha in range(layout.n_spinor):
            for beta in range(layout.n_spinor):
                if g0[alpha, beta] == 0:
                    continue
                i = layout.fermionic_mode(site, alpha)
                j = layout.fermionic_mode(site, beta)
                acc.add_operator(bilinear_reference(mapping, i, j, coeff * g0[alpha, beta])
                                 .embed(layout.n_total))
    return acc.to_operator()


def build_hopp_wilson_reference(layout: RegisterLayout, params: ModelParams,
                                mapping: FermionMapping) -> PauliOperator:
    """The hopping term, one tensor product of a scaled bilinear and the
    link's embedded U per (link, alpha, beta), hermitized together."""
    rep = clifford_rep(layout.spec.d)
    acc = PauliSum(layout.n_total)
    for link, enc in _encoded_links(layout, params).items():
        head = layout.spec.neighbor(link.site, link.direction)
        gmix = gamma_mix(rep, link.direction + 1, params.r)
        u = enc.u.embed(layout.n_total, layout.gauge_offset(link))
        for alpha in range(layout.n_spinor):
            for beta in range(layout.n_spinor):
                if gmix[alpha, beta] == 0:
                    continue
                i = layout.fermionic_mode(link.site, alpha)
                j = layout.fermionic_mode(head, beta)
                ferm = bilinear_reference(mapping, i, j).embed(layout.n_total)
                acc.add_tensor_product([ferm.scale(0.5 * gmix[alpha, beta]), u])
    acc.hermitize()
    return acc.to_operator()


def build_electric_reference(layout: RegisterLayout, params: ModelParams) -> PauliOperator:
    """The electric term, each link's embedded, scaled E^2 added in turn."""
    acc = PauliSum(layout.n_total)
    half_e2 = params.e ** 2 / 2.0
    for link, enc in _encoded_links(layout, params).items():
        acc.add_operator(enc.e_sq.embed(layout.n_total, layout.gauge_offset(link))
                         .scale(half_e2))
    for sl in layout.spec.static_links:
        acc.add_string(0, 0, half_e2 * sl.flux ** 2)
    return acc.to_operator()


def site_psidagpsi_reference(layout: RegisterLayout, mapping: FermionMapping,
                             site) -> PauliOperator:
    """Total occupation of a site's spinor components, merged."""
    n = layout.n_total
    acc = PauliSum(n)
    for alpha in range(layout.n_spinor):
        acc.add_operator(number_reference(mapping, layout.fermionic_mode(site, alpha))
                         .embed(n))
    return acc.to_operator()


def build_gauss_reference(layout: RegisterLayout, params: ModelParams,
                          mapping: FermionMapping):
    """G_x merged site by site, and sum_x G_x^2 from each G_x * G_x."""
    spec = layout.spec
    links = _encoded_links(layout, params)
    n = layout.n_total
    e = params.e
    g_ops = []
    for site in spec.sites():
        acc = PauliSum(n)
        for link, sign in spec.gauss_fluxes(site):
            if isinstance(link, Link):
                acc.add_operator(links[link].e_op.embed(n, layout.gauge_offset(link))
                                 .scale(sign * e))
            else:
                acc.add_string(0, 0, sign * e * link)
        acc.add_operator(site_psidagpsi_reference(layout, mapping, site).scale(e))
        acc.add_string(0, 0, -e * layout.n_spinor / 2.0)
        g_ops.append(acc.to_operator())
    total = PauliSum(n)
    for g in g_ops:
        total.add_operator(g * g)
    return tuple(g_ops), total.to_operator()


def assemble_reference(layout: RegisterLayout, params: ModelParams,
                       mapping_name: str = "jw") -> HamiltonianTerms:
    """``assemble`` with the mass, hopping, electric and Gauss terms built
    term by term as above (the plaquettes as ``build_plaquette`` builds
    them)."""
    mapping = fermion_mapping(mapping_name, layout.n_fermionic)
    mass = build_mass_reference(layout, params, mapping)
    hopp = build_hopp_wilson_reference(layout, params, mapping)
    elec = build_electric_reference(layout, params)
    plaq = build_plaquette(layout, params)
    g_ops, gauss = build_gauss_reference(layout, params, mapping)
    acc = PauliSum(layout.n_total)
    for op in (mass, hopp, elec, plaq):
        acc.add_operator(op)
    if params.lam:
        acc.add_operator(gauss.scale(params.lam))
    return HamiltonianTerms(mass, hopp, elec, plaq, gauss, g_ops, acc.to_operator())


# -- readout by decoding the support, and the energy on an exact span -------


def standard_observables_reference(state: StateVector, layout: RegisterLayout,
                                   mapping: FermionMapping, params,
                                   probs: np.ndarray | None = None
                                   ) -> dict[str, float]:
    """Expectations of the diagonal observables in a state, read from its
    nonzero amplitudes: ``total_particle_number``, then ``charge_site{s}``
    per site and ``flux_link{l}`` per link (a link state outside the flux
    window counts as zero flux). ``probs`` is ``state.probabilities()``,
    computed here if not given."""
    if probs is None:
        probs = state.probabilities()
    support = np.flatnonzero(probs > 0)
    p = probs[support]
    occ, flux = decode_basis(layout, mapping, params.theta_along,
                             state.coset.index[support])
    # particle number and charge are linear in the occupations: reduce the
    # support once to <n> per (site, spinor component); constants scale <1>
    norm = p.sum()
    n_sp = layout.n_spinor
    half = n_sp // 2
    n_mode = (p @ occ).reshape(layout.spec.n_sites, n_sp)
    # gamma^0 = diag(+1 ... +1, -1 ... -1) in all supported representations
    nbar = n_mode[:, :half].sum(axis=1) - n_mode[:, half:].sum(axis=1) + half * norm
    charge = params.e * (n_mode.sum(axis=1) - n_sp / 2.0 * norm)
    out = {"total_particle_number": float(nbar.sum())}
    out.update((f"charge_site{s}", v) for s, v in enumerate(charge.tolist()))
    out.update((f"flux_link{li}", v) for li, v
               in enumerate((p @ np.nan_to_num(flux * params.e)).tolist()))
    return out


def span_energy(evolver, state: StateVector) -> float:
    """<psi|H|psi> on the span of an ``ExactEvolver``; ValueError if the
    state has weight outside the span."""
    amps = evolver._restrict(state)[1]
    return float(np.vdot(amps, evolver._action(amps)).real)


# -- readout by label dictionaries ------------------------------------------


def _format(x: float) -> str:
    return f"{x:.12g}"


def config_probabilities(state: StateVector, layout: RegisterLayout,
                         mapping: FermionMapping, params) -> dict[str, float]:
    """Probabilities above ``READOUT_TOL`` grouped by lattice configuration
    label, largest first."""
    probs = state.probabilities()
    support = np.flatnonzero(probs > READOUT_TOL)
    labels = basis_config_label(layout, mapping, params.theta_along,
                                state.coset.index[support])
    out: dict[str, float] = {}
    for label, p in zip(labels.tolist(), probs[support].tolist()):
        out[label] = out.get(label, 0.0) + p
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def write_curve(path: Path, rows, label_columns):
    lines = ["t,loschmidt,total_particle_number"
             + "".join(f",p[{label}]" for label in label_columns) + ",p[other]"]
    for t, g, n_part, probs in rows:
        listed = sum(probs.get(label, 0.0) for label in label_columns)
        other = max(0.0, sum(probs.values()) - listed)
        cells = [_format(t), _format(g), _format(n_part)]
        cells += [_format(probs.get(label, 0.0)) for label in label_columns]
        cells.append(_format(other))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def label_columns(curves, n_columns: int = 12) -> list[str]:
    """The configurations of highest peak probability across all curves.
    Peaks that differ from their neighbour in the ranking by at most
    ``READOUT_TOL`` form one tier, ordered by label, so round-off between
    exact solvers or fermion mappings cannot reorder a block of
    symmetry-degenerate configurations or move the cut through it."""
    peak: dict[str, float] = {}
    for rows in curves:
        for *_, probs in rows:
            for label, p in probs.items():
                peak[label] = max(peak.get(label, 0.0), p)
    ranked = sorted(peak.items(), key=lambda kv: -kv[1])
    tier, prev, keyed = 0, math.inf, []
    for label, p in ranked:
        if prev - p > READOUT_TOL:
            tier += 1
        keyed.append((tier, label))
        prev = p
    return [label for _, label in sorted(keyed)[:n_columns]]
