"""Lattice-QED Hamiltonian terms as Pauli operators over the full register.

Couplings are in lattice units (spacing a = 1). Conventions fixed here (and
exercised by the counting tests):

* hopping/Wilson: (1/2) sum_links psi-bar_x [i gamma^k + r] U_(x,k) psi_{x+k}
  + h.c., with the spinor structure gamma_mix = gamma^0 (i gamma^k + r), each
  term the tensor product of (gamma_mix / 2) a_i^dag a_j and the link's U;
* mass: (m + r d) sum_sites psi-bar psi;
* electric: (e^2/2) sum_links (Sz + theta_k)^2, static boundary links enter
  as classical constants;
* plaquette: -(1/4 e^2) sum_plaq (U1 U2 U3^dag U4^dag + h.c.), each loop
  the tensor product over its four distinct link registers; on a periodic
  axis of extent 1 the loop meets a link twice, and that link's two edges
  are multiplied first, in loop order;
* Gauss: G_x = e [ sum_k (flux_in - flux_out) + (psidag psi - n_spinor/2) ],
  so the half-filled bare vacuum is annihilated; H_gauss = sum_x G_x^2.
  psidag psi is the sum of the mapping's number operators, which is the
  occupation under jw, parity and bk alike (under parity and bk a mode's
  occupation is the parity of several qubits, not one qubit's Z).

Identity-axes strings are kept in the assembled total (the resource counts
are calibrated that way).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from lgt.gauge import EncodedLink, qlm_link
from lgt.lattice import Link, RegisterLayout
from lgt.matter import FermionMapping, clifford_rep, fermion_mapping, gamma_mix
from lgt.pauli import PauliOperator, PauliSum


@dataclass(frozen=True)
class ModelParams:
    m: float
    r: float = 1.0
    e: float = 1.0
    theta: tuple[float, ...] = ()
    lam: float = 0.0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("Gauss penalty weight must be >= 0")

    def theta_along(self, k: int) -> float:
        return self.theta[k] if k < len(self.theta) else 0.0


def default_lambda(params: ModelParams) -> float:
    """Default Gauss penalty: well above the physical scales."""
    return 10.0 * max(params.m, params.e ** 2 / 2.0)


@dataclass(frozen=True)
class HamiltonianTerms:
    mass: PauliOperator
    hopp_wilson: PauliOperator
    elec: PauliOperator
    plaq: PauliOperator
    gauss: PauliOperator
    gauss_ops: tuple[PauliOperator, ...]
    total: PauliOperator

    @property
    def n_terms(self) -> int:
        return self.total.n_terms


def _encoded_links(layout: RegisterLayout, params: ModelParams) -> dict[Link, EncodedLink]:
    return {
        link: qlm_link(layout.spin, layout.encoding, params.theta_along(link.direction))
        for link in layout.links
    }


def build_mass(layout: RegisterLayout, params: ModelParams,
               mapping: FermionMapping) -> PauliOperator:
    """(m + r d) sum_x psi-bar psi: the bilinears of every (site, alpha,
    beta) with gamma^0_(alpha beta) != 0, site-major, built in one pass."""
    g0 = clifford_rep(layout.spec.d).gammas[0]
    ns = layout.n_spinor
    site, alpha, beta = np.nonzero(np.broadcast_to(g0 != 0, (layout.spec.n_sites, ns, ns)))
    c = (params.m + params.r * layout.spec.d) * g0[alpha, beta]
    masks, coeffs = mapping.bilinears(site * ns + alpha, site * ns + beta, c, layout.n_total)
    acc = PauliSum(layout.n_total)
    acc.add_rows(masks.reshape(-1, masks.shape[-1]), coeffs.reshape(-1, 2))
    return acc.to_operator()


def build_hopp_wilson(layout: RegisterLayout, params: ModelParams,
                      mapping: FermionMapping) -> PauliOperator:
    """The tensor products of (gamma_mix / 2) a_i^dag a_j and the link's
    U for every (link, alpha, beta) with gamma_mix != 0, link-major, in
    one batch (U does not depend on theta), hermitized."""
    spec, n, ns = layout.spec, layout.n_total, layout.n_spinor
    k, tail, head = np.array([(link.direction, spec.site_index(link.site),
                               spec.site_index(spec.neighbor(link.site, link.direction)))
                              for link in layout.links], dtype=np.intp).reshape(-1, 3).T
    gmix = np.stack([gamma_mix(clifford_rep(spec.d), kk + 1, params.r) for kk in range(spec.d)])
    li, alpha, beta = np.nonzero(gmix[k] != 0)
    ferm = mapping.bilinears(tail[li] * ns + alpha, head[li] * ns + beta,
                             0.5 * gmix[k[li], alpha, beta], n)
    u = qlm_link(layout.spin, layout.encoding, params.theta_along(0)).u  # one cache entry
    placed = u.placements(n, [[layout.gauge_offset(link)] for link in layout.links])[li]
    acc = PauliSum(n)
    u_coeffs = np.broadcast_to(u.coeffs, (len(li), *u.coeffs.shape))
    acc.add_tensor_products([ferm, (placed, u_coeffs)])
    acc.hermitize()
    return acc.to_operator()


def _link_rows(layout: RegisterLayout, links: dict[Link, EncodedLink],
               operator) -> tuple[list, list, dict[Link, tuple[int, int]]]:
    """Each link's ``operator(EncodedLink)`` placed at its register, one
    placement per theta: mask and coefficient chunks, and each link's
    first row and row count in them."""
    at, masks, coeffs = {}, [], []
    for enc in dict.fromkeys(links.values()):
        op = operator(enc)
        own = [link for link, other in links.items() if other is enc]
        placed = op.placements(layout.n_total, [[layout.gauge_offset(link)] for link in own])
        lo, r = sum(map(len, coeffs)), op.n_terms
        at.update((link, (lo + p * r, r)) for p, link in enumerate(own))
        masks.append(placed.reshape(-1, placed.shape[-1]))
        coeffs.append(np.tile(op.coeffs, (len(own), 1)))
    return masks, coeffs, at


def build_electric(layout: RegisterLayout, params: ModelParams) -> PauliOperator:
    acc = PauliSum(layout.n_total)
    half_e2 = params.e ** 2 / 2.0
    masks, coeffs, at = _link_rows(layout, _encoded_links(layout, params),
                                   lambda enc: enc.e_sq.scale(half_e2))
    if at:
        take = [row for link in layout.links for row in range(at[link][0], sum(at[link]))]
        acc.add_rows(np.concatenate(masks)[take], np.concatenate(coeffs)[take])
    for sl in layout.spec.static_links:
        acc.add_string(0, 0, half_e2 * sl.flux ** 2)
    return acc.to_operator()


def build_plaquette(layout: RegisterLayout, params: ModelParams) -> PauliOperator:
    """-(1/4 e^2) sum_plaq (U1 U2 U3^dag U4^dag + h.c.) (every edge is
    dynamical, as a static link has only one end on the lattice).

    Plaquettes of one shape share one hermitian loop operator: built once
    by ``_loop_operator`` on a local register of the loop's distinct links,
    then added to each plaquette by ``PauliOperator.place``, which moves
    each local link register to that link's offset. A shape is the loop's
    edges as (local link, direction, dagger); on an open lattice all
    plaquettes of a plane share one. The sum equals, bit for bit, that of
    the loops' tensor products on the full register hermitized together:
    doubling is exact, so 0 + sum_p 2 Re_p = 2 (0 + sum_p Re_p)."""
    spec = layout.spec
    if spec.d < 2:
        return PauliOperator.zero(layout.n_total)
    links = _encoded_links(layout, params)
    n = layout.n_total
    acc = PauliSum(n)
    loops: dict[tuple, PauliOperator] = {}
    for edges in spec.plaquettes():
        distinct = sorted({link for link, _ in edges}, key=layout.link_index)
        shape = tuple((distinct.index(link), link.direction, dagger) for link, dagger in edges)
        if shape not in loops:
            loops[shape] = _loop_operator(edges, distinct, links, layout.qubits_per_link,
                                          params)
        acc.add_operator(loops[shape].place(n, [layout.gauge_offset(link)
                                                for link in distinct]))
    return acc.to_operator()


def _loop_operator(edges, distinct: list[Link], links: dict[Link, EncodedLink],
                   width: int, params: ModelParams) -> PauliOperator:
    """One plaquette's -(1/4 e^2)(U1 U2 U3^dag U4^dag + h.c.), hermitized
    with nothing dropped, on a register of its ``distinct`` links side by
    side, ``width`` qubits each.

    The loop is one tensor product over its links. The four edges sit on
    four distinct links except on a periodic axis of extent 1, where the
    loop meets a link twice: that link's edges are multiplied in loop
    order, and the tensor product runs over the distinct links in order of
    first appearance."""
    per_link: dict[Link, list[PauliOperator]] = {}
    for link, dagger in edges:
        enc = links[link]
        per_link.setdefault(link, []).append(enc.u_dag if dagger else enc.u)
    n = len(distinct) * width
    acc = PauliSum(n)
    acc.add_tensor_product([functools.reduce(operator.mul, ops)
                            .embed(n, distinct.index(link) * width)
                            for link, ops in per_link.items()],
                           scale=-1.0 / (4.0 * params.e ** 2))
    return acc.hermitize()


def build_gauss(layout: RegisterLayout, params: ModelParams,
                mapping: FermionMapping,
                ) -> tuple[tuple[PauliOperator, ...], PauliOperator]:
    """Per-site Gauss operators G_x and the regulator sum_x G_x^2.

    The charge is built from the mapping's number operators a^dag a, so
    G_x vanishes on the same physical states under jw, parity and bk.
    Each site's rows are taken, in the order of its terms, from one table
    (each link's e E, each mode's -e Z_D/2, the identity); one grouped merge
    gives every G_x, one more every G_x^2 from its rows' products."""
    spec, n, e, ns = layout.spec, layout.n_total, params.e, layout.n_spinor
    masks, coeffs, at = _link_rows(layout, _encoded_links(layout, params),
                                   lambda enc: enc.e_op.scale(e))
    modes = np.arange(layout.n_fermionic)
    number = mapping.bilinears(modes, modes, np.full(len(modes), e), n)
    z0 = sum(map(len, coeffs))
    one = z0 + len(modes)
    masks += [number[0][:, 1], np.zeros_like(number[0][:1, 1])]
    coeffs += [number[1][:, 1], np.array([[1.0, 0.0]])]
    # each row a table row times a real factor: +-1, or the identity's value
    take, factor, owner = [], [], []
    for x, site in enumerate(spec.sites()):
        size = len(take)
        for link, sign in spec.gauss_fluxes(site):
            if isinstance(link, Link):
                lo, r = at[link]
                take += range(lo, lo + r)
                factor += [sign] * r
            else:
                take.append(one)
                factor.append(sign * e * link)
        # psidag psi, merged (n_spinor/2 on the identity), scaled by e
        take += [one, *range(z0 + x * ns, z0 + (x + 1) * ns), one]
        factor += [ns / 2.0 * e, *[1.0] * ns, -e * ns / 2.0]
        owner += [x] * (len(take) - size)
    acc = PauliSum(n)
    with np.errstate(over="ignore", invalid="ignore"):
        acc.add_rows(np.concatenate(masks)[take],
                     np.concatenate(coeffs)[take] * np.array(factor)[:, None])
    g_ops = acc.to_operators(owner, spec.n_sites)
    # G_x^2: the products of each G_x's rows, first factor outer
    sizes = np.array([g.n_terms for g in g_ops])
    own = np.repeat(np.arange(spec.n_sites), sizes ** 2)
    t = np.arange(len(own)) - (np.cumsum(sizes ** 2) - sizes ** 2)[own]
    start, r = (np.cumsum(sizes) - sizes)[own], sizes[own]
    a, b = start + t // r, start + t % r
    g_masks = np.concatenate([g.masks for g in g_ops])
    g_coeffs = np.concatenate([g.coeffs for g in g_ops])
    acc.add_products(g_masks[a], g_coeffs[a], g_masks[b], g_coeffs[b])
    total = PauliSum(n)
    for sq in acc.to_operators(own, spec.n_sites):
        total.add_operator(sq)
    return tuple(g_ops), total.to_operator()


def assemble(layout: RegisterLayout, params: ModelParams,
             mapping_name: str = "jw") -> HamiltonianTerms:
    """Build all Hamiltonian terms and the simplified total; OverflowError
    if the couplings overflow to a total coefficient that is not finite."""
    mapping = fermion_mapping(mapping_name, layout.n_fermionic)
    mass = build_mass(layout, params, mapping)
    hopp = build_hopp_wilson(layout, params, mapping)
    elec = build_electric(layout, params)
    plaq = build_plaquette(layout, params)
    g_ops, gauss = build_gauss(layout, params, mapping)
    acc = PauliSum(layout.n_total)
    for op in (mass, hopp, elec, plaq):
        acc.add_operator(op)
    if params.lam:
        acc.add_operator(gauss.scale(params.lam))
    total = acc.to_operator()
    if not np.isfinite(total.coeffs).all():
        raise OverflowError("the couplings give a Hamiltonian coefficient that is "
                            "not finite")
    return HamiltonianTerms(mass, hopp, elec, plaq, gauss, g_ops, total)
