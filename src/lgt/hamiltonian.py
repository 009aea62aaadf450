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
from lgt.lattice import Link, RegisterLayout, Site
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


def site_psidagpsi(layout: RegisterLayout, mapping: FermionMapping,
                   site: Site) -> PauliOperator:
    """Total occupation of a site's spinor components: the sum of the
    mapped number operators, so it reads the same under every mapping."""
    n = layout.n_total
    acc = PauliSum(n)
    for alpha in range(layout.n_spinor):
        acc.add_operator(mapping.number(layout.fermionic_mode(site, alpha)).embed(n))
    return acc.to_operator()


def build_mass(layout: RegisterLayout, params: ModelParams,
               mapping: FermionMapping) -> PauliOperator:
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
                acc.add_operator(mapping.bilinear(i, j, coeff * g0[alpha, beta])
                                 .embed(layout.n_total))
    return acc.to_operator()


def build_hopp_wilson(layout: RegisterLayout, params: ModelParams,
                      mapping: FermionMapping) -> PauliOperator:
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
                ferm = mapping.bilinear(i, j).embed(layout.n_total)
                acc.add_tensor_product([ferm.scale(0.5 * gmix[alpha, beta]), u])
    acc.hermitize()
    return acc.to_operator()


def build_electric(layout: RegisterLayout, params: ModelParams) -> PauliOperator:
    acc = PauliSum(layout.n_total)
    half_e2 = params.e ** 2 / 2.0
    for link, enc in _encoded_links(layout, params).items():
        acc.add_operator(enc.e_sq.embed(layout.n_total, layout.gauge_offset(link))
                         .scale(half_e2))
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
    """
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
        acc.add_operator(site_psidagpsi(layout, mapping, site).scale(e))
        acc.add_string(0, 0, -e * layout.n_spinor / 2.0)
        g_ops.append(acc.to_operator())

    total = PauliSum(n)
    for g in g_ops:
        total.add_operator(g * g)
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
