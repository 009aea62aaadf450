"""Lattice-QED Hamiltonian terms as Pauli operators over the full register.

Couplings are in lattice units (spacing a = 1). Conventions fixed here (and
exercised by the counting tests):

* hopping/Wilson: (1/2) sum_links psi-bar_x [i gamma^k + r] U_(x,k) psi_{x+k}
  + h.c., with the spinor structure gamma_mix = gamma^0 (i gamma^k + r);
* mass: (m + r d) sum_sites psi-bar psi;
* electric: (e^2/2) sum_links (Sz + theta_k)^2, static boundary links enter
  as classical constants;
* plaquette: -(1/4 e^2) sum_plaq (U1 U2 U3^dag U4^dag + h.c.);
* Gauss: G_x = e [ sum_k (flux_in - flux_out) + (psidag psi - n_spinor/2) ],
  so the half-filled bare vacuum is annihilated; H_gauss = sum_x G_x^2.
  psidag psi is the sum of the mapping's number operators, which is the
  occupation under jw, parity and bk alike (under parity and bk a mode's
  occupation is the parity of several qubits, not one qubit's Z).

Identity-axes strings are kept in the assembled total (the resource counts
are calibrated that way).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    layout: RegisterLayout
    params: ModelParams
    mapping: str
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

    def named_terms(self) -> list[tuple[str, PauliOperator]]:
        out = [("mass", self.mass), ("hopp_wilson", self.hopp_wilson),
               ("elec", self.elec), ("plaq", self.plaq)]
        if self.params.lam:
            out.append(("gauss", self.params.lam * self.gauss))
        return out


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
                acc.add_product(ferm, u, scale=0.5 * gmix[alpha, beta])
    acc.hermitize()
    return acc.to_operator()


def build_electric(layout: RegisterLayout, params: ModelParams) -> PauliOperator:
    acc = PauliSum(layout.n_total)
    half_e2 = params.e ** 2 / 2.0
    for link, enc in _encoded_links(layout, params).items():
        acc.add_operator(enc.e_sq.embed(layout.n_total, layout.gauge_offset(link)),
                         scale=half_e2)
    for sl in layout.spec.static_links:
        acc.add_string(0, 0, half_e2 * sl.flux ** 2)
    return acc.to_operator()


def build_plaquette(layout: RegisterLayout, params: ModelParams) -> PauliOperator:
    spec = layout.spec
    if spec.d < 2:
        return PauliOperator.zero(layout.n_total)
    links = _encoded_links(layout, params)
    acc = PauliSum(layout.n_total)
    n = layout.n_total

    def factor(site: Site, direction: int, dagger: bool) -> PauliOperator:
        """U (or U^dag) of a plaquette edge; every edge is dynamical, as a
        static link has only one end on the lattice."""
        link = spec.normalize_link(site, direction)
        enc = links[link]
        op = enc.u_dag if dagger else enc.u
        return op.embed(n, layout.gauge_offset(link))

    for plaq in spec.plaquettes():
        x, k, j = plaq.site, plaq.k, plaq.j
        xk = spec.neighbor(x, k)
        xj = spec.neighbor(x, j)
        prod = PauliOperator.identity(n)
        for f in (factor(x, k, False), factor(xk, j, False),
                  factor(xj, k, True), factor(x, j, True)):
            prod = prod * f
        acc.add_operator(prod, scale=-1.0 / (4.0 * params.e ** 2))
    acc.hermitize()
    return acc.to_operator()


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
        for k in range(spec.d):
            # incoming, then outgoing flux
            for base, sign in ((spec.shift(site, k, -1), 1.0), (site, -1.0)):
                link = spec.link_or_flux(base, k)
                if isinstance(link, Link):
                    acc.add_operator(links[link].e_op.embed(n, layout.gauge_offset(link)),
                                     scale=sign * e)
                else:
                    acc.add_string(0, 0, sign * e * link)
        acc.add_operator(site_psidagpsi(layout, mapping, site), scale=e)
        acc.add_string(0, 0, -e * layout.n_spinor / 2.0)
        g_ops.append(acc.to_operator())

    total = PauliSum(n)
    for g in g_ops:
        total.add_operator(g * g)
    return tuple(g_ops), total.to_operator()


def assemble(layout: RegisterLayout, params: ModelParams,
             mapping_name: str = "jw") -> HamiltonianTerms:
    """Build all Hamiltonian terms and the simplified total."""
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
        acc.add_operator(gauss, scale=params.lam)
    total = acc.to_operator()
    return HamiltonianTerms(layout, params, mapping_name, mass, hopp, elec,
                            plaq, gauss, g_ops, total)
