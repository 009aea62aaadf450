"""Hypercubic lattice topology and the qubit register layout.

Sites are integer d-tuples indexed row-major over the extents. A link is the
pair (tail site, positive direction), its tail wrapped into the lattice on a
periodic axis. Static boundary links (open boundary only) carry fixed
classical flux values and never own qubits; each joins one lattice site to
one site outside, and each (site, direction) is given at most once. Only
``LatticeSpec`` knows which links meet a site (``gauss_fluxes``) or a
plaquette (``plaquettes``); the Hamiltonian and the Gauss-law check read
those lists.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from lgt.gauge import link_qubits
from lgt.matter import clifford_rep

Site = tuple[int, ...]


class Link(NamedTuple):
    site: Site       # tail of the link
    direction: int   # 0-based spatial direction


Edge = tuple[Link, bool]  # a plaquette edge: the link, and whether it is daggered


@dataclass(frozen=True)
class StaticLink:
    """A boundary link held at a fixed physical flux value (units of e)."""

    site: Site
    direction: int
    flux: float


@dataclass(frozen=True)
class LatticeSpec:
    d: int
    extents: tuple[int, ...]
    boundary: str = "periodic"  # "periodic" | "open"
    static_links: tuple[StaticLink, ...] = ()

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.extents) != self.d:
            raise ValueError("extents length must equal d")
        if any(e < 1 for e in self.extents):
            raise ValueError("every extent must be >= 1")
        if self.boundary not in ("periodic", "open"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.static_links and self.boundary != "open":
            raise ValueError("static links require open boundary")
        seen = set()
        for sl in self.static_links:
            tail_in = self.contains(sl.site)
            head_in = self.contains(self.shift(sl.site, sl.direction))
            if tail_in and head_in:
                raise ValueError(
                    f"static link {sl} lies inside the dynamical region")
            if not (tail_in or head_in):
                raise ValueError(f"static link {sl} touches no lattice site")
            key = (tuple(sl.site), sl.direction)
            if key in seen:
                raise ValueError(f"static link {sl} repeats an earlier (site, dir)")
            seen.add(key)

    # -- geometry ------------------------------------------------------

    def contains(self, site: Site) -> bool:
        return all(0 <= c < e for c, e in zip(site, self.extents))

    def shift(self, site: Site, direction: int, sign: int = +1) -> Site:
        out = list(site)
        out[direction] += sign
        return tuple(out)

    def wrap(self, site: Site) -> Site:
        return tuple(c % e for c, e in zip(site, self.extents))

    def neighbor(self, site: Site, direction: int) -> Site | None:
        """Neighboring site, or None if it falls off an open boundary."""
        raw = self.shift(site, direction)
        if self.boundary == "periodic":
            return self.wrap(raw)
        return raw if self.contains(raw) else None

    def _link(self, tail: Site, direction: int) -> Link | None:
        """The dynamical link from ``tail`` along ``direction``, or None
        where one of its ends is off an open boundary."""
        if self.boundary == "periodic":
            return Link(self.wrap(tail), direction)
        if self.contains(tail) and self.contains(self.shift(tail, direction)):
            return Link(tail, direction)
        return None

    def site_index(self, site: Site) -> int:
        idx = 0
        for c, e in zip(site, self.extents):
            idx = idx * e + c
        return idx

    @property
    def n_sites(self) -> int:
        return math.prod(self.extents)

    @property
    def links_per_direction(self) -> tuple[int, ...]:
        """Dynamical link count along each direction."""
        if self.boundary == "periodic":
            return (self.n_sites,) * self.d
        return tuple(self.n_sites // e * (e - 1) for e in self.extents)

    @property
    def n_links(self) -> int:
        return sum(self.links_per_direction)

    @property
    def n_plaquettes(self) -> int:
        if self.d < 2:
            return 0
        total = 0
        for k in range(self.d):
            for j in range(k + 1, self.d):
                anchors = 1
                for i, e in enumerate(self.extents):
                    if self.boundary == "open" and i in (k, j):
                        anchors *= e - 1
                    else:
                        anchors *= e
                total += anchors
        return total

    def sites(self) -> Iterator[Site]:
        return itertools.product(*map(range, self.extents))

    def links(self) -> list[Link]:
        return [link for site in self.sites() for k in range(self.d)
                if (link := self._link(site, k)) is not None]

    def plaquettes(self) -> list[tuple[Edge, Edge, Edge, Edge]]:
        """The four edges of each plaquette (x, k < j) in loop order:
        (x,k), (x+k,j), (x+j,k)^dag, (x,j)^dag. A plaquette is listed where
        all four links are dynamical; on a periodic axis of extent 1 its
        loop meets one link twice."""
        out = []
        for x in self.sites():
            for k in range(self.d):
                for j in range(k + 1, self.d):
                    edges = ((self._link(x, k), False),
                             (self._link(self.shift(x, k), j), False),
                             (self._link(self.shift(x, j), k), True),
                             (self._link(x, j), True))
                    if all(link is not None for link, _ in edges):
                        out.append(edges)
        return out

    def static_flux(self, site: Site, direction: int) -> float | None:
        """Flux of the static link with tail ``site`` along ``direction``."""
        for sl in self.static_links:
            if sl.site == tuple(site) and sl.direction == direction:
                return sl.flux
        return None

    def gauss_fluxes(self, site: Site) -> list[tuple[Link | float, float]]:
        """(flux, sign) pairs of Gauss's law at ``site``: per direction k,
        the incoming flux (+1.0), then the outgoing one (-1.0). A flux is the
        dynamical ``Link``, or else the fixed flux: the static link's value,
        0.0 where no link is. G_x sums its terms in this stencil order, and
        float sums depend on order: it fixes G_x, sum_x G_x^2 and the circuit
        angles bit for bit."""
        out = []
        for k in range(self.d):
            for tail, sign in ((self.shift(site, k, -1), 1.0), (site, -1.0)):
                link = self._link(tail, k)
                if link is None:
                    static = self.static_flux(tail, k)
                    link = 0.0 if static is None else static
                out.append((link, sign))
        return out


@dataclass(frozen=True)
class RegisterLayout:
    """The qubit register of a lattice and the basis-index map; every
    module that turns qubits into basis-index bits follows this statement.

    * Qubits: fermion modes first, site-major (mode = site index * n_spinor
      + spinor component, the same qubit under every fermion mapping), then
      one register of ``qubits_per_link`` qubits per dynamical link,
      link-major in ``links`` order.
    * Basis index: qubit 0 is its most significant bit, the kron(q0, q1,
      ...) order; ``lgt.pauli._index_mask`` maps qubit masks to index bits.
    * Link registers: a log register holds S - m, most significant qubit
      first; a one-hot register marks m on its own qubit m + S
      (``lgt.gauge.flux_state_index`` and ``lgt.gauge.register_flux``).
      Register ``li`` holds the index bits from ``register_shift(li)`` up.
    * Simulation: a state holds amplitudes only on the coset of basis
      indices its Hamiltonian reaches; ``lgt.dynamics.Coset`` maps those
      positions to basis indices and tapers strings onto them.

    Raises ValueError for an invalid spin or an unsupported encoding. Links
    are enumerated on first use, so counting qubits costs nothing.
    """

    spec: LatticeSpec
    encoding: str
    spin: float

    def __post_init__(self):
        link_qubits(self.spin, self.encoding)

    @property
    def n_spinor(self) -> int:
        return clifford_rep(self.spec.d).n_spinor

    @property
    def qubits_per_link(self) -> int:
        return link_qubits(self.spin, self.encoding)

    @functools.cached_property
    def links(self) -> tuple[Link, ...]:
        return tuple(self.spec.links())

    @functools.cached_property
    def _link_positions(self) -> dict[Link, int]:
        return {link: i for i, link in enumerate(self.links)}

    @property
    def n_fermionic(self) -> int:
        return self.spec.n_sites * self.n_spinor

    @property
    def n_gauge(self) -> int:
        return self.spec.n_links * self.qubits_per_link

    @property
    def n_total(self) -> int:
        return self.n_fermionic + self.n_gauge

    def fermionic_mode(self, site: Site, component: int) -> int:
        """Fermionic mode index (equals its qubit index under all mappings)."""
        if not 0 <= component < self.n_spinor:
            raise ValueError("spinor component out of range")
        return self.spec.site_index(site) * self.n_spinor + component

    def link_index(self, link: Link) -> int:
        return self._link_positions[link]

    def gauge_offset(self, link: Link) -> int:
        """First qubit of the link's register."""
        return self.n_fermionic + self.link_index(link) * self.qubits_per_link

    def register_shift(self, li: int) -> int:
        """Basis-index bit of the last qubit of link register ``li``: the
        register value is the index shifted right by this, masked to
        ``qubits_per_link`` bits."""
        return self.n_gauge - (li + 1) * self.qubits_per_link
