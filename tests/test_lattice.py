"""Lattice enumeration, Gauss-law and plaquette geometry, and register
layout tests."""

from collections import Counter
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgt.lattice import (
    LatticeSpec,
    Link,
    RegisterLayout,
    StaticLink,
)


class Census(NamedTuple):
    n_sites: int
    n_links: int
    n_plaquettes: int


def enumerate_lattice(spec: LatticeSpec) -> Census:
    """Counts of the enumerated sites, links and plaquettes, checked
    against the closed forms of ``LatticeSpec``."""
    census = Census(len(list(spec.sites())), len(spec.links()),
                    len(spec.plaquettes()))
    assert census == (spec.n_sites, spec.n_links, spec.n_plaquettes)
    return census


def test_1d_periodic_counts():
    c = enumerate_lattice(LatticeSpec(1, (3,), "periodic"))
    assert (c.n_sites, c.n_links, c.n_plaquettes) == (3, 3, 0)


def test_2d_3x2_open_counts():
    c = enumerate_lattice(LatticeSpec(2, (3, 2), "open"))
    assert (c.n_sites, c.n_links, c.n_plaquettes) == (6, 7, 2)


def test_3d_2x2x2_open_counts():
    # brute-force cross-check: 12 edges and 6 faces of a cube
    c = enumerate_lattice(LatticeSpec(3, (2, 2, 2), "open"))
    assert (c.n_sites, c.n_links, c.n_plaquettes) == (8, 12, 6)


def test_open_1d_links():
    c = enumerate_lattice(LatticeSpec(1, (3,), "open"))
    assert c.n_links == c.n_sites - 1


@st.composite
def lattices(draw) -> LatticeSpec:
    """Lattices of d = 1-3 and extents 1-4; an open one carries static links
    on a drawn subset of its boundary (site, direction) pairs."""
    d = draw(st.integers(1, 3))
    extents = tuple(draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)))
    boundary = draw(st.sampled_from(["open", "periodic"]))
    statics = []
    if boundary == "open":
        spec = LatticeSpec(d, extents, boundary)
        outer = sorted({(tail, k) for site in spec.sites() for k in range(d)
                        for tail in (spec.shift(site, k, -1), site)
                        if not (spec.contains(tail)
                                and spec.contains(spec.shift(tail, k)))})
        chosen = draw(st.lists(st.sampled_from(outer), unique=True)) if outer else []
        statics = [StaticLink(tail, k, draw(st.sampled_from([-1.0, 0.5, 2.0])))
                   for tail, k in chosen]
    return LatticeSpec(d, extents, boundary, tuple(statics))


@settings(max_examples=60, deadline=None)
@given(lattices())
def test_gauss_fluxes_meet_each_link_at_its_two_ends(spec):
    links = spec.links()
    ends = Counter()
    # entry 2k is the incoming flux along k, entry 2k + 1 the outgoing one
    fixed = {}
    for site in spec.sites():
        fluxes = spec.gauss_fluxes(site)
        assert [sign for _, sign in fluxes] == [1.0, -1.0] * spec.d
        for i, (flux, sign) in enumerate(fluxes):
            if isinstance(flux, Link):
                assert flux.direction == i // 2
                ends[flux, site, sign] += 1
            else:
                assert type(flux) is float
                fixed[site, i] = flux
    # each link once at its head (+1), once at its tail (-1); on a periodic
    # axis of extent 1 both ends are the same site
    want = Counter()
    for link in links:
        want[link, spec.neighbor(link.site, link.direction), 1.0] += 1
        want[link, link.site, -1.0] += 1
    assert ends == want
    assert len(fixed) == spec.n_sites * 2 * spec.d - 2 * len(links)
    # a static link enters at its head where that is on the lattice, else
    # it leaves its tail; every other fixed flux is 0.0
    expected = {}
    for sl in spec.static_links:
        head = spec.shift(sl.site, sl.direction)
        at = (head, 2 * sl.direction) if spec.contains(head) else (
            sl.site, 2 * sl.direction + 1)
        expected[at] = sl.flux
    assert expected.keys() <= fixed.keys()
    assert fixed == {at: expected.get(at, 0.0) for at in fixed}


@settings(max_examples=60, deadline=None)
@given(lattices())
def test_plaquette_edges_are_closed_loops_of_links(spec):
    links = set(spec.links())
    plaquettes = spec.plaquettes()
    assert len(plaquettes) == spec.n_plaquettes
    for edges in plaquettes:
        assert [dagger for _, dagger in edges] == [False, False, True, True]
        k, j = edges[0][0].direction, edges[1][0].direction
        assert k < j and [link.direction for link, _ in edges] == [k, j, k, j]
        at = start = edges[0][0].site
        for link, dagger in edges:
            assert link in links
            head = spec.neighbor(link.site, link.direction)
            tail, end = (head, link.site) if dagger else (link.site, head)
            assert tail == at
            at = end
        assert at == start


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4),
       st.sampled_from(["open", "periodic"]))
def test_counts_match_enumeration_2d(nx, ny, boundary):
    spec = LatticeSpec(2, (nx, ny), boundary)
    c = enumerate_lattice(spec)  # asserts closed-form == enumerated
    assert c.n_sites == nx * ny


def test_layout_2x3_spin1_log():
    spec = LatticeSpec(2, (2, 3), "open")
    lay = RegisterLayout(spec, "log", 1.0)
    assert (lay.n_total, lay.n_fermionic, lay.n_gauge) == (26, 12, 14)


def test_layout_4x4_spin1_log():
    spec = LatticeSpec(2, (4, 4), "open")
    lay = RegisterLayout(spec, "log", 1.0)
    assert (lay.n_total, lay.n_fermionic, lay.n_gauge) == (80, 32, 48)


def test_smallest_layout():
    spec = LatticeSpec(1, (2,), "open")  # 2 sites, 1 link
    lay = RegisterLayout(spec, "log", 0.5)
    assert lay.qubits_per_link == 1
    assert lay.n_total == 5
    # single site, no links
    lone = RegisterLayout(LatticeSpec(1, (1,), "open"), "log", 0.5)
    assert (lone.n_fermionic, lone.n_gauge) == (2, 0)


def test_fermionic_modes_site_major():
    spec = LatticeSpec(1, (3,), "periodic")
    lay = RegisterLayout(spec, "log", 1.0)
    assert lay.fermionic_mode((1,), 0) == 2
    assert lay.fermionic_mode((1,), 1) == 3
    assert lay.gauge_offset(spec.links()[0]) == 6


def test_spinor_components_rule():
    # the component count of lgt.matter.clifford_rep
    assert [RegisterLayout(LatticeSpec(d, (2,) * d), "log", 0.5).n_spinor
            for d in (1, 2, 3)] == [2, 2, 4]


def test_static_links_validation():
    with pytest.raises(ValueError):
        LatticeSpec(1, (3,), "periodic",
                    (StaticLink((-1,), 0, 1.0),))
    with pytest.raises(ValueError):
        LatticeSpec(1, (3,), "open", (StaticLink((0,), 0, 1.0),))
    # Gauss's law would read only the first flux, the energy would count both
    with pytest.raises(ValueError, match="repeats"):
        LatticeSpec(1, (3,), "open",
                    (StaticLink((-1,), 0, 1.0), StaticLink((-1,), 0, 0.0)))
    # neither end on the lattice: the link would only shift the energy
    with pytest.raises(ValueError, match="touches no lattice site"):
        LatticeSpec(1, (3,), "open", (StaticLink((7,), 0, 1.0),))
    spec = LatticeSpec(1, (3,), "open",
                       (StaticLink((-1,), 0, 1.0), StaticLink((2,), 0, 1.0)))
    assert spec.static_flux((-1,), 0) == 1.0
    assert spec.static_flux((2,), 0) == 1.0
    assert spec.static_flux((0,), 0) is None


def test_qubit_totals_large_without_enumeration():
    lay = RegisterLayout(LatticeSpec(3, (100, 100, 100), "open"), "log", 255.5)
    assert (lay.n_total, lay.n_fermionic, lay.n_gauge) == \
        (30730000, 4000000, 26730000)
    assert lay.n_spinor == 4 and lay.qubits_per_link == 9


@pytest.mark.parametrize("spin", [0, 0.3, -0.5])
def test_qubit_totals_reject_invalid_spin(spin):
    with pytest.raises(ValueError, match="half-integer"):
        RegisterLayout(LatticeSpec(2, (2, 3), "open"), "log", spin)


def test_layout_rejects_unknown_encoding():
    with pytest.raises(ValueError, match="unsupported encoding"):
        RegisterLayout(LatticeSpec(1, (2,), "open"), "bogus", 1.0)


@pytest.mark.parametrize("d, extents, boundary", [
    (1, (4,), "periodic"), (2, (3, 2), "open"), (3, (2, 3, 2), "periodic")])
def test_links_per_direction_and_link_index(d, extents, boundary):
    spec = LatticeSpec(d, extents, boundary)
    links = spec.links()
    assert spec.links_per_direction == tuple(
        sum(link.direction == k for link in links) for k in range(d))
    lay = RegisterLayout(spec, "linear", 1.0)
    assert [lay.link_index(link) for link in lay.links] == list(range(len(links)))
