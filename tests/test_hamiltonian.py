"""Hamiltonian term construction, counting calibrations, gauge invariance."""

import math
import tracemalloc

import numpy as np
import pytest

from lgt.hamiltonian import (
    ModelParams,
    assemble,
    build_electric,
    build_hopp_wilson,
    build_mass,
    build_plaquette,
)
from lgt.lattice import LatticeSpec, RegisterLayout, StaticLink
from lgt.matter import fermion_mapping
from lgt.pauli import classify
from pauli_oracle import build_plaquette_reference, is_hermitian, to_matrix


def cnot_count(op):
    return 2 * sum(t.support - 1 for t in op.terms if t.support > 0)


@pytest.fixture(scope="module")
def vacuum_decay():
    spec = LatticeSpec(1, (3,), "periodic")
    lay = RegisterLayout(spec, "log", 1.0)
    params = ModelParams(m=0.5, r=1.0, e=math.sqrt(2), lam=10.0)
    return lay, params, assemble(lay, params, "jw")


@pytest.fixture(scope="module")
def string_breaking():
    spec = LatticeSpec(1, (3,), "open",
                       (StaticLink((-1,), 0, 1.0), StaticLink((2,), 0, 1.0)))
    lay = RegisterLayout(spec, "log", 1.0)
    params = ModelParams(m=0.4, r=1.0, e=2.0, lam=20.0)
    return lay, params, assemble(lay, params, "jw")


class TestMass:
    def test_single_site_two_z_strings(self):
        lay = RegisterLayout(LatticeSpec(1, (1,), "open"), "log", 0.5)
        params = ModelParams(m=1.0)
        op = build_mass(lay, params, fermion_mapping("jw", 2))
        assert op.n_terms == 2
        assert all(t.x == 0 and t.support == 1 for t in op.terms)

    def test_three_sites_six_strings(self, vacuum_decay):
        _, _, h = vacuum_decay
        assert h.mass.n_terms == 6

    def test_mass_coefficient_cancellation(self):
        lay = RegisterLayout(LatticeSpec(1, (2,), "open"), "log", 0.5)
        params = ModelParams(m=-1.0, r=1.0)  # m = -r d
        assert build_mass(lay, params, fermion_mapping("jw", 4)).n_terms == 0


class TestHopping:
    def test_real_coefficients(self):
        lay = RegisterLayout(LatticeSpec(1, (2,), "open"), "log", 0.5)
        params = ModelParams(m=0.5)
        op = build_hopp_wilson(lay, params, fermion_mapping("jw", 4))
        c = classify(op)
        assert c.n_imag == 0 and c.n_mixed == 0

    def test_per_link_counts(self):
        # 2 (n_real + n_imag + 2 n_mix) per nonzero gamma_mix element,
        # 4 elements for the two-component Dirac representation
        for spin, per_element in ((1.0, 32), (1.5, 12)):
            lay = RegisterLayout(LatticeSpec(1, (2,), "open"), "log", spin)
            params = ModelParams(m=0.5)
            op = build_hopp_wilson(lay, params, fermion_mapping("jw", 4))
            assert op.n_terms == 4 * per_element


class TestElectric:
    def test_per_link_counts_log(self, vacuum_decay):
        lay, params, h = vacuum_decay
        # 3 links x 4 strings with the three identity strings merged
        assert h.elec.n_terms == 3 * 3 + 1

    def test_spin_half_identity_only(self):
        lay = RegisterLayout(LatticeSpec(1, (2,), "open"), "log", 0.5)
        op = build_electric(lay, ModelParams(m=0.5))
        assert op.n_terms == 1 and (op.terms[0].x, op.terms[0].z) == (0, 0)

    def test_static_links_enter_as_constants(self, string_breaking):
        lay, params, h = string_breaking
        shift = h.elec.coefficient("I" * lay.n_total)
        # two unit-flux static links plus the identity part of the two
        # dynamical links, tr(diag(1,0,1,1))/4 = 3/4 each
        expect = (params.e**2 / 2) * (2 * 1.0 + 2 * 0.75)
        assert abs(shift.real - expect) < 1e-12


class TestPlaquette:
    def test_d1_zero(self, vacuum_decay):
        _, _, h = vacuum_decay
        assert h.plaq.n_terms == 0

    def test_double_plaquette_count(self):
        spec = LatticeSpec(2, (3, 2), "open",
                           (StaticLink((-1, 0), 0, 1.0), StaticLink((2, 0), 0, 1.0)))
        lay = RegisterLayout(spec, "log", 0.5)
        params = ModelParams(m=0.4, e=2.0, theta=(0.5, 0.5))
        op = build_plaquette(lay, params)
        assert op.n_terms == 2 * 8  # two plaquettes, 8 strings each at S=1/2
        assert is_hermitian(op)

    def test_plaquette_matrix_is_hermitian(self):
        spec = LatticeSpec(2, (2, 2), "open")
        lay = RegisterLayout(spec, "log", 0.5)
        op = build_plaquette(lay, ModelParams(m=0.4, e=2.0))
        m = to_matrix(op)
        assert np.allclose(m, m.conj().T)

    # the tensor products against the chained products they replaced:
    # masks and coefficient bits, on four distinct links per plaquette
    @pytest.mark.parametrize("d, extents", [(2, (3, 2)), (3, (2, 2, 2))])
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("spin", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("encoding", ["log", "linear"])
    def test_matches_chained_products_bit_for_bit(self, d, extents, boundary,
                                                  spin, encoding):
        lay = RegisterLayout(LatticeSpec(d, extents, boundary), encoding, spin)
        params = ModelParams(m=0.4, e=1.7, theta=(0.3, -0.2, 0.1)[:d])
        got, want = build_plaquette(lay, params), build_plaquette_reference(lay, params)
        assert got.n_terms > 0
        assert np.array_equal(got.masks, want.masks)
        assert np.array_equal(got.coeffs.view(np.uint64), want.coeffs.view(np.uint64))

    # a periodic axis of extent 1 makes a plaquette meet a link twice: that
    # link's edges are multiplied first, which rounds differently
    @pytest.mark.parametrize("extents", [(2, 1), (1, 1)])
    @pytest.mark.parametrize("spin", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("encoding", ["log", "linear"])
    def test_repeated_link_matches_chained_products(self, extents, spin, encoding):
        lay = RegisterLayout(LatticeSpec(2, extents, "periodic"), encoding, spin)
        params = ModelParams(m=0.4, e=1.0, theta=(0.3, -0.2))
        got, want = build_plaquette(lay, params), build_plaquette_reference(lay, params)
        assert got.n_terms > 0
        assert np.array_equal(got.masks, want.masks)
        assert np.abs(got.coeffs - want.coeffs).max() <= 2e-16


def test_assembly_memory_stays_near_its_result():
    """The merges hold little beyond what they return: the tracemalloc peak
    of ``assemble`` on an open 3x3 S=1 lattice stays within 1.6x the
    string arrays of the operators it returns."""
    lay = RegisterLayout(LatticeSpec(2, (3, 3), "open"), "log", 1.0)
    tracemalloc.start()
    try:
        h = assemble(lay, ModelParams(m=0.4, e=2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.plaq.n_terms == 62417
    ops = (h.mass, h.hopp_wilson, h.elec, h.plaq, h.gauss, *h.gauss_ops, h.total)
    held = sum(op.masks.nbytes + op.coeffs.nbytes for op in ops)
    assert peak <= 1.6 * held


class TestGauss:
    def test_vacuum_annihilated(self, vacuum_decay):
        lay, params, h = vacuum_decay
        # bare vacuum: per site modes (on, off) -> qubits |01|, links flux 0 -> |01|
        n = lay.n_total
        bits = [0, 1] * 3 + [0, 1] * 3
        index = sum(b << (n - 1 - q) for q, b in enumerate(bits))
        for g in h.gauss_ops:
            m = to_matrix(g)
            col = m[:, index]
            assert np.max(np.abs(col)) < 1e-12

    def test_gauss_diag_in_computational_basis(self, vacuum_decay):
        _, _, h = vacuum_decay
        for g in h.gauss_ops:
            assert all(t.x == 0 for t in g.terms)


class TestCalibratedCounts:
    def test_466_strings_jw(self, vacuum_decay):
        _, _, h = vacuum_decay
        assert h.n_terms == 466

    def test_cnot_counts_all_mappings(self, vacuum_decay):
        lay, params, h = vacuum_decay
        bk = assemble(lay, params, "bk").total
        parity = assemble(lay, params, "parity").total
        assert cnot_count(h.total) == 3302
        assert cnot_count(bk) == 3482
        assert cnot_count(parity) == 3242
        assert h.n_terms == bk.n_terms == parity.n_terms == 466

    def test_lambda_zero_drops_gauss(self, vacuum_decay):
        lay, params, _ = vacuum_decay
        h0 = assemble(lay, ModelParams(m=0.5, r=1.0, e=math.sqrt(2)), "jw")
        assert h0.n_terms == 400

    def test_string_breaking_305(self, string_breaking):
        _, _, h = string_breaking
        assert h.n_terms == 305
        assert cnot_count(h.total) == 1832

    def test_mass_only_edge_case(self):
        lay = RegisterLayout(LatticeSpec(1, (1,), "open"), "log", 1.0)
        h = assemble(lay, ModelParams(m=1.0, lam=1.0))
        assert h.hopp_wilson.n_terms == h.elec.n_terms == h.plaq.n_terms == 0
        assert h.total.n_terms > 0


def physical_mask(lay):
    d_s = int(round(2 * lay.spin + 1))
    idx = np.arange(1 << lay.n_total, dtype=np.int64)
    ok = np.ones(idx.shape, dtype=bool)
    for li in range(len(lay.links)):
        ok &= (idx >> lay.register_shift(li)) % (1 << lay.qubits_per_link) < d_s
    return ok


class TestInvariants:
    @pytest.mark.parametrize("which", ["mass", "hopp_wilson", "elec", "plaq", "gauss"])
    def test_all_terms_hermitian(self, string_breaking, which):
        _, _, h = string_breaking
        c = classify(getattr(h, which))
        assert c.n_imag == 0 and c.n_mixed == 0

    def test_gauge_invariance_projected(self, string_breaking):
        lay, _, h = string_breaking
        mask = physical_mask(lay)
        hm = to_matrix(h.total)
        for g in h.gauss_ops:
            gm = to_matrix(g)
            comm = (hm @ gm - gm @ hm)[np.ix_(mask, mask)]
            assert np.max(np.abs(comm)) < 1e-10

    def test_total_real_spectrum_small_variant(self):
        # 2-site variant of the vacuum-decay system stays within 10 qubits
        spec = LatticeSpec(1, (2,), "periodic")
        lay = RegisterLayout(spec, "log", 1.0)
        h = assemble(lay, ModelParams(m=0.5, r=1.0, e=math.sqrt(2), lam=10.0))
        m = to_matrix(h.total)
        assert np.allclose(m, m.conj().T)
        evals = np.linalg.eigvalsh(m)
        assert np.all(np.abs(evals.imag) < 1e-12)
