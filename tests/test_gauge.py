"""Spin matrices, spin-to-qubit encodings, and encoded QLM link relations."""

import numpy as np
import pytest

from lgt.gauge import (
    check_spin,
    encode_lin,
    encode_log,
    flux_state_index,
    is_perfectly_representable,
    link_qubits,
    qlm_link,
    spin_matrices,
)
from lgt.pauli import classify
from pauli_oracle import commutator, one_hot_splus_reference, spin_pauli_counts, to_matrix

SPINS = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]


def encoding_isometry(spin: float, encoding: str) -> np.ndarray:
    """Columns are the encoded flux states |m = S>, ..., |m = -S>."""
    d_s = check_spin(spin)
    v = np.zeros((1 << link_qubits(spin, encoding), d_s))
    for l in range(d_s):
        v[flux_state_index(spin, encoding, spin - l), l] = 1.0
    return v


class TestSpinMatrices:
    def test_spin_half_is_half_pauli(self):
        m = spin_matrices(0.5)
        assert np.allclose(m.sx, np.array([[0, 1], [1, 0]]) / 2)
        assert np.allclose(m.sy, np.array([[0, -1j], [1j, 0]]) / 2)
        assert np.allclose(m.sz, np.diag([1, -1]) / 2)

    def test_spin_one_sz(self):
        assert np.allclose(spin_matrices(1.0).sz, np.diag([1, 0, -1]))

    @pytest.mark.parametrize("spin", SPINS)
    def test_su2_commutators(self, spin):
        m = spin_matrices(spin)
        assert np.max(np.abs(m.sx @ m.sy - m.sy @ m.sx - 1j * m.sz)) < 1e-14
        assert np.max(np.abs(m.sy @ m.sz - m.sz @ m.sy - 1j * m.sx)) < 1e-14
        assert np.max(np.abs(m.sz @ m.sx - m.sx @ m.sz - 1j * m.sy)) < 1e-14

    @pytest.mark.parametrize("spin", SPINS)
    def test_ladder_action(self, spin):
        m = spin_matrices(spin)
        d_s = check_spin(spin)
        for l in range(d_s):
            mval = spin - l
            col = np.zeros(d_s)
            col[l] = 1.0
            raised = m.splus @ col
            if l == 0:
                assert np.allclose(raised, 0)
            else:
                amp = np.sqrt(spin * (spin + 1) - mval * (mval + 1))
                expect = np.zeros(d_s)
                expect[l - 1] = amp
                assert np.allclose(raised, expect)

    def test_invalid_spin(self):
        with pytest.raises(ValueError):
            check_spin(0.3)

    @pytest.mark.parametrize("spin", [8.98846567431158e307, float("inf"), float("nan")])
    def test_spin_without_a_finite_2s(self, spin):
        # 2 S of the first, a finite float, overflows to inf
        with pytest.raises(ValueError, match="finite"):
            check_spin(spin)


class TestLogEncoding:
    def test_spin1_sx_appendix_decomposition(self):
        o = encode_log(1.0, spin_matrices(1.0).sx)
        got = {t.label: t.coeff for t in o.terms}
        s = 1 / (2 * np.sqrt(2))
        expect = {"II": 0.25, "IZ": -0.25, "ZI": -0.25, "ZZ": 0.25,
                  "IX": s, "XX": s, "YY": s, "ZX": s}
        assert set(got) == set(expect)
        for k, v in expect.items():
            assert abs(got[k] - v) < 1e-13

    def test_spin1_sy_appendix_decomposition(self):
        o = encode_log(1.0, spin_matrices(1.0).sy)
        got = {t.label: t.coeff for t in o.terms}
        s = 1 / (2 * np.sqrt(2))
        expect = {"II": 0.25, "IZ": -0.25, "ZI": -0.25, "ZZ": 0.25,
                  "IY": s, "YX": s, "XY": -s, "ZY": s}
        assert set(got) == set(expect)
        for k, v in expect.items():
            assert abs(got[k] - v) < 1e-13

    def test_spin_half_sz_single_string(self):
        o = encode_log(0.5, spin_matrices(0.5).sz)
        assert [(t.label, t.coeff) for t in o.terms] == [("Z", 0.5)]

    def test_perfectly_representable_sz_support_one(self):
        o = encode_log(1.5, spin_matrices(1.5).sz)
        assert o.n_terms == 2
        assert all(t.support == 1 for t in o.terms)

    @pytest.mark.parametrize("spin", SPINS)
    def test_projection_recovers_matrix(self, spin):
        v = encoding_isometry(spin, "log")
        mats = spin_matrices(spin)
        for m in (mats.sx, mats.sy, mats.sz):
            enc = to_matrix(encode_log(spin, m))
            assert np.max(np.abs(v.T @ enc @ v - m)) < 1e-12

    @pytest.mark.parametrize("spin", SPINS)
    def test_sz_count_bound(self, spin):
        d_s = check_spin(spin)
        assert spin_pauli_counts(spin, "log").sz <= 2 * d_s

    def test_link_past_dense_limit_raises_before_allocating(self, monkeypatch):
        # spin 5000.5 needs 14 qubits; its matrices would take gigabytes
        def no_matrices(*args):
            raise AssertionError("spin matrices allocated")

        monkeypatch.setattr("lgt.gauge.spin_matrices", no_matrices)
        with pytest.raises(ValueError, match="14 qubits"):
            qlm_link(5000.5, "log")
        with pytest.raises(ValueError, match="14 qubits"):
            encode_log(5000.5, np.zeros((1, 1)))


def one_hot_sx_sy(spin: float):
    """One-hot Sx = (S+ + S-)/2 and Sy = -i (S+ - S-)/2 from the encoded S+."""
    splus = encode_lin(spin, "plus")
    sminus = splus.dagger()
    return 0.5 * (splus + sminus), (-0.5j) * (splus - sminus)


class TestLinearEncoding:
    @pytest.mark.parametrize("spin", SPINS)
    def test_one_hot_restriction(self, spin):
        v = encoding_isometry(spin, "linear")
        mats = spin_matrices(spin)
        sx, sy = one_hot_sx_sy(spin)
        for which, enc, m in (("x", sx, mats.sx), ("y", sy, mats.sy),
                              ("z", encode_lin(spin, "z"), mats.sz),
                              ("plus", encode_lin(spin, "plus"), mats.splus)):
            enc = to_matrix(enc)
            assert np.max(np.abs(v.T @ enc @ v - m)) < 1e-12, (spin, which)

    @pytest.mark.parametrize("spin", SPINS)
    def test_exact_counts(self, spin):
        d_s = check_spin(spin)
        counts = spin_pauli_counts(spin, "linear")
        assert counts.sx == counts.sy == 2 * d_s - 2 == 4 * spin
        assert counts.sz == (d_s if d_s % 2 == 0 else d_s - 1)
        sx, sy = one_hot_sx_sy(spin)
        assert sx.n_terms == sy.n_terms == counts.sx
        assert encode_lin(spin, "z").n_terms == counts.sz
        assert all(t.support == 2 for t in sx.terms)

    def test_splus_bits_match_the_chained_sum(self):
        # one accumulator of tensor products against the chain of merged
        # sums: the same strings in the same order, the same coefficient bits
        for two_s in range(1, 81):
            spin = two_s / 2
            got, want = encode_lin(spin, "plus"), one_hot_splus_reference(spin)
            assert got.n_qubits == want.n_qubits == two_s + 1
            assert np.array_equal(got.masks, want.masks), spin
            assert np.array_equal(got.coeffs.view(np.uint64),
                                  want.coeffs.view(np.uint64)), spin

    @pytest.mark.parametrize("which", ["x", "y", "minus"])
    def test_only_z_and_plus_are_encoded(self, which):
        with pytest.raises(ValueError, match="unknown spin operator"):
            encode_lin(1.0, which)

    def test_spin1_examples(self):
        assert spin_pauli_counts(1.0, "linear").sx == 4
        assert spin_pauli_counts(1.0, "linear").sz == 2


class TestQlmLink:
    @pytest.mark.parametrize("spin", SPINS)
    @pytest.mark.parametrize("encoding", ["log", "linear"])
    def test_qlm_commutators_on_physical_subspace(self, spin, encoding):
        link = qlm_link(spin, encoding)
        v = encoding_isometry(spin, encoding)
        eu = to_matrix(commutator(link.e_op, link.u))
        u = to_matrix(link.u)
        # [E, U] = U restricted to the flux window (charge unit e = 1)
        assert np.max(np.abs(v.T @ eu @ v - v.T @ u @ v)) < 1e-12
        # [U, U^dag] = 2 E / (S (S+1)) on the flux window
        uu = to_matrix(commutator(link.u, link.u_dag))
        e = to_matrix(link.e_op)
        scale = 2.0 / (spin * (spin + 1))
        assert np.max(np.abs(v.T @ uu @ v - scale * (v.T @ e @ v))) < 1e-12

    def test_theta_shifts_spectrum(self):
        link = qlm_link(0.5, "log", theta=0.5)
        flux = np.diag(to_matrix(link.e_op)).real
        assert sorted(np.round(flux, 12)) == [0.0, 1.0]

    def test_e_sq_theta_matches_shifted_square(self):
        link = qlm_link(1.0, "log", theta=0.5)
        v = encoding_isometry(1.0, "log")
        sz = spin_matrices(1.0).sz
        target = (sz + 0.5 * np.eye(3)) @ (sz + 0.5 * np.eye(3))
        assert np.max(np.abs(v.T @ to_matrix(link.e_sq) @ v - target)) < 1e-12

    @pytest.mark.parametrize("spin", SPINS)
    def test_hermiticity_and_mixed_structure(self, spin):
        link = qlm_link(spin, "log")
        for herm in (link.e_op, link.e_sq):
            c = classify(herm)
            assert c.n_imag == 0 and c.n_mixed == 0
        mixed = classify(link.u).n_mixed
        if is_perfectly_representable(spin):
            assert mixed == 0
        else:
            assert mixed > 0

    def test_u_mixed_terms_spin1(self):
        link = qlm_link(1.0, "log")
        mixed = {t.label for t in link.u.terms
                 if abs(t.coeff.real) > 1e-12 and abs(t.coeff.imag) > 1e-12}
        assert mixed == {"II", "IZ", "ZI", "ZZ"}
        assert classify(link.u) == (4, 4, 4)

    def test_flux_state_index(self):
        # S=1 logarithmic: |m=1> -> 0, |m=0> -> 1, |m=-1> -> 2
        assert [flux_state_index(1.0, "log", m) for m in (1, 0, -1)] == [0, 1, 2]
        # one-hot: |m=-1/2> is the leftmost qubit, i.e. the index MSB
        assert flux_state_index(0.5, "linear", -0.5) == 2
        assert flux_state_index(0.5, "linear", 0.5) == 1
        with pytest.raises(ValueError):
            flux_state_index(0.5, "log", 1.5)


class TestAppendixCounts:
    # per-link columns: spin -> (hopping factor, E op., E^2)
    TABLE = {0.5: (4, 1, 1), 1.0: (32, 4, 4), 1.5: (12, 2, 2),
             2.0: (80, 8, 8), 3.0: (80, 8, 8), 3.5: (32, 3, 4)}

    @pytest.mark.parametrize("spin", sorted(TABLE))
    def test_hopping_e_columns(self, spin):
        hop, eop, esq = self.TABLE[spin]
        link = qlm_link(spin, "log")
        c = classify(link.u)
        assert 2 * (c.n_real + c.n_imag + 2 * c.n_mixed) == hop
        assert link.e_op.n_terms == eop
        assert link.e_sq.n_terms == esq

    def test_perfect_log_sz_count(self):
        for spin in (0.5, 1.5, 3.5, 7.5):
            counts = spin_pauli_counts(spin, "log")
            assert counts.sz == link_qubits(spin, "log")

    def test_lin_e_sq_counts(self):
        for spin in (1.0, 1.5, 2.0, 2.5):
            d_s = check_spin(spin)
            expect = (d_s * (d_s - 1) // 2 + 1 if d_s % 2 == 0
                      else (d_s - 1) * (d_s - 2) // 2 + 1)
            assert qlm_link(spin, "linear").e_sq.n_terms == expect
