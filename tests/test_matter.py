"""Clifford representations and fermion-to-qubit mapping tests."""

import numpy as np
import pytest

from lgt.matter import (
    FermionMapping,
    clifford_rep,
    fermion_mapping,
    gamma_mix,
)
from lgt.pauli import PauliOperator, PauliSum
from pauli_oracle import (
    bilinear_reference,
    lowering_reference,
    raising_reference,
    supports_reference,
    to_matrix,
)

ETA = {1: np.diag([1.0, -1.0]),
       2: np.diag([1.0, -1.0, -1.0]),
       3: np.diag([1.0, -1.0, -1.0, -1.0])}


def anticommutator_violations(mapping: FermionMapping) -> list[str]:
    """The relations {a_i, a_j^dag} = delta_ij and {a_i, a_j} = 0 that
    fail as Pauli operators."""
    n = mapping.n_modes
    lowers = [lowering_reference(mapping, j) for j in range(n)]
    raises = [raising_reference(mapping, j) for j in range(n)]
    violations = []
    for i in range(n):
        for j in range(n):
            ac = lowers[i] * raises[j] + raises[j] * lowers[i]
            expect = PauliOperator.identity(n) if i == j else PauliOperator.zero(n)
            if (ac - expect).n_terms:
                violations.append(f"{{a_{i}, adag_{j}}} != {int(i == j)}")
            ac0 = lowers[i] * lowers[j] + lowers[j] * lowers[i]
            if ac0.n_terms:
                violations.append(f"{{a_{i}, a_{j}}} != 0")
    return violations


def max_bilinear_support(mapping: FermionMapping) -> int:
    """Worst-case Pauli support over all hopping bilinears a_i^dag a_j."""
    return max(int(supports_reference(mapping.bilinear(i, j)).max())
               for i in range(mapping.n_modes) for j in range(mapping.n_modes)
               if i != j)


class TestClifford:
    def test_d1_dirac_rep(self):
        rep = clifford_rep(1)
        assert np.allclose(rep.gammas[0], np.diag([1, -1]))
        assert np.allclose(rep.gammas[1], 1j * np.array([[0, 1], [1, 0]]))

    def test_d1_signature(self):
        rep = clifford_rep(1)
        assert np.allclose(rep.gammas[0] @ rep.gammas[0], np.eye(2))
        assert np.allclose(rep.gammas[1] @ rep.gammas[1], -np.eye(2))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_anticommutation(self, d):
        rep = clifford_rep(d)
        eye = np.eye(rep.n_spinor)
        for mu in range(d + 1):
            for nu in range(d + 1):
                g = rep.gammas
                anti = g[mu] @ g[nu] + g[nu] @ g[mu]
                assert np.allclose(anti, 2 * ETA[d][mu, nu] * eye), (mu, nu)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gamma0_hermitian_traceless(self, d):
        g0 = clifford_rep(d).gammas[0]
        assert np.allclose(g0, g0.conj().T)
        assert abs(np.trace(g0)) < 1e-14

    def test_gamma_mix_d1(self):
        rep = clifford_rep(1)
        assert np.allclose(gamma_mix(rep, 1, 1.0),
                           np.array([[1, -1], [1, -1]], dtype=complex))

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            clifford_rep(4)


def dense_ladders(n):
    """Annihilation matrices in the occupation basis (mode 0 = index MSB)."""
    dim = 1 << n
    ops = []
    for j in range(n):
        a = np.zeros((dim, dim), dtype=complex)
        for idx in range(dim):
            bits = [(idx >> (n - 1 - k)) & 1 for k in range(n)]
            if bits[j]:
                sign = (-1) ** sum(bits[:j])
                a[idx & ~(1 << (n - 1 - j)), idx] = sign
        ops.append(a)
    return ops


def encoded_permutation(mapping):
    n = mapping.n_modes
    perm = np.zeros((1 << n, 1 << n))
    for idx in range(1 << n):
        occ = [(idx >> (n - 1 - k)) & 1 for k in range(n)]
        perm[mapping.encode_occupations(occ), idx] = 1.0
    return perm


class TestMappings:
    def test_jw_number_operator(self):
        m = fermion_mapping("jw", 2)
        got = {t.label: t.coeff for t in m.bilinear(0, 0).terms}
        assert got == {"II": 0.5, "ZI": -0.5}

    def test_jw_standard_hopping(self):
        m = fermion_mapping("jw", 2)
        hop = m.bilinear(0, 1) + m.bilinear(1, 0)
        got = {t.label: t.coeff for t in hop.terms}
        assert set(got) == {"XX", "YY"}
        assert abs(got["XX"] - 0.5) < 1e-14 and abs(got["YY"] - 0.5) < 1e-14

    def test_jw_distant_bilinear_has_z_chain(self):
        m = fermion_mapping("jw", 4)
        op = m.bilinear(0, 3)
        labels = sorted(t.label for t in op.terms)
        assert labels == ["XZZX", "XZZY", "YZZX", "YZZY"]

    @pytest.mark.parametrize("name", ["jw", "parity", "bk"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ladders_match_dense_oracle(self, name, n):
        m = fermion_mapping(name, n)
        perm = encoded_permutation(m)
        for j, ref in enumerate(dense_ladders(n)):
            enc = to_matrix(lowering_reference(m, j))
            assert np.max(np.abs(enc - perm @ ref @ perm.T)) < 1e-12

    def test_bk_bilinear_against_oracle_16(self):
        m = fermion_mapping("bk", 4)
        perm = encoded_permutation(m)
        ladders = dense_ladders(4)
        ref = perm @ (ladders[1].conj().T @ ladders[3]
                      + ladders[3].conj().T @ ladders[1]) @ perm.T
        got = to_matrix(m.bilinear(1, 3) + m.bilinear(3, 1))
        assert np.max(np.abs(got - ref)) < 1e-12

    @pytest.mark.parametrize("name,n", [("jw", 3), ("parity", 4), ("bk", 5),
                                        ("jw", 8), ("parity", 8), ("bk", 8)])
    def test_anticommutation_exact(self, name, n):
        assert anticommutator_violations(fermion_mapping(name, n)) == []

    @pytest.mark.parametrize("name", ["jw", "parity", "bk"])
    def test_diagonal_bilinear_is_iz_only(self, name):
        m = fermion_mapping(name, 5)
        for j in range(5):
            for t in m.bilinear(j, j).terms:
                assert t.x == 0  # only I and Z axes

    def test_bk_support_advantage_at_64(self):
        jw = fermion_mapping("jw", 64)
        bk = fermion_mapping("bk", 64)
        # the JW worst case is the full-length bilinear; scan BK exhaustively
        jw_worst = max(t.support for t in jw.bilinear(0, 63).terms)
        assert jw_worst == 64
        bk_worst = max_bilinear_support(bk)
        assert bk_worst < jw_worst

    def test_mode_out_of_range(self):
        m = fermion_mapping("jw", 3)
        for i, j in ((3, 0), (0, 3), (-1, 0)):
            with pytest.raises(ValueError, match="out of range"):
                m.bilinear(i, j)
        with pytest.raises(ValueError, match="out of range"):
            raising_reference(m, 3)

    def test_unknown_mapping(self):
        with pytest.raises(ValueError):
            fermion_mapping("ternary", 4)


@pytest.mark.parametrize("name", ["jw", "parity", "bk"])
@pytest.mark.parametrize("n", [1, 2, 5, 8, 9])
def test_bilinears_match_the_ladder_products_bit_for_bit(name, n):
    """Every a_i^dag a_j built from the masks has the strings and
    coefficient bits of the product of the ladder operators (of the
    number operator for i = j)."""
    m = fermion_mapping(name, n)
    for i in range(n):
        for j in range(n):
            got, want = m.bilinear(i, j), bilinear_reference(m, i, j)
            assert np.array_equal(got.masks, want.masks)
            assert np.array_equal(got.coeffs.view(np.uint64), want.coeffs.view(np.uint64))


@pytest.mark.parametrize("name", ["jw", "parity", "bk"])
def test_bilinears_scale_each_pair_on_a_wider_register(name):
    """One ``bilinears`` call over many pairs, each with its own scale, on
    a register of three mask words: each pair's rows merge to the scaled
    reference bilinear placed on that register."""
    m = fermion_mapping(name, 70)
    rng = np.random.default_rng(7)
    i, j = rng.integers(0, 70, 40), rng.integers(0, 70, 40)
    i[:5] = j[:5]
    c = rng.normal(size=40) + 1j * rng.normal(size=40)
    c[5] = 1.0
    masks, coeffs = m.bilinears(i, j, c, 130)
    assert masks.shape == (40, 4, 6) and coeffs.shape == (40, 4, 2)
    for k in range(40):
        acc = PauliSum(130)
        acc.add_rows(masks[k], coeffs[k])
        got, want = acc.to_operator(), bilinear_reference(m, i[k], j[k], c[k]).embed(130)
        assert np.array_equal(got.masks, want.masks)
        assert np.array_equal(got.coeffs, want.coeffs)
