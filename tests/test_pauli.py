"""Tests for the Pauli-string algebra and its dense-matrix oracle."""

import hashlib
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgt import pauli
from lgt.cli import build_layout, load_config, validate_config
from lgt.hamiltonian import assemble
from lgt.pauli import (
    DROP_TOL,
    PauliOperator,
    PauliString,
    PauliSum,
    classify,
    decompose_matrix,
)
from pauli_oracle import (
    add_product_reference,
    commutator,
    is_hermitian,
    merge_reference,
    place_reference,
    product_reference,
    string_action,
    to_matrix,
)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def op(label, coeff=1.0):
    return PauliOperator.from_label(label, coeff)


def rand_strings(rng, n, k):
    out = []
    for _ in range(k):
        label = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        c = complex(rng.normal(), rng.normal())
        out.append(PauliString.from_label(label, c))
    return out


def sparse_strings(rng, n, k):
    """k random strings on n qubits; about half are mostly I, so that whole
    bytes of the sort key are zero."""
    p_identity = rng.choice([0.25, 0.95], size=(k, 1))
    codes = np.where(rng.random((k, n)) < p_identity, 0, rng.integers(1, 4, (k, n)))
    return [PauliString.from_label("".join("IXYZ"[c] for c in row),
                                   complex(*rng.normal(size=2)))
            for row in codes]


def product_term(a: PauliString, b: PauliString) -> PauliString:
    """The one string of the product of two single-term operators."""
    (term,) = (PauliOperator.from_terms(a.n, [a])
               * PauliOperator.from_terms(b.n, [b])).terms
    return term


class TestMultiply:
    def test_single_qubit_relations(self):
        x = PauliString.from_label("X")
        y = PauliString.from_label("Y")
        z = PauliString.from_label("Z")
        xy, yx, yz, zx = (product_term(*p) for p in ((x, y), (y, x), (y, z), (z, x)))
        assert xy.label == "Z" and xy.coeff == 1j
        assert yx.coeff == -1j
        assert yz.coeff == 1j and yz.label == "X"
        assert zx.coeff == 1j and zx.label == "Y"

    def test_disjoint_supports_commute(self):
        prod = product_term(PauliString.from_label("XI"), PauliString.from_label("IX"))
        assert prod.label == "XX" and prod.coeff == 1

    def test_string_squares_to_identity(self):
        for label in ("X", "Y", "Z", "XYZI", "YZZY"):
            p = PauliString.from_label(label, 2.5 - 1j)
            q = PauliString.from_label(label, 1 / (2.5 - 1j))
            prod = product_term(p, q)
            assert prod.x == 0 and prod.z == 0
            assert abs(prod.coeff - 1) < 1e-14

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            product_term(PauliString.from_label("X"), PauliString.from_label("XX"))

    def test_support_bound(self):
        rng = np.random.default_rng(7)
        for a, b in zip(rand_strings(rng, 5, 50), rand_strings(rng, 5, 50)):
            assert product_term(a, b).support <= a.support + b.support

    def test_matrix_oracle_agreement(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 4):
            for a, b in zip(rand_strings(rng, n, 20), rand_strings(rng, n, 20)):
                lhs = to_matrix(PauliOperator.from_terms(n, [product_term(a, b)]))
                rhs = to_matrix(PauliOperator.from_terms(n, [a])) @ \
                    to_matrix(PauliOperator.from_terms(n, [b]))
                assert np.allclose(lhs, rhs, atol=0)


class TestSimplify:
    def test_merges_like_terms(self):
        o = PauliOperator.from_terms(1, [
            PauliString.from_label("Z", 1.0), PauliString.from_label("Z", 1.0)])
        assert o.n_terms == 1 and o.terms[0].coeff == 2

    def test_cancellation_gives_zero(self):
        o = PauliOperator.from_terms(1, [
            PauliString.from_label("X", 1.0), PauliString.from_label("X", -1.0)])
        assert o.n_terms == 0

    def test_drop_below_tolerance(self):
        assert DROP_TOL == 1e-12
        o = PauliOperator.from_terms(
            1, [PauliString.from_label("Y", 1e-14)])
        assert o.n_terms == 0

    def test_nan_coefficient_is_kept(self):
        o = PauliOperator.from_terms(1, [PauliString.from_label("Z", float("nan"))])
        assert o.n_terms == 1 and np.isnan(o.terms[0].coeff)
        acc = PauliSum(1)
        acc.add_string(1, 0, complex(float("nan"), 0.0))
        acc.hermitize()
        assert np.isnan(acc.to_operator().terms[0].coeff)

    def test_canonical_order_is_label_order(self):
        rng = np.random.default_rng(11)
        o = PauliOperator.from_terms(3, rand_strings(rng, 3, 40))
        labels = [t.label for t in o.terms]
        assert labels == sorted(labels)


class TestCanonicalOrder:
    # widths around the 8-qubit bytes of the sort key; 5000 terms span
    # more than one key block
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 130])
    @pytest.mark.parametrize("k", [0, 1, 300, 5000])
    def test_terms_in_label_order(self, n, k):
        strings = sparse_strings(np.random.default_rng(1009 * n + k), n, k)
        o = PauliOperator.from_terms(n, strings)
        labels = [t.label for t in o.terms]
        assert labels == sorted(labels)  # ASCII order is I < X < Y < Z
        masks = [(t.x, t.z) for t in o.terms]
        assert len(set(masks)) == len(masks)
        assert set(masks) == {(s.x, s.z) for s in strings}

    # SHA-256 prefixes of the assembled total, term by term (masks and
    # coefficient bits in canonical order), fixed before the key sort
    # replaced the string-formatting one
    @pytest.mark.parametrize("config, n_terms, digest", [
        ("vacuum_decay.json", 466, "58570ba8613a226e"),
        ("double_plaquette_2d.json", 192, "59949a792fee4bb9"),
        ("string_breaking_1d_light.json", 305, "f7cf78e5521daef5"),
        ({"lattice": {"d": 2, "extents": [3, 3], "boundary": "open"},
          "model": {"m": 0.4, "e": 2.0}, "spin": 1.0}, 64178, "ad478c34b4243755"),
        # n = 102: a link register on qubits 63-65 spans two mask words
        ({"lattice": {"d": 1, "extents": [21], "boundary": "open"},
          "model": {"m": 0.4, "e": 2.0}, "spin": 2.0}, 8095, "73c0d0a697312278"),
        # d = 3: 24 plaquettes over 24 distinct links
        ({"lattice": {"d": 3, "extents": [2, 2, 2], "boundary": "periodic"},
          "model": {"m": 0.4, "e": 2.0}, "spin": 0.5}, 1341, "f20c17207074af5f"),
    ], ids=["vacuum_decay", "double_plaquette_2d", "string_breaking_1d_light",
            "custom_3x3_open_s1", "custom_21_chain_s2", "custom_222_periodic_s05"])
    def test_assembled_terms_match_golden_digest(self, tmp_path, config,
                                                 n_terms, digest):
        if isinstance(config, dict):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
        else:
            path = CONFIGS / config
        sc = validate_config(load_config(path))
        total = assemble(build_layout(sc), sc.params, sc.mapping).total
        h = hashlib.sha256()
        for t in total.terms:
            c = t.coeff
            h.update(f"{t.x:x},{t.z:x},{c.real.hex()},{c.imag.hex()};".encode())
        assert (total.n_terms, h.hexdigest()[:16]) == (n_terms, digest)


# configs of the golden digests above, by id
GOLDEN_CONFIGS = {
    "vacuum_decay": "vacuum_decay.json",
    "double_plaquette_2d": "double_plaquette_2d.json",
    "string_breaking_1d_light": "string_breaking_1d_light.json",
    "custom_3x3_open_s1": {"lattice": {"d": 2, "extents": [3, 3], "boundary": "open"},
                           "model": {"m": 0.4, "e": 2.0}, "spin": 1.0},
    "custom_21_chain_s2": {"lattice": {"d": 1, "extents": [21], "boundary": "open"},
                           "model": {"m": 0.4, "e": 2.0}, "spin": 2.0},
    "custom_222_periodic_s05": {"lattice": {"d": 3, "extents": [2, 2, 2],
                                            "boundary": "periodic"},
                                "model": {"m": 0.4, "e": 2.0}, "spin": 0.5},
}
GOLDEN_FIELDS = ("total", "mass", "hopp_wilson", "gauss")


def golden_digest(op) -> tuple[int, str]:
    """The term count and the SHA-256 prefix of an operator's terms (masks
    and coefficient bits in canonical order)."""
    h = hashlib.sha256()
    for t in op.terms:
        c = t.coeff
        h.update(f"{t.x:x},{t.z:x},{c.real.hex()},{c.imag.hex()};".encode())
    return op.n_terms, h.hexdigest()[:16]


# the term counts of GOLDEN_FIELDS, and their digests under each mapping,
# recorded before the mass, hopping and Gauss terms were built in batches
@pytest.mark.parametrize("config, counts, digests", [
    ("vacuum_decay", (466, 6, 384, 76), {
        "jw": ("58570ba8613a226e", "980518f212914a49", "b7410ed5ad192d12", "f6db6db13c090ebd"),
        "parity": ("6373810a92964af6", "900eed80a7c73f7f", "112d9cf7671a5795",
                   "fdcfebc7bc75b557"),
        "bk": ("c9e463bd93064c70", "8f0debe06cb99e45", "a92d6d0c664a1d3e", "176adfc43485f4ff")}),
    ("double_plaquette_2d", (192, 12, 112, 59), {
        "jw": ("59949a792fee4bb9", "d4e29d50366c455e", "1567747ef9d570c8", "8dd1d9e50d4c5182"),
        "parity": ("4ed44ab218bb91f7", "646b767f4fa5aef4", "30adf1efe2fff41a",
                   "b0162d3be77c5129"),
        "bk": ("4ce40947c33f72cf", "b32e2269851e82a3", "359a25f0fd7bef90", "11659e4f6e14d25a")}),
    ("string_breaking_1d_light", (305, 6, 256, 47), {
        "jw": ("f7cf78e5521daef5", "9a19ffc444c442f3", "f3a359a15b42fcd5", "4632e53a3e91f005"),
        "parity": ("d4bd7ee83fd9036e", "ebb73163521d380a", "3303cbd36a5b7881",
                   "0436faf343967fad"),
        "bk": ("e57b345fedcb1a62", "29faa3aacbaeec67", "9596ef65831b7611", "eca39d961638b00d")}),
    ("custom_3x3_open_s1", (64178, 18, 1536, 400), {
        "jw": ("ad478c34b4243755", "4ea98b2227602601", "ecb90df3aa644945", "9ed46abc117d6acb"),
        "parity": ("bcf73c31d1e5b216", "65726314c036b644", "4f0c1ce18b56fd98",
                   "4d097d0717405036"),
        "bk": ("31a5bb194a56fc8b", "3c609d005cfc87b2", "4023f6ea6b246a10", "937684746243c8e3")}),
    ("custom_21_chain_s2", (8095, 42, 6400, 1657), {
        "jw": ("73c0d0a697312278", "144cdaf26ebf7ba9", "5ed15e6878bf48c7", "830a04398361379b"),
        "parity": ("88ba1b64be7846c9", "4cf70677d2dafb6d", "1a2b9e0912f537ac",
                   "c472fb5dc6fbfeb2"),
        "bk": ("1cc7d5dc50d61850", "56161011f692cf02", "20340d6b8c52d48e", "190ee69f454ef4e2")}),
    ("custom_222_periodic_s05", (1341, 32, 768, 349), {
        "jw": ("f20c17207074af5f", "4b6404b81ebc87dc", "c570abb2fdf7806d", "2d5aa8cb7a8ad254"),
        "parity": ("9a77f5be6f5ad3a4", "94e44d627b232671", "2b771ecb60cf02ae",
                   "17eefd98c2fb87d0"),
        "bk": ("da275cbadd9309e8", "7c625b9340f8fa4a", "176df83357e356e3", "070c9e273fd53a22")}),
], ids=list(GOLDEN_CONFIGS))
def test_assembled_fields_match_golden_digests_under_every_mapping(tmp_path, config,
                                                                   counts, digests):
    config = GOLDEN_CONFIGS[config]
    if isinstance(config, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
    else:
        path = CONFIGS / config
    sc = validate_config(load_config(path))
    layout = build_layout(sc)
    for mapping, want in digests.items():
        terms = assemble(layout, sc.params, mapping)
        got = [golden_digest(getattr(terms, field)) for field in GOLDEN_FIELDS]
        assert got == list(zip(counts, want)), mapping


class TestMatrixOracle:
    def test_diag_z(self):
        assert np.array_equal(to_matrix(op("Z")), np.diag([1, -1]).astype(complex))

    def test_half_x_plus_half_y(self):
        o = PauliOperator.from_terms(1, [
            PauliString.from_label("X", 0.5), PauliString.from_label("Y", 0.5)])
        expect = np.array([[0, (1 - 1j) / 2], [(1 + 1j) / 2, 0]])
        assert np.allclose(to_matrix(o), expect, atol=0)

    def test_decompose_diag(self):
        o = decompose_matrix(np.diag([1.0, -1.0]))
        assert [t.label for t in o.terms] == ["Z"]

    def test_decompose_identity(self):
        o = decompose_matrix(np.eye(4))
        assert [t.label for t in o.terms] == ["II"]
        assert o.terms[0].coeff == 1

    def test_appendix_style_spin1_x(self):
        sx = np.zeros((4, 4), dtype=complex)
        sx[0, 1] = sx[1, 0] = sx[1, 2] = sx[2, 1] = 1 / np.sqrt(2)
        sx[3, 3] = 1.0
        o = decompose_matrix(sx)
        got = {t.label: t.coeff for t in o.terms}
        s = 1 / (2 * np.sqrt(2))
        expect = {"II": 0.25, "IZ": -0.25, "ZI": -0.25, "ZZ": 0.25,
                  "IX": s, "XX": s, "YY": s, "ZX": s}
        assert set(got) == set(expect)
        for k, v in expect.items():
            assert abs(got[k] - v) < 1e-14

    def test_roundtrip_random_3q(self):
        rng = np.random.default_rng(5)
        o = PauliOperator.from_terms(3, rand_strings(rng, 3, 25))
        back = decompose_matrix(to_matrix(o))
        assert back.n_terms == o.n_terms
        for a, b in zip(back.terms, o.terms):
            assert (a.x, a.z) == (b.x, b.z)
            assert abs(a.coeff - b.coeff) < 1e-12

    def test_dense_roundtrip_random_matrix(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3):
            m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            assert np.allclose(to_matrix(decompose_matrix(m)), m, atol=1e-12)

    def test_hermitian_gives_real_coeffs(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = m + m.conj().T
        o = decompose_matrix(m)
        assert is_hermitian(o)

    def test_orthogonality_of_strings(self):
        # Tr(P^dag Q) / 2^n = delta_PQ, exhaustive on 2 qubits
        import itertools
        for la in map("".join, itertools.product("IXYZ", repeat=2)):
            ma = to_matrix(op(la))
            for lb in map("".join, itertools.product("IXYZ", repeat=2)):
                mb = to_matrix(op(lb))
                val = np.trace(ma.conj().T @ mb) / 4
                assert abs(val - (1.0 if la == lb else 0.0)) < 1e-14

    def test_dimension_not_power_of_two(self):
        with pytest.raises(ValueError):
            decompose_matrix(np.eye(3))


class TestClassify:
    def test_basic_partition(self):
        o = PauliOperator.from_terms(1, [
            PauliString.from_label("X", 2.0), PauliString.from_label("Y", 3j)])
        assert classify(o) == (1, 1, 0)

    def test_counts_sum_to_terms(self):
        rng = np.random.default_rng(21)
        o = PauliOperator.from_terms(4, rand_strings(rng, 4, 60))
        c = classify(o)
        assert c.n_real + c.n_imag + c.n_mixed == o.n_terms


class TestAlgebraOps:
    def test_commutator_xy(self):
        c = commutator(op("X"), op("Y"))
        assert [s.label for s in c.terms] == ["Z"]
        assert c.terms[0].coeff == 2j

    def test_commutator_matrix_oracle(self):
        rng = np.random.default_rng(17)
        a = PauliOperator.from_terms(3, rand_strings(rng, 3, 10))
        b = PauliOperator.from_terms(3, rand_strings(rng, 3, 10))
        lhs = to_matrix(commutator(a, b))
        ma, mb = to_matrix(a), to_matrix(b)
        assert np.allclose(lhs, ma @ mb - mb @ ma, atol=1e-12)

    def test_support_example(self):
        assert PauliString.from_label("XIZY").support == 3

    def test_embed(self):
        o = op("XZ").embed(4, offset=1)
        assert [s.label for s in o.terms] == ["IXZI"]

    def test_string_action_matches_matrix(self):
        rng = np.random.default_rng(33)
        for s in rand_strings(rng, 3, 10):
            flip, phases = string_action(s)
            m = np.zeros((8, 8), dtype=complex)
            idx = np.arange(8)
            m[idx ^ flip, idx] = phases
            assert np.allclose(m, to_matrix(PauliOperator.from_terms(3, [s._replace(coeff=1.0)])))


@st.composite
def pauli_operators(draw, n=3, max_terms=6):
    k = draw(st.integers(min_value=1, max_value=max_terms))
    terms = []
    for _ in range(k):
        label = draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
        re = draw(st.floats(-2, 2, allow_nan=False))
        im = draw(st.floats(-2, 2, allow_nan=False))
        terms.append(PauliString.from_label(label, complex(re, im)))
    return PauliOperator.from_terms(n, terms)


@settings(max_examples=60, deadline=None)
@given(pauli_operators(), pauli_operators())
def test_product_matches_matrix_product(a, b):
    assert np.allclose(to_matrix(a * b), to_matrix(a) @ to_matrix(b), atol=1e-10)


def assert_product_bits(a: PauliOperator, b: PauliOperator) -> None:
    got = {(t.x, t.z): t.coeff for t in (a * b).terms}
    want = product_reference(a, b)
    assert got.keys() == want.keys()
    for key, c in want.items():
        assert (got[key].real.hex(), got[key].imag.hex()) == (c.real.hex(), c.imag.hex())


# widths around the 64-qubit mask words; b sits on a subregister that may
# straddle a word boundary
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 5, 63, 64, 65, 130]).flatmap(lambda n: st.tuples(
           pauli_operators(n), st.integers(1, min(n, 6)).flatmap(
               lambda k: st.tuples(pauli_operators(k), st.integers(0, n - k))))))
def test_product_bits_match_the_scalar_rule(ops):
    a, (b, offset) = ops
    assert_product_bits(a, b.embed(a.n_qubits, offset))


def test_product_bits_match_the_scalar_rule_when_strings_repeat():
    # 144 products onto at most 4^n strings: the order of each sum shows
    rng = np.random.default_rng(41)
    for n in (1, 2, 3):
        a, b = (PauliOperator.from_terms(n, rand_strings(rng, n, 12)) for _ in range(2))
        assert_product_bits(a, b)


@settings(max_examples=60, deadline=None)
@given(pauli_operators())
def test_decompose_is_left_inverse_of_to_matrix(o):
    back = decompose_matrix(to_matrix(o))
    assert np.allclose(to_matrix(back), to_matrix(o), atol=1e-10)



@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
           pauli_operators(n), st.integers(1, n).flatmap(
               lambda k: st.tuples(pauli_operators(k), st.integers(0, n - k))))),
       st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False))
def test_scaled_product_on_a_subregister_matches_matrix_product(ops, scale):
    a, (b, offset) = ops
    b = b.embed(a.n_qubits, offset)
    expect = scale * to_matrix(a) @ to_matrix(b)
    assert np.allclose(to_matrix(a.scale(scale) * b), expect, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(pauli_operators))
def test_sum_hermitize_adds_the_adjoint(t):
    acc = PauliSum(t.n_qubits)
    acc.add_operator(t)
    acc.hermitize()
    m = to_matrix(t)
    assert np.allclose(to_matrix(acc.to_operator()), m + m.conj().T, atol=1e-10)


def assert_same_rows(got, want) -> None:
    """Two (masks, coeffs) row sets match: the same masks, and the same
    coefficient bits (-0.0 included) wherever neither is NaN."""
    (gm, gc), (wm, wc) = got, want
    assert np.array_equal(gm, wm)
    # a NaN matches any NaN: IEEE 754 leaves the sign and payload of a
    # NaN result open, and NumPy's loops differ in them by memory layout
    nan = np.isnan(gc)
    assert np.array_equal(nan, np.isnan(wc))
    assert np.array_equal(gc.view(np.uint64)[~nan], wc.view(np.uint64)[~nan])


MERGE_PARTS = st.one_of(
    st.floats(-2, 2, allow_nan=False),
    # a zero real part is dropped by hermitize before the merge; 1e-13
    # sums stay below DROP_TOL
    st.sampled_from([0.0, -0.0, 1e-13, float("inf"), -float("inf"), float("nan")]))


@st.composite
def merge_steps(draw):
    """A qubit count and a run of accumulator steps: chunks of rows drawn
    from a few strings (so strings repeat within and across chunks), in
    no particular order, possibly one row or none, with merges
    (``to_operator``) and ``hermitize`` in between."""
    n = draw(st.sampled_from([1, 3, 8, 64, 65, 130]))
    mask = st.integers(0, (1 << n) - 1)
    pool = draw(st.lists(st.tuples(mask, mask), min_size=1, max_size=6))
    row = st.tuples(st.sampled_from(pool), MERGE_PARTS, MERGE_PARTS)
    step = st.one_of(st.lists(row, max_size=8),
                     st.sampled_from(["to_operator", "hermitize"]))
    return n, draw(st.lists(step, min_size=1, max_size=8))


@settings(max_examples=150, deadline=None)
@given(merge_steps())
def test_merges_match_the_concatenated_reference(case):
    """``to_operator`` and ``hermitize`` against ``merge_reference``, with
    the old ``hermitize`` (2 Re of each merged string whose real part is
    not 0) on top, step by step on one accumulator."""
    n, steps = case
    acc = PauliSum(n)
    merged, parts = acc._no_rows(), []
    for step in steps + ["to_operator"]:
        if isinstance(step, list):
            xs, zs = [x for (x, _), _, _ in step], [z for (_, z), _, _ in step]
            acc.add_strings(xs, zs, [complex(re, im) for _, re, im in step])
            if step:
                parts.append((acc._parts[-1][0].copy(), acc._parts[-1][1].copy()))
            continue
        if parts:
            merged, parts = merge_reference(n, [merged, *parts]), []
        if step == "hermitize":
            acc.hermitize()
            masks, coeffs = merged
            keep = coeffs[:, 0] != 0
            doubled = np.zeros((int(keep.sum()), 2))
            doubled[:, 0] = 2 * coeffs[keep, 0]
            merged = masks[keep], doubled
            assert_same_rows(acc._merged, merged)
        else:
            got = acc.to_operator()
            masks, coeffs = merged
            keep = ~(np.hypot(coeffs[:, 0], coeffs[:, 1]) < DROP_TOL)
            assert_same_rows((got.masks, got.coeffs), (masks[keep], coeffs[keep]))


def test_merge_of_long_runs_of_repeats_matches_the_reference():
    # thousands of rows on 16 strings, in chunks that a merge joins and
    # splits across its blocks of rows: each sum runs over both blocks,
    # and the duplicate flags cross a block boundary inside a string's run
    rng = np.random.default_rng(43)
    for n in (2, 70):
        acc, chunks = PauliSum(n), []
        for size in (1500, 1, 5000):
            xs = rng.integers(0, 4, size).tolist()
            zs = rng.integers(0, 2, size).tolist()
            acc.add_strings(xs, zs, rng.normal(size=size) + 1j * rng.normal(size=size))
            chunks.append(acc._parts[-1])
        want = merge_reference(n, chunks)
        got = acc.to_operator()
        assert_same_rows((got.masks, got.coeffs), want)


def merges_into_run():
    """Spy on ``PauliSum._merge_into_run``, which still runs."""
    return mock.patch.object(PauliSum, "_merge_into_run", autospec=True,
                             side_effect=PauliSum._merge_into_run)


@st.composite
def run_merges(draw):
    """A qubit count, then chunks in insertion order: canonical operators
    before and after one canonical run that holds more rows than they do
    together, all on strings of one pool (so a string repeats across the
    chunks on both sides and in the run), with +-0.0, inf and NaN parts;
    then chunks added after that first merge, which its result outweighs."""
    n = draw(st.sampled_from([1, 64, 65, 130]))
    mask = st.integers(0, (1 << n) - 1)
    pool = draw(st.lists(st.tuples(mask, mask), min_size=3, max_size=12, unique=True))

    def operator(min_size, max_size=None):
        strings = draw(st.lists(st.sampled_from(pool), min_size=min_size,
                                max_size=max_size, unique=True))
        # the canonical order of the strings, then any coefficients
        masks = PauliOperator.from_terms(
            n, [PauliString(n, x, z, 1.0) for x, z in strings]).masks
        parts = draw(st.lists(st.tuples(MERGE_PARTS, MERGE_PARTS),
                              min_size=len(masks), max_size=len(masks)))
        return PauliOperator(n, masks, np.array(parts, dtype=float).reshape(-1, 2))

    run = operator(3)
    # before, after, later; before and after hold fewer rows than the run
    sides, budget = ([], [], []), run.n_terms - 1
    for k in range(draw(st.integers(1, 6))):
        side = draw(st.sampled_from([0, 1] if k == 0 else [0, 1, 2]))
        if side < 2 and not budget:
            continue
        op = operator(1, budget if side < 2 else None)
        sides[side].append(op)
        if side < 2:
            budget -= op.n_terms
    return n, sides[0], run, sides[1], sides[2]


@settings(max_examples=150, deadline=None)
@given(run_merges())
def test_merge_into_a_run_matches_the_concatenated_reference(case):
    """With ``_ORDER_BLOCK`` = 2 a merge of more than two rows into a run
    takes the run path; it and a later merge into its result match
    ``merge_reference`` bit for bit."""
    n, before, run, after, later = case
    acc = PauliSum(n)
    for op in before + [run] + after:
        acc.add_operator(op)
    with mock.patch.object(pauli, "_ORDER_BLOCK", 2), merges_into_run() as into_run:
        got = acc._merge()
        assert into_run.call_count == 1
        want = merge_reference(n, [(op.masks, op.coeffs) for op in before + [run] + after])
        assert_same_rows(got, want)
        for op in later:
            acc.add_operator(op)
        if later:
            want = merge_reference(n, [want] + [(op.masks, op.coeffs) for op in later])
        assert_same_rows(acc._merge(), want)


def test_merge_into_a_large_run_matches_the_reference():
    # a 20,000-row run on three mask words, chunks of repeats on both
    # sides, some strings of the run and some new: the fences are tens of
    # rows apart, and the run moves in several blocks of rows
    rng = np.random.default_rng(44)
    n = 130
    strings = {(int(x), int(z)) for x, z in zip(rng.integers(0, 1 << 62, 20000),
                                                 rng.integers(0, 1 << 62, 20000))}
    run = PauliOperator.from_terms(
        n, [PauliString(n, x << 66, z << 67, complex(*rng.normal(size=2)))
            for x, z in strings])
    acc, chunks = PauliSum(n), []
    for i, size in enumerate((600, 1, 400)):
        if i == 1:
            acc.add_operator(run)
            chunks.append((run.masks, run.coeffs))
        # strings of the run, and every third one with qubit 0 set: new
        picks = rng.integers(0, 300, size) * (run.n_terms // 300)
        xs = [int(x) << 64 | (k % 3 == 0) for k, x in enumerate(run.x[picks, 1])]
        zs = [int(z) << 64 for z in run.z[picks, 1]]
        acc.add_strings(xs, zs, rng.normal(size=size) + 1j * rng.normal(size=size))
        chunks.append(acc._parts[-1])
    want = merge_reference(n, chunks)
    with merges_into_run() as into_run:
        got = acc._merge()
    assert into_run.call_count == 1
    assert_same_rows(got, want)


@st.composite
def grouped_rows(draw):
    """A qubit count, an operator count, and rows in no particular order,
    each tagged with its operator, all on strings of one pool (so a
    string repeats within an operator and across operators), with +-0.0,
    inf and NaN parts, possibly in several chunks."""
    n = draw(st.sampled_from([1, 8, 64, 65, 130]))
    mask = st.integers(0, (1 << n) - 1)
    pool = draw(st.lists(st.tuples(mask, mask), min_size=1, max_size=8))
    count = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(st.integers(0, count - 1), st.sampled_from(pool),
                                   MERGE_PARTS, MERGE_PARTS), max_size=40))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    return n, count, rows, cuts


@settings(max_examples=150, deadline=None)
@given(grouped_rows())
def test_grouped_merge_matches_the_reference_for_each_operator(case):
    """``to_operators`` gives each operator the rows that
    ``merge_reference`` gives its rows on their own, less those below
    ``DROP_TOL``: the grouped merge keeps every operator's sums in its own
    insertion order."""
    n, count, rows, cuts = case
    acc = PauliSum(n)
    for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
        acc.add_strings([x for _, (x, _), _, _ in rows[lo:hi]],
                        [z for _, (_, z), _, _ in rows[lo:hi]],
                        [complex(re, im) for _, _, re, im in rows[lo:hi]])
    got = acc.to_operators([g for g, *_ in rows], count)
    assert len(got) == count and not acc._parts
    acc.add_string(0, 0, 1.0)
    acc.to_operator()
    with pytest.raises(ValueError, match="never merged"):
        acc.to_operators([], count)
    for g, op in enumerate(got):
        own = PauliSum(n)
        own.add_strings([x for h, (x, _), _, _ in rows if h == g],
                        [z for h, (_, z), _, _ in rows if h == g],
                        [complex(re, im) for h, _, re, im in rows if h == g])
        if own._parts:
            masks, coeffs = merge_reference(n, own._parts)
            keep = ~(np.hypot(coeffs[:, 0], coeffs[:, 1]) < DROP_TOL)
            assert_same_rows((op.masks, op.coeffs), (masks[keep], coeffs[keep]))
        else:
            assert op.n_terms == 0


def test_add_strings_rejects_masks_outside_the_register():
    acc = PauliSum(3)
    for x, z in ((1 << 5, 0), (0, 1 << 3), (-1, 0)):
        with pytest.raises(ValueError, match="outside the 3-qubit register"):
            acc.add_string(x, z, 1.0)
    with pytest.raises(ValueError, match="outside"):
        PauliOperator.from_terms(3, [PauliString(3, 1 << 5, 0, 1.0)])
    acc.add_string(0b100, 0b101, 1.0)
    assert [t.label for t in acc.to_operator().terms] == ["ZIY"]


def test_coefficient_rejects_another_qubit_count():
    o = op("XY", 0.5)
    assert o.coefficient("XY") == 0.5 and o.coefficient("ZZ") == 0.0
    for probe in ("XYI", "X", PauliString(3, 1, 2, 1.0)):
        with pytest.raises(ValueError, match="2-qubit operator"):
            o.coefficient(probe)


def test_place_moves_each_register_across_mask_words():
    o = PauliOperator.from_terms(6, [PauliString.from_label("XYZYXZ", 0.5),
                                     PauliString.from_label("IZIIYI", -1.0)])
    got = o.place(130, [62, 70, 127])
    want = PauliOperator.from_terms(130, [
        PauliString.from_label(
            "I" * 62 + a + "I" * 6 + b + "I" * 55 + c + "I", coeff)
        for (a, b, c), coeff in ((("XY", "ZY", "XZ"), 0.5), (("IZ", "II", "YI"), -1.0))])
    assert np.array_equal(got.masks, want.masks)
    assert np.array_equal(got.coeffs, want.coeffs)
    assert np.shares_memory(got.coeffs, o.coeffs)
    for offsets in ([0, 1, 4], [-1, 4, 8], [0, 4, 129], [0, 2, 4, 6]):
        with pytest.raises(ValueError, match="out of register"):
            o.place(130, offsets)


@st.composite
def placements(draw):
    """An operator on 1-3 registers of 1-70 qubits each, and a register of
    up to 280 qubits with each register placed after a gap of 0-70."""
    width, k = draw(st.integers(1, 70)), draw(st.integers(1, 3))
    gaps = draw(st.lists(st.integers(0, 70), min_size=k + 1, max_size=k + 1))
    offsets = [sum(gaps[:i + 1]) + i * width for i in range(k)]
    mask = st.integers(0, (1 << k * width) - 1)
    strings = draw(st.lists(st.tuples(mask, mask), min_size=1, max_size=6))
    o = PauliOperator.from_terms(k * width, [PauliString(k * width, x, z, 1.0 + i)
                                             for i, (x, z) in enumerate(strings)])
    return o, offsets[-1] + width + gaps[-1], offsets


@settings(max_examples=200, deadline=None)
@given(placements())
def test_place_matches_python_int_moves_and_keeps_the_order(case):
    o, n, offsets = case
    got, want = o.place(n, offsets), place_reference(o, n, offsets)
    assert np.array_equal(got.masks, want.masks)
    assert np.shares_memory(got.coeffs, o.coeffs)
    # the placed strings are still in canonical order
    assert np.array_equal(PauliOperator.from_terms(n, got.terms).masks, got.masks)


@settings(max_examples=100, deadline=None)
@given(placements(), st.lists(st.integers(-70, 70), min_size=1, max_size=5))
def test_placements_match_each_place(case, shifts):
    """One ``placements`` call over several copies, in any order and
    landing in the same or other mask words, gives each copy's ``place``
    masks."""
    o, n, offsets = case
    rows = [[q + s for q in offsets] for s in shifts
            if offsets[0] + s >= 0 and offsets[-1] + s + o.n_qubits // len(offsets) <= n]
    got = o.placements(n, rows)
    assert got.shape == (len(rows), o.n_terms, 2 * ((n + 63) // 64 or 1))
    for copy, row in zip(got, rows):
        assert np.array_equal(copy, place_reference(o, n, row).masks)


def assert_tensor_product_bits(factors, scale) -> None:
    """add_tensor_product appends the rows that the chained product
    identity * f_1 * ... * f_k, scaled by .scale(scale) and added with
    add_operator, appends: the same masks in the same (canonical) order, and the same
    coefficient bits, NaN aside."""
    n = factors[0].n_qubits
    got = PauliSum(n)
    got.add_tensor_product(factors, scale)
    prod = PauliOperator.identity(n)
    for f in factors:
        prod = prod * f
    want = PauliSum(n)
    want.add_operator(prod.scale(scale))
    assert len(got._parts) == len(want._parts)
    for rows, want_rows in zip(got._parts, want._parts):
        assert_same_rows(rows, want_rows)


TENSOR_COEFFS = st.one_of(
    st.floats(-2, 2, allow_nan=False),
    # two 1e-7 factors make a partial product below DROP_TOL; NaN and inf
    # must pass through (inf * 0.0 turns into NaN as in the chain)
    st.sampled_from([1e-7, -1e-7, float("nan"), float("inf"), -float("inf")]))


def disjoint_operators(draw, widths: list[int], coeffs) -> list[PauliOperator]:
    """Operators of the given widths on disjoint qubit ranges of one
    register, in range order (ranges may straddle a mask word)."""
    n = draw(st.sampled_from([sum(widths), 64, 65, 130]).filter(lambda m: m >= sum(widths)))
    ops, start, slack = [], 0, n - sum(widths)
    for w in widths:
        gap = draw(st.integers(0, slack))
        start, slack = start + gap, slack - gap
        terms = [PauliString.from_label(draw(st.text(alphabet="IXYZ", min_size=w, max_size=w)),
                                        draw(coeffs))
                 for _ in range(draw(st.integers(1, 4)))]
        ops.append(PauliOperator.from_terms(w, terms).embed(n, start))
        start += w
    return ops


@st.composite
def tensor_factors(draw):
    """Up to four factors on disjoint qubit ranges in a random order, one
    of them possibly the identity string alone, and a scale."""
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    factors = disjoint_operators(draw, widths, st.builds(complex, TENSOR_COEFFS, TENSOR_COEFFS))
    n = factors[0].n_qubits
    if draw(st.booleans()):
        factors.append(PauliOperator.identity(n, complex(draw(TENSOR_COEFFS), 0.5)))
    scale = draw(st.sampled_from([1.0, -0.25, 1e6, complex(0.3, -2.0)]))
    return draw(st.permutations(factors)), scale


@settings(max_examples=80, deadline=None)
@given(tensor_factors())
def test_tensor_product_bits_match_the_chained_product(case):
    assert_tensor_product_bits(*case)


def test_tensor_product_edge_coefficients_match_the_chained_product():
    n = 9
    tiny = PauliOperator.from_terms(2, [PauliString.from_label("XY", 1e-7),
                                        PauliString.from_label("ZI", 0.5)]).embed(n, 0)
    also_tiny = PauliOperator.from_terms(3, [PauliString.from_label("IYX", -1e-7j),
                                             PauliString.from_label("ZZI", 2.0)]).embed(n, 2)
    overflow = PauliOperator.from_terms(2, [
        PauliString.from_label("XI", complex(float("inf"), 1.0)),
        PauliString.from_label("YZ", complex(0.5, float("nan")))]).embed(n, 5)
    identity = PauliOperator.identity(n, 1.5 - 0.25j)
    # (-0.5i)(-2i) = -1 - 0.0i, which the merge writes as -1 + 0.0i
    imaginary = [PauliOperator.from_label("X", -0.5j).embed(n, 7),
                 PauliOperator.from_label("Y", -2j).embed(n, 8)]
    # the 1e-14 partial products are dropped although the scale lifts them
    # over DROP_TOL
    for scale in (1.0, 1e6):
        assert_tensor_product_bits([also_tiny, identity, tiny, overflow], scale)
        assert_tensor_product_bits([identity], scale)
        assert_tensor_product_bits(imaginary, scale)
    acc = PauliSum(n)
    acc.add_tensor_product([tiny, also_tiny], 1e6)
    assert acc.to_operator().n_terms == 3


# coefficients with |c| >= 1e-6, and scale parts that are not powers of
# two, so that scaling a factor first and scaling the product last round
# differently
PRODUCT_COEFFS = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)).filter(
    lambda c: abs(c) >= 1e-6)
SCALE_PARTS = st.floats(-2, 2).filter(
    lambda v: abs(v) >= 1e-3 and abs(math.frexp(v)[0]) != 0.5)


@st.composite
def scaled_pairs(draw):
    """Two operators on disjoint qubit ranges, either range first, and a
    complex scale."""
    widths = draw(st.lists(st.integers(1, 4), min_size=2, max_size=2))
    a, b = draw(st.permutations(disjoint_operators(draw, widths, PRODUCT_COEFFS)))
    return a, b, complex(draw(SCALE_PARTS), draw(SCALE_PARTS))


@settings(max_examples=100, deadline=None)
@given(scaled_pairs())
def test_tensor_product_with_a_scaled_factor_matches_the_scaled_product(case):
    """A hopping term, the tensor product of the bilinear scaled first and
    the link's U, has the masks and coefficient bits of the general product
    with the scale on its first factor, which built it before."""
    a, b, scale = case
    got, want = PauliSum(a.n_qubits), PauliSum(a.n_qubits)
    got.add_tensor_product([a.scale(scale), b])
    add_product_reference(want, a, b, scale)
    got, want = got.to_operator(), want.to_operator()
    assert np.array_equal(got.masks, want.masks)
    assert np.array_equal(got.coeffs.view(np.uint64), want.coeffs.view(np.uint64))


@st.composite
def tensor_batches(draw):
    """Up to four products of the same factors' strings, each with its own
    coefficients, and a scale."""
    factors, scale = draw(tensor_factors())
    batch = [factors]
    for _ in range(draw(st.integers(0, 3))):
        batch.append([PauliOperator(f.n_qubits, f.masks, np.array(draw(st.lists(
            st.tuples(TENSOR_COEFFS, TENSOR_COEFFS), min_size=f.n_terms,
            max_size=f.n_terms)), dtype=float).reshape(-1, 2)) for f in factors])
    return batch, scale


@settings(max_examples=60, deadline=None)
@given(tensor_batches())
def test_batched_tensor_products_append_each_product_in_order(case):
    """``add_tensor_products`` appends, in order, the rows that
    ``add_tensor_product`` appends for each product."""
    batch, scale = case
    n = batch[0][0].n_qubits
    got, want = PauliSum(n), PauliSum(n)
    got.add_tensor_products([(np.stack([f[i].masks for f in batch]),
                              np.stack([f[i].coeffs for f in batch]))
                             for i in range(len(batch[0]))], scale)
    for factors in batch:
        want.add_tensor_product(factors, scale)
    assert_same_rows(*[(np.concatenate([m for m, _ in acc._parts] or [np.zeros((0, 2))]),
                        np.concatenate([c for _, c in acc._parts] or [np.zeros((0, 2))]))
                       for acc in (got, want)])


def test_tensor_product_rejects_shared_qubits():
    acc = PauliSum(4)
    a = PauliOperator.from_label("XXII")
    with pytest.raises(ValueError, match="share a qubit"):
        acc.add_tensor_product([a, PauliOperator.from_label("IZZI")])
    with pytest.raises(ValueError, match="qubit-count"):
        acc.add_tensor_product([a, PauliOperator.from_label("Z")])
    acc.add_tensor_product([a, PauliOperator.from_label("IIZY")])
    assert [t.label for t in acc.to_operator().terms] == ["XXZY"]
