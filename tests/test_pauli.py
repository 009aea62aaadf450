"""Tests for the Pauli-string algebra and its dense-matrix oracle."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_tensor_product_rejects_shared_qubits():
    acc = PauliSum(4)
    a = PauliOperator.from_label("XXII")
    with pytest.raises(ValueError, match="share a qubit"):
        acc.add_tensor_product([a, PauliOperator.from_label("IZZI")])
    with pytest.raises(ValueError, match="qubit-count"):
        acc.add_tensor_product([a, PauliOperator.from_label("Z")])
    acc.add_tensor_product([a, PauliOperator.from_label("IIZY")])
    assert [t.label for t in acc.to_operator().terms] == ["XXZY"]
