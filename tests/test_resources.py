"""Resource accounting: per-link tables, qubit tables, CNOT formula, scaling."""

import dataclasses
import math

import numpy as np
import pytest

from lgt.lattice import LatticeSpec, RegisterLayout
from lgt.hamiltonian import ModelParams, assemble, build_electric, build_hopp_wilson
from lgt.matter import fermion_mapping
from lgt.pauli import PauliOperator, PauliString
from lgt.resources import (
    CSV_HEADER,
    closed_form_link_counts,
    cnot_per_trotter_step,
    enumerated_link_counts,
    link_resource_counts,
    plaquette_pauli_enumerated,
    plaquette_pauli_formula,
    predict_pauli_counts,
    rows_to_csv,
    scaling_table,
)
from pauli_oracle import spin_pauli_counts, supports_reference


def support_histogram(op: PauliOperator) -> dict[int, int]:
    values, counts = np.unique(supports_reference(op), return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def spin_scaling_fit(max_power: int = 10) -> tuple[float, float, float, list[int]]:
    """Least-squares re-fit a x^log2(3) + b x + c to Sx counts at d_S = 2^k."""
    dims = [2**k for k in range(1, max_power + 1)]
    counts = []
    for d_s in dims:
        spin = (d_s - 1) / 2
        counts.append(spin_pauli_counts(spin, "log").sx)
    x = np.array(dims, dtype=float)
    design = np.stack([x ** math.log2(3), x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.array(counts, dtype=float), rcond=None)
    return float(coef[0]), float(coef[1]), float(coef[2]), counts


# Appendix-style per-link columns: S -> (hopping, E op., E^2, plaquette)
PER_LINK = {
    0.5: (4, 1, 1, 8),
    1.0: (32, 4, 4, 15616),
    1.5: (12, 2, 2, 648),
    2.0: (80, 8, 8, 772096),
    3.0: (80, 8, 8, 772096),
    3.5: (32, 3, 4, 32768),
}

PLAQ_CLOSED = {
    7.5: 1280000,
    15.5: 42467328,
    31.5: 1258815488,
    63.5: 34359738368,
    127.5: 880602513408,       # quoted as 9 x 10^11
    255.5: 21474836480000,     # quoted as 2 x 10^14
}


class TestPerLinkCounts:
    @pytest.mark.parametrize("spin", sorted(PER_LINK))
    def test_enumerated_columns(self, spin):
        hop, eop, esq, plq = PER_LINK[spin]
        c = link_resource_counts(spin, "log")
        assert c.exact
        assert (c.hopping_factor, c.e_op, c.e_sq, c.plaquette) == (hop, eop, esq, plq)

    @pytest.mark.parametrize("spin", sorted(PLAQ_CLOSED))
    def test_plaquette_closed_form(self, spin):
        assert closed_form_link_counts(spin).plaquette == PLAQ_CLOSED[spin]

    def test_closed_form_matches_enumeration_small(self):
        # the plaquette is enumerated exactly up to d_S = 8; from d_S = 16 on
        # link_resource_counts takes the closed forms, which must agree
        for d_s in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
            spin = (d_s - 1) / 2
            closed = closed_form_link_counts(spin)
            enumerated = enumerated_link_counts(spin, "log")
            assert closed == dataclasses.replace(enumerated, exact=False)
            assert enumerated.exact == link_resource_counts(spin, "log").exact \
                == (d_s <= 8)

    def test_formula_equals_enumeration(self):
        for spin in (0.5, 1.0, 1.5, 2.0):
            c = link_resource_counts(spin, "log")
            assert plaquette_pauli_formula(c.u_real, c.u_imag, c.u_mixed) == \
                plaquette_pauli_enumerated(spin, "log")

    def test_linear_encoding_formula_too(self):
        c = link_resource_counts(1.0, "linear")
        assert plaquette_pauli_formula(c.u_real, c.u_imag, c.u_mixed) == c.plaquette


class TestPredictions:
    def test_hopping_bound_log(self):
        for spin in (0.5, 1.0, 1.5, 2.0):
            spec = LatticeSpec(1, (3,), "periodic")
            pred = predict_pauli_counts(spec, spin, "log")
            d_s = int(2 * spin + 1)
            assert pred.hopping <= 16 * spec.n_links * 4 * d_s**2

    def test_exact_counts_match_predictions(self):
        spec = LatticeSpec(1, (3,), "periodic")
        lay = RegisterLayout(spec, "log", 1.0)
        params = ModelParams(m=0.5, r=1.0, e=math.sqrt(2))
        mapping = fermion_mapping("jw", lay.n_fermionic)
        pred = predict_pauli_counts(spec, 1.0, "log")
        assert build_hopp_wilson(lay, params, mapping).n_terms == pred.hopping
        assert build_electric(lay, params).n_terms == pred.electric
        h = assemble(lay, params)
        assert h.mass.n_terms == pred.mass

    def test_cnot_additive_over_disjoint_sets(self):
        a = PauliOperator.from_terms(4, [PauliString.from_label("XXII", 1.0)])
        b = PauliOperator.from_terms(4, [PauliString.from_label("IIZZ", 1.0)])
        assert cnot_per_trotter_step(a + b) == \
            cnot_per_trotter_step(a) + cnot_per_trotter_step(b)

    def test_identity_and_single_support_cost_nothing(self):
        op = PauliOperator.from_terms(2, [
            PauliString.from_label("II", 1.0), PauliString.from_label("ZI", 1.0)])
        assert cnot_per_trotter_step(op) == 0

    def test_support_histogram(self):
        op = PauliOperator.from_terms(2, [
            PauliString.from_label("XX", 1.0), PauliString.from_label("ZI", 2.0)])
        assert support_histogram(op) == {1: 1, 2: 1}


def open_layout(extents, spin):
    return RegisterLayout(LatticeSpec(len(extents), extents, "open"), "log", spin)


class TestQubitTables:
    CASES_2D = [((2, 3), 0.5, 19), ((2, 3), 1.0, 26), ((2, 3), 1.5, 26),
                ((2, 3), 3.5, 33), ((4, 4), 0.5, 56), ((4, 4), 1.0, 80),
                ((4, 4), 7.5, 128), ((10, 10), 1.0, 560), ((10, 10), 3.5, 740),
                ((100, 100), 15.5, 119000)]
    CASES_3D = [((2, 2, 2), 0.5, 44), ((2, 2, 2), 1.0, 56), ((4, 4, 4), 1.0, 544),
                ((4, 4, 4), 15.5, 976), ((10, 10, 10), 31.5, 20200),
                ((100, 100, 100), 1.0, 9940000), ((100, 100, 100), 255.5, 30730000)]

    @pytest.mark.parametrize("extents,spin,total", CASES_2D + CASES_3D)
    def test_rows(self, extents, spin, total):
        assert open_layout(extents, spin).n_total == total

    def test_fermionic_gauge_split(self):
        lay = open_layout((4, 4), 1.0)
        assert (lay.n_fermionic, lay.n_gauge) == (32, 48)
        lay3 = open_layout((100, 100, 100), 255.5)
        assert (lay3.n_fermionic, lay3.n_gauge) == (4000000, 26730000)


class TestScalingTable:
    def test_csv_schema(self):
        spec = LatticeSpec(1, (3,), "periodic")
        rows = scaling_table(spec, 0.5, "log", ModelParams(m=1.0))
        text = rows_to_csv(rows)
        assert text.splitlines()[0] == CSV_HEADER
        assert any(line.startswith("total,0.5,log,") for line in text.splitlines())

    def test_formula_only_for_huge_spins(self):
        spec = LatticeSpec(2, (4, 4), "periodic")
        rows = scaling_table(spec, 63.5, "log", ModelParams(m=1.0))
        plaq = next(r for r in rows if r.term == "plaquette")
        assert plaq.n_pauli_exact is None and plaq.n_pauli_formula > 10**11


class TestSpinScalingFit:
    def test_linear_coefficient_window(self):
        a, b, c, counts = spin_scaling_fit(10)
        assert 1.7 <= b <= 2.0
        assert counts[0] == 1  # d_S = 2 -> single Pauli string

    def test_perfect_counts_closed_form(self):
        _, _, _, counts = spin_scaling_fit(6)
        for k, n in enumerate(counts, start=1):
            d_s = 2**k
            assert n == d_s * (k + 1) // 4
