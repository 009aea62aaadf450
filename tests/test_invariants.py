"""Property tests of the assembled Hamiltonian over random couplings:
hermiticity, the Gauss-law sector, [H, G_x] = 0 and Trotter norm."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgt.cli import PRESETS, build_layout, validate_config
from lgt.dynamics import (
    ORDERINGS,
    Coset,
    OperatorAction,
    StateVector,
    gauss_filter,
    trotter_plan,
    trotter_states,
)
from lgt.hamiltonian import ModelParams, assemble, build_gauss
from lgt.matter import MAPPING_NAMES, fermion_mapping
from lgt.pauli import PauliOperator, PauliString
from pauli_oracle import commutator, is_hermitian

SCENARIOS = ("vacuum_decay", "string_breaking_1d", "double_plaquette_2d")


class Systems:
    """Layout, mapping and G_x = 0 sector per (scenario, mapping), built once.

    The sector depends on theta, so theta stays at the preset's value.
    """

    def __init__(self):
        self._built = {}

    def get(self, name: str, mapping_name: str):
        key = (name, mapping_name)
        if key not in self._built:
            sc = validate_config(PRESETS[name] | {"scenario": name})
            lay = build_layout(sc)
            mapping = fermion_mapping(mapping_name, lay.n_fermionic)
            params = sc.params
            _, sector = gauss_filter(lay, mapping, params, Coset.full(lay.n_total))
            self._built[key] = lay, mapping, params.theta, sector
        return self._built[key]


@pytest.fixture(scope="module")
def systems():
    return Systems()


couplings = st.fixed_dictionaries({
    "m": st.floats(-2.0, 2.0),
    "r": st.floats(0.0, 2.0),
    "e": st.floats(0.1, 3.0),
    "lam": st.floats(0.0, 30.0),
})


def hamiltonian(lay, mapping_name, theta, c):
    params = ModelParams(c["m"], c["r"], c["e"], theta, c["lam"])
    return params, assemble(lay, params, mapping_name)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SCENARIOS), st.sampled_from(MAPPING_NAMES), couplings)
def test_hermitian_and_keeps_gauss_sector(systems, name, mapping_name, c):
    lay, _, theta, sector = systems.get(name, mapping_name)
    _, h = hamiltonian(lay, mapping_name, theta, c)
    assert is_hermitian(h.total)
    OperatorAction(h.total, basis=sector)  # raises if H leaves the sector
    # sum_x G_x^2 is positive semi-definite: a zero diagonal means G_x = 0
    src, diag = OperatorAction(h.gauss, basis=sector).groups[0]
    assert src is None and np.abs(diag).max() <= 1e-9


@pytest.mark.parametrize("name, size", [("vacuum_decay", 48),
                                        ("string_breaking_1d", 14),
                                        ("double_plaquette_2d", 528)])
def test_sector_spectrum_same_for_every_mapping(systems, name, size):
    sc = validate_config(PRESETS[name] | {"scenario": name})
    spectra = {}
    for mapping_name in MAPPING_NAMES:
        lay, _, _, sector = systems.get(name, mapping_name)
        assert len(sector) == size
        h = assemble(lay, sc.params, mapping_name)
        matrix = OperatorAction(h.total, basis=sector).matrix().toarray()
        spectra[mapping_name] = np.linalg.eigvalsh(matrix)
    for mapping_name in ("parity", "bk"):
        assert np.abs(spectra[mapping_name] - spectra["jw"]).max() <= 1e-9


def commutes_to_roundoff(h: PauliOperator, g: PauliOperator) -> bool:
    """[H, G] = 0 up to round-off: no coefficient of the commutator is
    above eps * sum|h| * sum|g|, the scale of the products it sums."""
    def abs_coeffs(op):
        return np.hypot(op.re, op.im)

    bound = np.finfo(float).eps * abs_coeffs(h).sum() * abs_coeffs(g).sum()
    return abs_coeffs(commutator(h, g)).max(initial=0.0) <= bound


# At S=1/2 in the log encoding every link state is physical, so G_x
# commutes with H on the whole register; at S=1 only on the physical
# link states, where the check would need a projection.
# The example leaves one Z coefficient of 1.8e-12 in [H, G_x], just above
# DROP_TOL: round-off of 0.08 eps sum|h| sum|g|, with sum|h| = 11,107.
@example("jw", {"m": 0.0, "r": 0.0, "e": 2.982404879743815, "lam": 29.625})
@settings(max_examples=15, deadline=None)
@given(st.sampled_from(MAPPING_NAMES), couplings)
def test_gauss_law_commutes_at_spin_half(systems, mapping_name, c):
    lay, mapping, theta, _ = systems.get("double_plaquette_2d", mapping_name)
    params, h = hamiltonian(lay, mapping_name, theta, c)
    g_ops, _ = build_gauss(lay, params, mapping)
    for g in g_ops:
        assert commutes_to_roundoff(h.total, g)


def test_gauss_law_check_sees_a_small_violation(systems):
    # an X on a link qubit flips that link's flux; at 1e-6 it leaves a
    # residual of about 3e-6 in [H, G_x] at the sites the link touches
    lay, mapping, theta, _ = systems.get("double_plaquette_2d", "jw")
    params, h = hamiltonian(lay, "jw", theta, {"m": 0.0, "r": 0.0,
                                               "e": 2.982404879743815, "lam": 29.625})
    g_ops, _ = build_gauss(lay, params, mapping)
    n = lay.n_total
    kick = PauliString(n, 1 << lay.gauge_offset(lay.links[0]), 0, 1e-6)
    bad = h.total + PauliOperator.from_terms(n, [kick])
    assert all(commutes_to_roundoff(h.total, g) for g in g_ops)
    assert not all(commutes_to_roundoff(bad, g) for g in g_ops)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SCENARIOS[:2]), st.sampled_from(MAPPING_NAMES), couplings,
       st.floats(1e-3, 0.5), st.integers(1, 3), st.sampled_from(ORDERINGS),
       st.integers(0, 2**32 - 1))
def test_trotter_steps_keep_norm(systems, name, mapping_name, c, dt, n_steps,
                                 ordering, seed):
    lay, _, theta, _ = systems.get(name, mapping_name)
    _, h = hamiltonian(lay, mapping_name, theta, c)
    rng = np.random.default_rng(seed)
    dim = 1 << lay.n_total
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    start = StateVector(lay.n_total, amps / np.linalg.norm(amps))
    plan = trotter_plan(h, dt, n_steps, ordering)
    for _, st_t in trotter_states(start, plan):
        assert abs(st_t.norm - 1.0) < 1e-12
