"""Statevector kernels, Trotter/exact evolution, observables, Gauss filter."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import lgt.dynamics
from lgt.cli import (
    PRESETS,
    build_layout,
    initial_index,
    load_config,
    validate_config,
)
from lgt.dynamics import (
    Coset,
    ExactEvolver,
    OperatorAction,
    StateVector,
    apply_pauli_exp,
    basis_config_label,
    config_probabilities,
    decode_basis,
    gauss_filter,
    gauss_law,
    loschmidt,
    standard_observables,
    trotter_plan,
    trotter_states,
    trotter_step,
)
from lgt.gauge import flux_state_index
from lgt.hamiltonian import ModelParams, assemble
from lgt.lattice import LatticeSpec, RegisterLayout, StaticLink
from lgt.matter import fermion_mapping
from lgt.pauli import PauliOperator, PauliString
from pauli_oracle import string_action, to_matrix


def random_state(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, v / np.linalg.norm(v))


def random_hermitian_sum(rng, n, k):
    terms = []
    for _ in range(k):
        label = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        terms.append(PauliString.from_label(label, rng.normal()))
    op = PauliOperator.from_terms(n, terms)
    return 0.5 * (op + op.dagger())


@pytest.fixture(scope="module")
def vacuum_system():
    spec = LatticeSpec(1, (3,), "periodic")
    lay = RegisterLayout(spec, "log", 1.0)
    params = ModelParams(m=0.5, r=1.0, e=math.sqrt(2), lam=10.0)
    h = assemble(lay, params, "jw")
    bits = [0, 1] * 3 + [0, 1] * 3
    index = sum(b << (11 - q) for q, b in enumerate(bits))
    return lay, params, h, StateVector.basis_state(12, index)


@pytest.fixture(scope="module")
def string_system():
    spec = LatticeSpec(1, (3,), "open",
                       (StaticLink((-1,), 0, 1.0), StaticLink((2,), 0, 1.0)))
    lay = RegisterLayout(spec, "log", 1.0)
    params = ModelParams(m=0.4, r=1.0, e=2.0, lam=20.0)
    h = assemble(lay, params, "jw")
    bits = [0, 1] * 3 + [0, 0] * 2
    index = sum(b << (9 - q) for q, b in enumerate(bits))
    return lay, params, h, StateVector.basis_state(10, index)


class TestPauliExp:
    def test_z_phase_on_zero(self):
        st = StateVector.basis_state(1, 0)
        apply_pauli_exp(st, PauliString.from_label("Z"), 0.7)
        assert abs(st.amps[0] - np.exp(-0.7j)) < 1e-14

    def test_x_half_pi(self):
        st = StateVector.basis_state(1, 0)
        apply_pauli_exp(st, PauliString.from_label("X"), np.pi / 2)
        assert abs(st.amps[0]) < 1e-14
        assert abs(st.amps[1] + 1j) < 1e-14

    def test_against_matrix_exponential(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            label = "".join(rng.choice(list("IXYZ")) for _ in range(4))
            theta = rng.normal()
            st = random_state(rng, 4)
            ref = expm(-1j * theta * to_matrix(PauliOperator.from_label(label))) @ st.amps
            apply_pauli_exp(st, PauliString.from_label(label), theta)
            assert np.max(np.abs(st.amps - ref)) < 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        st = random_state(rng, 5)
        for _ in range(50):
            label = "".join(rng.choice(list("IXYZ")) for _ in range(5))
            apply_pauli_exp(st, PauliString.from_label(label), rng.normal())
        assert abs(st.norm - 1.0) < 1e-12

    def test_rejects_size_mismatch(self):
        st = StateVector.basis_state(3, 0)
        with pytest.raises(ValueError, match="size mismatch"):
            apply_pauli_exp(st, PauliString.from_label("XZ"), 0.1)


class TestOperatorAction:
    def test_matches_dense(self):
        rng = np.random.default_rng(23)
        h = random_hermitian_sum(rng, 6, 30)
        act = OperatorAction(h)
        st = random_state(rng, 6)
        assert np.max(np.abs(act(st.amps) - to_matrix(h) @ st.amps)) < 1e-12

    def test_expectation(self):
        rng = np.random.default_rng(29)
        h = random_hermitian_sum(rng, 5, 20)
        st = random_state(rng, 5)
        ref = np.vdot(st.amps, to_matrix(h) @ st.amps).real
        assert abs(OperatorAction(h).expectation(st) - ref) < 1e-12


class TestExactEvolution:
    def test_t_zero_is_identity(self):
        rng = np.random.default_rng(31)
        h = random_hermitian_sum(rng, 4, 10)
        st = random_state(rng, 4)
        out = ExactEvolver(h).evolve(st, 0.0)
        assert np.array_equal(out.amps, st.amps)

    def test_diagonal_h_per_amplitude_phases(self):
        h = PauliOperator.from_terms(2, [PauliString.from_label("ZI", 0.5),
                                         PauliString.from_label("IZ", -0.25)])
        st = StateVector(2, np.ones(4, dtype=complex) / 2)
        out = ExactEvolver(h).evolve(st, 1.0)
        energies = np.array([0.25, 0.75, -0.75, -0.25])
        assert np.max(np.abs(out.amps - st.amps * np.exp(-1j * energies))) < 1e-13

    def test_matches_expm_8q(self):
        rng = np.random.default_rng(37)
        h = random_hermitian_sum(rng, 8, 25)
        st = random_state(rng, 8)
        ref = expm(-1j * 0.9 * to_matrix(h)) @ st.amps
        out = ExactEvolver(h).evolve(st, 0.9)
        assert np.max(np.abs(out.amps - ref)) < 1e-12

    def test_gauss_sector_matches_expm(self, string_system):
        lay, params, h, s0 = string_system
        _, sector = gauss_filter(lay, fermion_mapping("jw", 6), params,
                                  Coset.full(lay.n_total))
        ref = expm(-1j * 0.7 * to_matrix(h.total)) @ s0.amps
        out = ExactEvolver(h.total, sector).evolve(s0, 0.7)
        assert np.max(np.abs(out.amps - ref)) < 1e-11
        assert not out.amps[np.setdiff1d(np.arange(1 << 10), sector)].any()

    def test_rejects_basis_h_leaves(self, vacuum_system):
        _, _, h, s0 = vacuum_system
        vacuum = int(np.argmax(s0.probabilities()))
        with pytest.raises(ValueError, match="out of itself"):
            ExactEvolver(h.total, [vacuum])

    def test_rejects_state_outside_basis(self, string_system):
        lay, params, h, s0 = string_system
        _, sector = gauss_filter(lay, fermion_mapping("jw", 6), params,
                                  Coset.full(lay.n_total))
        ev = ExactEvolver(h.total, sector)
        outside = next(i for i in range(1 << 10) if i not in sector)
        mixed = StateVector(10, (s0.amps + StateVector.basis_state(10, outside).amps)
                            / math.sqrt(2))
        with pytest.raises(ValueError, match="outside"):
            ev.evolve(mixed, 0.1)
        with pytest.raises(ValueError, match="outside"):
            ev.energy(mixed)

    def test_energy_conserved(self, string_system):
        _, _, h, s0 = string_system
        ev = ExactEvolver(h.total)
        e0 = ev.energy(s0)
        st = s0
        for _ in range(10):
            st = ev.evolve(st, 0.2)
            assert abs(ev.energy(st) - e0) < 1e-9
        assert abs(st.norm - 1.0) < 1e-10

    def test_size_guards(self):
        h = PauliOperator.from_label("Z" * 25)
        with pytest.raises(ValueError, match="24 qubits"):
            ExactEvolver(h)


class TestLoschmidt:
    def test_t_zero_unity(self, vacuum_system):
        *_, s0 = vacuum_system
        assert abs(loschmidt(s0, s0) - 1.0) < 1e-15

    def test_orthogonal_states(self):
        a = StateVector.basis_state(3, 0)
        b = StateVector.basis_state(3, 5)
        assert loschmidt(a, b) == 0.0

    def test_vacuum_decay_value(self, vacuum_system):
        _, _, h, s0 = vacuum_system
        st = ExactEvolver(h.total).evolve(s0, 0.4)
        assert abs(loschmidt(s0, st) - 0.825) < 0.005


class TestTrotter:
    def test_commuting_terms_exact_any_dt(self, string_system):
        _, _, h, s0 = string_system
        diag = h.elec + h.mass
        plan = trotter_plan(diag, dt=0.7, n_steps=2)
        st = s0.copy()
        trotter_step(st, plan)
        trotter_step(st, plan)
        ref = ExactEvolver(diag).evolve(s0, 1.4)
        assert np.max(np.abs(st.amps - ref.amps)) < 1e-12

    def test_single_term_reduces_to_pauli_exp(self):
        p = PauliString.from_label("XZ", 0.8)
        h = PauliOperator.from_terms(2, [p])
        s0 = StateVector.basis_state(2, 1)
        plan = trotter_plan(h, dt=0.3, n_steps=1)
        st = s0.copy()
        trotter_step(st, plan)
        ref = s0.copy()
        apply_pauli_exp(ref, p, 0.8 * 0.3)
        assert np.max(np.abs(st.amps - ref.amps)) < 1e-14

    def test_norm_per_step(self, vacuum_system):
        _, _, h, s0 = vacuum_system
        plan = trotter_plan(h, dt=0.1, n_steps=5)
        for _, st in trotter_states(s0, plan):
            assert abs(st.norm - 1.0) < 1e-12

    def test_first_order_convergence(self, vacuum_system):
        _, _, h, s0 = vacuum_system
        ev = ExactEvolver(h.total)
        ts = np.arange(0.2, 2.001, 0.2)
        exact, st = [], s0
        for _ in ts:
            st = ev.evolve(st, 0.2)
            exact.append(loschmidt(s0, st))
        errs = {}
        for dt in (0.1, 0.05):
            plan = trotter_plan(h, dt, int(round(2.0 / dt)))
            vals = {round(t, 9): loschmidt(s0, s) for t, s in trotter_states(s0, plan)}
            tr = np.array([vals[round(t, 9)] for t in ts])
            errs[dt] = np.max(np.abs(tr - np.array(exact)))
        assert 1.6 <= errs[0.1] / errs[0.05] <= 2.4

    def test_orderings(self, vacuum_system):
        _, _, h, s0 = vacuum_system
        canonical = trotter_plan(h, 0.1, 1, "canonical")
        rev = trotter_plan(h, 0.1, 1, "reversed")
        grouped = trotter_plan(h, 0.1, 1, "by_term_group")
        assert canonical.strings == tuple(reversed(rev.strings))
        assert len(grouped.strings) >= len(canonical.strings)
        a, b = s0.copy(), s0.copy()
        trotter_step(a, canonical)
        trotter_step(b, rev)
        assert not np.allclose(a.amps, b.amps)  # ordering matters at finite dt

    def test_step_matches_string_action_reference(self, vacuum_system):
        _, _, h, _ = vacuum_system
        plan = trotter_plan(h, 0.07, 1)
        st = random_state(np.random.default_rng(41), 12)
        ref = st.amps.copy()
        idx = np.arange(1 << 12)
        for t in plan.strings:
            flip, phases = string_action(t)
            theta = t.coeff.real * plan.dt
            moved = (phases * ref)[idx ^ flip]
            ref = math.cos(theta) * ref - 1j * math.sin(theta) * moved
        trotter_step(st, plan)
        assert np.max(np.abs(st.amps - ref)) <= 1e-13

    def test_steps_leave_module_state_unchanged(self):
        def sizes():
            return {name: (val.cache_info().currsize if hasattr(val, "cache_info")
                           else np.size(val) if isinstance(val, np.ndarray)
                           else len(val))
                    for name, val in vars(lgt.dynamics).items()
                    if hasattr(val, "cache_info")
                    or isinstance(val, (dict, list, set, tuple, np.ndarray))}

        before = sizes()
        rng = np.random.default_rng(43)
        h = random_hermitian_sum(rng, 11, 20)
        st = random_state(rng, 11)
        plan = trotter_plan(h, 0.1, 2)
        for _, st in trotter_states(st, plan):
            pass
        apply_pauli_exp(st, PauliString.from_label("XYZ" + "I" * 8), 0.3)
        assert sizes() == before

    def test_rejects_nonhermitian(self):
        h = PauliOperator.from_terms(1, [PauliString.from_label("X", 1j)])
        with pytest.raises(ValueError):
            trotter_plan(h, 0.1, 1)


class TestObservables:
    def test_bare_vacuum_all_zero(self, vacuum_system):
        lay, params, _, s0 = vacuum_system
        mapping = fermion_mapping("jw", 6)
        values = standard_observables(s0, lay, mapping, params)
        assert abs(values["total_particle_number"]) < 1e-12
        for name, val in values.items():
            if name.startswith(("charge", "flux")):
                assert abs(val) < 1e-12

    def test_flux_string_links(self, string_system):
        lay, params, _, s0 = string_system
        mapping = fermion_mapping("jw", 6)
        obs = standard_observables(s0, lay, mapping, params)
        assert abs(obs["flux_link0"] - params.e) < 1e-12
        assert abs(obs["flux_link1"] - params.e) < 1e-12

    def test_single_pair_counts_two(self, vacuum_system):
        lay, params, _, _ = vacuum_system
        mapping = fermion_mapping("jw", 6)
        # particle at site 0, antiparticle at site 1, flux +1 in between
        bits = [1, 1, 0, 0, 0, 1] + [0, 0, 0, 1, 0, 1]
        index = sum(b << (11 - q) for q, b in enumerate(bits))
        st = StateVector.basis_state(12, index)
        obs = standard_observables(st, lay, mapping, params)
        assert abs(obs["total_particle_number"] - 2.0) < 1e-12
        assert abs(obs["charge_site0"] - params.e) < 1e-12
        assert abs(obs["charge_site1"] + params.e) < 1e-12

    @pytest.mark.parametrize("mapping_name", ["jw", "parity", "bk"])
    @pytest.mark.parametrize("occupations, number, charge", [
        ((0, 1), 0, 0), ((1, 1), 1, 1), ((0, 0), 1, -1), ((1, 0), 2, 0),
    ], ids=["vac", "part", "anti", "pair"])
    def test_site_labels_on_basis_states(self, mapping_name, occupations,
                                         number, charge):
        # single site, no links: two mode qubits only
        lay = RegisterLayout(LatticeSpec(1, (1,), "open"), "log", 0.5)
        mapping = fermion_mapping(mapping_name, 2)
        params = ModelParams(m=0.5, e=1.5)
        st = StateVector.basis_state(2, mapping.encode_occupations(occupations))
        obs = standard_observables(st, lay, mapping, params)
        assert obs["total_particle_number"] == number
        assert obs["charge_site0"] == charge * params.e

    @pytest.mark.parametrize("mapping_name", ["jw", "parity", "bk"])
    def test_support_readout_matches_full_tables(self, vacuum_system,
                                                 mapping_name):
        lay, params, _, _ = vacuum_system
        mapping = fermion_mapping(mapping_name, 6)
        # bare vacuum: every link register 01 holds flux 0
        index = mapping.encode_occupations([0, 1] * 3) << 6 | 0b010101
        plan = trotter_plan(assemble(lay, params, mapping_name), 0.1, 3)
        *_, (_, st) = trotter_states(StateVector.basis_state(12, index), plan)
        # reference: every basis index decoded, dotted with the probabilities
        probs = st.probabilities()
        occ, flux = decode_basis(lay, mapping, params.theta_along,
                                 np.arange(1 << 12))
        ref = {"total_particle_number":
               probs @ (occ[:, 0::2] - occ[:, 1::2] + 1).sum(axis=1)}
        for s in range(3):
            ref[f"charge_site{s}"] = probs @ (
                params.e * (occ[:, 2 * s] + occ[:, 2 * s + 1] - 1.0))
        for li in range(3):
            ref[f"flux_link{li}"] = probs @ np.nan_to_num(flux[:, li] * params.e)
        obs = standard_observables(st, lay, mapping, params)
        assert list(obs) == list(ref)
        assert ref["total_particle_number"] > 1e-3
        for name, val in ref.items():
            assert abs(obs[name] - val) <= 1e-12, name

    def test_double_plaquette_readout_memory(self):
        cfg = PRESETS["double_plaquette_2d"] | {"scenario": "double_plaquette_2d"}
        sc = validate_config(cfg)
        lay = build_layout(sc)
        mapping = fermion_mapping(sc.mapping, lay.n_fermionic)
        params = sc.params
        s0 = StateVector.basis_state(
            lay.n_total, initial_index(sc.initial, lay, mapping, params))
        assert s0.n_qubits == 19
        tracemalloc.start()
        try:
            obs = standard_observables(s0, lay, mapping, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert obs["total_particle_number"] == 0.0
        assert obs["flux_link0"] == obs["flux_link3"] == params.e


class TestConfigReadout:
    def test_basis_state_label(self, vacuum_system):
        lay, params, _, s0 = vacuum_system
        mapping = fermion_mapping("jw", 6)
        probs = config_probabilities(s0, lay, mapping, params)
        assert probs == {"ooo|0;0;0": 1.0}

    def test_probabilities_sum_to_one(self, vacuum_system):
        lay, params, h, s0 = vacuum_system
        st = ExactEvolver(h.total).evolve(s0, 0.4)
        probs = config_probabilities(st, lay, mapping=fermion_mapping("jw", 6),
                                     params=params)
        assert abs(sum(probs.values()) - 1.0) < 1e-10

    def test_empty_readout(self, vacuum_system):
        lay, params, *_ = vacuum_system
        mapping = fermion_mapping("jw", 6)
        labels = basis_config_label(lay, mapping, params.theta_along,
                                    np.array([], dtype=np.int64))
        assert labels.shape == (0,) and labels.dtype.kind == "U"
        # every probability is 1e-14, below the readout tolerance
        st = StateVector(12, np.full(1 << 12, 1e-7, dtype=complex))
        assert config_probabilities(st, lay, mapping, params) == {}

    def test_vacuum_decay_decomposition(self, vacuum_system):
        lay, params, h, s0 = vacuum_system
        st = ExactEvolver(h.total).evolve(s0, 0.4)
        probs = config_probabilities(st, lay, fermion_mapping("jw", 6), params)
        assert abs(probs["ooo|0;0;0"] - 0.825) < 0.005
        six = ["pao|1;0;0", "apo|-1;0;0", "opa|0;1;0",
               "oap|0;-1;0", "poa|0;0;-1", "aop|0;0;1"]
        for label in six:
            assert abs(probs[label] - 0.027) < 0.003

    def test_unphysical_link_label(self, vacuum_system):
        lay, params, *_ = vacuum_system
        mapping = fermion_mapping("jw", 6)
        # link 0 in the unused fourth state |11>
        bits = [0, 1] * 3 + [1, 1] + [0, 1] * 2
        index = sum(b << (11 - q) for q, b in enumerate(bits))
        label = basis_config_label(lay, mapping, params.theta_along, index)
        assert label.split("|")[1].split(";")[0] == "x"

    def test_linear_encoding_decode(self):
        lay = RegisterLayout(LatticeSpec(1, (2,), "open"), "linear", 1.0)
        mapping = fermion_mapping("jw", 4)

        def theta(k):
            return 0.25

        pa = mapping.encode_occupations([1, 1, 0, 0]) << 3
        indices = [pa | flux_state_index(1.0, "linear", m) for m in (-1, 0, 1)]
        occ, flux = decode_basis(lay, mapping, theta, indices)
        assert occ.tolist() == [[1, 1, 0, 0]] * 3
        assert flux[:, 0].tolist() == [-0.75, 0.25, 1.25]
        labels = basis_config_label(lay, mapping, theta, indices)
        assert labels.tolist() == ["pa|-0.75", "pa|0.25", "pa|1.25"]
        # a one-hot register with no or several hot qubits holds no flux state
        for reg in (0b000, 0b011, 0b111):
            assert np.isnan(decode_basis(lay, mapping, theta, [pa | reg])[1]).all()
            assert basis_config_label(lay, mapping, theta, pa | reg) == "pa|x"


# small 1-D and 2-D lattices whose registers fit an int64 basis index
REGISTER_LATTICES = [(1, (1,), "open"), (1, (2,), "open"), (1, (3,), "periodic"),
                     (2, (2, 2), "open"), (2, (3, 2), "open"), (2, (2, 2), "periodic")]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["jw", "parity", "bk"]), st.sampled_from(["log", "linear"]),
       st.sampled_from([0.5, 1.0, 1.5]), st.sampled_from(REGISTER_LATTICES),
       st.data())
def test_register_map_round_trip(mapping_name, encoding, spin, lattice, data):
    lay = RegisterLayout(LatticeSpec(*lattice), encoding, spin)
    mapping = fermion_mapping(mapping_name, lay.n_fermionic)
    d_s, n_links = round(2 * spin + 1), len(lay.links)

    def theta(k):
        return 0.25 * (k + 1)

    occupations = data.draw(st.lists(st.integers(0, 1), min_size=lay.n_fermionic,
                                     max_size=lay.n_fermionic))
    fluxes = [spin - l for l in data.draw(
        st.lists(st.integers(0, d_s - 1), min_size=n_links, max_size=n_links))]
    index = mapping.encode_occupations(occupations) << lay.n_gauge
    for li, m in enumerate(fluxes):
        index |= flux_state_index(spin, encoding, m) << lay.register_shift(li)
    expect = [m + theta(link.direction) for m, link in zip(fluxes, lay.links)]
    occ, flux = decode_basis(lay, mapping, theta, [index])
    assert occ.tolist() == [occupations] and flux.tolist() == [expect]

    # every register value that holds no flux state decodes to NaN, on its
    # link alone
    width = lay.qubits_per_link
    window = {flux_state_index(spin, encoding, spin - l) for l in range(d_s)}
    outside = [r for r in range(1 << width) if r not in window]
    for li in range(n_links):
        shift = lay.register_shift(li)
        cleared = index & ~(((1 << width) - 1) << shift)
        occ, flux = decode_basis(lay, mapping, theta,
                                 [cleared | r << shift for r in outside])
        assert (occ == occupations).all()
        assert np.isnan(flux[:, li]).all()
        assert (np.delete(flux, li, axis=1) == np.delete(expect, li)).all()


class TestGaussFilter:
    def test_vacuum_decay_48_of_1728(self, vacuum_system):
        lay, params, _, s0 = vacuum_system
        total, inv = gauss_filter(lay, fermion_mapping("jw", 6), params,
                                  Coset.full(lay.n_total))
        assert (total, len(inv)) == (1728, 48)
        assert int(np.argmax(s0.probabilities())) in inv

    def test_string_breaking_14_of_576(self, string_system):
        lay, params, _, s0 = string_system
        total, inv = gauss_filter(lay, fermion_mapping("jw", 6), params,
                                  Coset.full(lay.n_total))
        assert (total, len(inv)) == (576, 14)
        assert int(np.argmax(s0.probabilities())) in inv

    def test_linear_encoding_same_sector(self, vacuum_system):
        _, params, _, _ = vacuum_system
        lay = RegisterLayout(LatticeSpec(1, (3,), "periodic"), "linear", 1.0)
        total, inv = gauss_filter(lay, fermion_mapping("jw", 6), params,
                                  Coset.full(lay.n_total))
        assert (total, len(inv)) == (1728, 48)

    def test_double_plaquette_528_of_524288(self):
        spec = LatticeSpec(2, (3, 2), "open",
                           (StaticLink((-1, 0), 0, 1.0), StaticLink((2, 0), 0, 1.0)))
        lay = RegisterLayout(spec, "log", 0.5)
        params = ModelParams(m=0.4, e=2.0, theta=(0.5, 0.5), lam=20.0)
        total, inv = gauss_filter(lay, fermion_mapping("jw", 12), params,
                                  Coset.full(lay.n_total))
        assert (total, len(inv)) == (524288, 528)

    def test_single_site_zero_charge(self):
        lay = RegisterLayout(LatticeSpec(1, (1,), "open"), "log", 0.5)
        total, inv = gauss_filter(lay, fermion_mapping("jw", 2),
                                  ModelParams(m=1.0), Coset.full(2))
        assert total == 4
        # zero-charge site states: vacuum (0,1) and pair (1,0)
        assert sorted(inv) == [0b01, 0b10]

    def test_gauss_sector_conserved(self, string_system):
        lay, params, _, s0 = string_system
        h0 = assemble(lay, ModelParams(m=0.4, r=1.0, e=2.0, lam=0.0), "jw")
        _, inv = gauss_filter(lay, fermion_mapping("jw", 6), params,
                                  Coset.full(lay.n_total))
        ev = ExactEvolver(h0.total)
        st = s0
        for _ in range(5):
            st = ev.evolve(st, 0.4)
            outside = 1.0 - st.probabilities()[np.array(inv)].sum()
            assert outside < 1e-9


# -- the reachable coset -----------------------------------------------------


@st.composite
def coset_systems(draw):
    """(hermitian operator on n <= 8 qubits whose x-masks span a random
    subspace, a basis index i0)."""
    n = draw(st.integers(1, 8))
    gens = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n))
    strings = []
    for _ in range(draw(st.integers(1, 12))):
        x = 0
        for g in gens:
            if draw(st.booleans()):
                x ^= g
        strings.append(PauliString(n, x, draw(st.integers(0, (1 << n) - 1)),
                                   draw(st.floats(-2.0, 2.0))))
    return PauliOperator.from_terms(n, strings), draw(st.integers(0, (1 << n) - 1))


@settings(max_examples=200, deadline=None)
@given(coset_systems(), st.floats(1e-3, 1.0), st.integers(0, 2**32 - 1))
def test_tapered_step_matches_full_register(system, dt, seed):
    op, i0 = system
    coset = Coset.reachable(op, i0)
    full = trotter_plan(op, dt, 1)
    tapered = trotter_plan(op, dt, 1, coset=coset)
    assert tapered.n_qubits == coset.r
    assert len(tapered.strings) == len(full.strings)  # one exponential each
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << coset.r) + 1j * rng.normal(size=1 << coset.r)
    on_coset = StateVector(coset.r, amps.copy(), coset)
    everywhere = StateVector(op.n_qubits, np.zeros(1 << op.n_qubits, dtype=complex))
    everywhere.amps[coset.index] = amps
    trotter_step(on_coset, tapered)
    trotter_step(everywhere, full)
    if coset.r:
        assert np.array_equal(everywhere.amps[coset.index], on_coset.amps)
    else:
        # one reachable state: NumPy multiplies a length-1 complex array
        # without the fused multiply-add of its vector loop, so each phase
        # product may round differently
        assert np.allclose(everywhere.amps[coset.index], on_coset.amps,
                           rtol=4 * len(full.strings) * np.finfo(float).eps, atol=0)
    outside = np.ones(1 << op.n_qubits, dtype=bool)
    outside[coset.index] = False
    assert not everywhere.amps[outside].any()


@pytest.mark.parametrize("mapping_name", ["jw", "parity", "bk"])
@pytest.mark.parametrize("name", ["vacuum_decay", "string_breaking_1d",
                                  "double_plaquette_2d"])
def test_tapered_preset_steps_bit_identical(name, mapping_name):
    sc = validate_config(PRESETS[name] | {"scenario": name, "mapping": mapping_name})
    lay = build_layout(sc)
    mapping = fermion_mapping(mapping_name, lay.n_fermionic)
    h = assemble(lay, sc.params, mapping_name)
    i0 = initial_index(sc.initial, lay, mapping, sc.params)
    coset = Coset.reachable(h.total, i0)
    dt = sc.evolution["dt"][-1]
    full, tapered = trotter_plan(h, dt, 2), trotter_plan(h, dt, 2, coset=coset)
    *_, (_, everywhere) = trotter_states(StateVector.basis_state(lay.n_total, i0), full)
    *_, (_, on_coset) = trotter_states(coset.basis_state(i0), tapered)
    assert np.array_equal(everywhere.amps[coset.index], on_coset.amps)
    assert np.count_nonzero(on_coset.amps) == np.count_nonzero(everywhere.amps) > 1


@settings(max_examples=200, deadline=None)
@given(coset_systems())
def test_coset_index_position_round_trip(system):
    op, i0 = system
    n = op.n_qubits
    coset = Coset.reachable(op, i0)
    index = coset.index
    assert len(index) == 1 << coset.r
    assert (np.diff(index) > 0).all() and i0 in index
    assert np.array_equal(coset.positions(index), np.arange(1 << coset.r))
    # every member reaches the same coset; every other index is refused
    members = set(index.tolist())
    for j in range(1 << n):
        if j in members:
            assert Coset.reachable(op, j) == coset
        else:
            with pytest.raises(ValueError, match="outside the coset"):
                coset.positions([j])
    assert coset.basis_state(i0).amps[coset.positions([i0])[0]] == 1.0


def test_full_coset_is_the_register():
    coset = Coset.full(5)
    assert coset.r == 5
    assert np.array_equal(coset.index, np.arange(32))
    p = PauliString.from_label("XYZIY", 0.3)
    assert coset.taper(p) == p
    assert Coset.reachable(PauliOperator.from_label("XXIII"), 0b10111) == \
        Coset(5, (0b00011,), 0b01111)


def test_coset_rejects_non_echelon_form():
    for basis, offset in (((0b011, 0b010), 0), ((0b010, 0b001), 0),
                          ((0b001,), 0b100), ((0,), 0)):
        with pytest.raises(ValueError, match="row-echelon"):
            Coset(3, basis, offset)


def test_taper_rejects_string_off_the_coset():
    coset = Coset.reachable(PauliOperator.from_label("XXI"), 0)
    with pytest.raises(ValueError, match="off the coset"):
        coset.taper(PauliString.from_label("XII"))


def reference_sector(lay, mapping, params) -> np.ndarray:
    """The G_x = 0 sector by a walk over all 2^n basis indices."""
    kept = []
    for start in range(0, 1 << lay.n_total, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), 1 << lay.n_total))
        g = gauss_law(lay, *decode_basis(lay, mapping, params.theta_along, idx))
        kept.append(idx[(np.abs(g) <= 1e-9).all(axis=1)])
    return np.concatenate(kept)


def chain(sites: int, spin: float) -> dict:
    """A periodic chain from its bare vacuum; at S=1/2 theta = 1/2 makes
    zero flux a link state."""
    return {"scenario": "vacuum_decay", "lattice": {"extents": [sites]},
            "spin": spin, "theta": [0.5 if spin == 0.5 else 0.0]}


SECTOR_SYSTEMS = (
    [(name, {"scenario": name, "mapping": m})
     for name in ("vacuum_decay", "string_breaking_1d", "double_plaquette_2d")
     for m in ("jw", "parity", "bk")]
    + [("vacuum_decay_linear", {"scenario": "vacuum_decay",
                                "gauge_encoding": "linear"}),
       ("chain5_half", chain(5, 0.5)), ("chain6_half", chain(6, 0.5)),
       ("torus2x2_half", {"scenario": "vacuum_decay",
                          "lattice": {"d": 2, "extents": [2, 2]},
                          "spin": 0.5, "theta": [0.5, 0.5]}),
       ("chain4_one", chain(4, 1.0))])


@pytest.mark.parametrize("cfg", [c for _, c in SECTOR_SYSTEMS],
                         ids=[f"{name}-{c.get('mapping', 'jw')}"
                              for name, c in SECTOR_SYSTEMS])
def test_coset_walk_finds_the_whole_sector(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    sc = validate_config(load_config(path))
    lay = build_layout(sc)
    mapping = fermion_mapping(sc.mapping, lay.n_fermionic)
    h = assemble(lay, sc.params, sc.mapping)
    coset = Coset.reachable(h.total, initial_index(sc.initial, lay, mapping,
                                                   sc.params))
    total, kept = gauss_filter(lay, mapping, sc.params, coset)
    assert total == 2**lay.n_fermionic * round(2 * sc.spin + 1)**len(lay.links)
    assert np.array_equal(kept, reference_sector(lay, mapping, sc.params))
