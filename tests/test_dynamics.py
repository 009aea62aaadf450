"""Statevector kernels, Trotter/exact evolution, observables, Gauss filter."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import lgt.dynamics
from lgt.cli import (
    PRESETS,
    _label_columns,
    _n_steps,
    _write_curve,
    build_layout,
    initial_index,
    load_config,
    validate_config,
)
from lgt.dynamics import (
    FUSE_ENTRIES,
    FUSE_SPAN,
    READOUT_TOL,
    ROW_AXES,
    ConfigKeys,
    Coset,
    ExactEvolver,
    OperatorAction,
    StateVector,
    _block_starts,
    _Copy,
    _echelon,
    _fold,
    _layouts,
    _Matvec,
    _matvec_table,
    _Sum,
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
from lgt.gauge import flux_state_index, register_flux
from lgt.hamiltonian import ModelParams, assemble
from lgt.lattice import LatticeSpec, RegisterLayout, StaticLink
from lgt.matter import fermion_mapping
from lgt.pauli import PauliOperator, PauliString, _index_mask, decompose_matrix
import pauli_oracle
from pauli_oracle import (
    apply_pauli_exp,
    fused_step_reference,
    standard_observables_reference,
    string_action,
    to_matrix,
    trotter_step_reference,
)


def random_state(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(v / np.linalg.norm(v))


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
    return lay, params, h, Coset.full(12).basis_state(index)


@pytest.fixture(scope="module")
def string_system():
    spec = LatticeSpec(1, (3,), "open",
                       (StaticLink((-1,), 0, 1.0), StaticLink((2,), 0, 1.0)))
    lay = RegisterLayout(spec, "log", 1.0)
    params = ModelParams(m=0.4, r=1.0, e=2.0, lam=20.0)
    h = assemble(lay, params, "jw")
    bits = [0, 1] * 3 + [0, 0] * 2
    index = sum(b << (9 - q) for q, b in enumerate(bits))
    return lay, params, h, Coset.full(10).basis_state(index)


class TestPauliExp:
    def test_z_phase_on_zero(self):
        st = Coset.full(1).basis_state(0)
        apply_pauli_exp(st, PauliString.from_label("Z"), 0.7)
        assert abs(st.amps[0] - np.exp(-0.7j)) < 1e-14

    def test_x_half_pi(self):
        st = Coset.full(1).basis_state(0)
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
        st = Coset.full(3).basis_state(0)
        with pytest.raises(ValueError, match="size mismatch"):
            apply_pauli_exp(st, PauliString.from_label("XZ"), 0.1)


class TestStateVector:
    def test_register_from_length(self):
        st = StateVector(np.zeros(8, dtype=complex))
        assert st.n_qubits == 3 and st.coset == Coset.full(3)
        assert StateVector(np.ones(1, dtype=complex)).n_qubits == 0

    @pytest.mark.parametrize("size, coset", [(0, None), (6, None), (4, Coset.full(3)),
                                             (8, Coset(3, (1,), 0))])
    def test_length_must_fill_the_coset(self, size, coset):
        with pytest.raises(ValueError, match="size mismatch"):
            StateVector(np.zeros(size, dtype=complex), coset)


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
        assert abs(pauli_oracle.span_energy(ExactEvolver(h), st) - ref) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
               st.just(n), st.sets(st.integers(0, (1 << n) - 1), min_size=1),
               st.sampled_from([0.0, 0.3, 1.0]))),
           st.integers(0, 2 ** 32 - 1))
    @example((3, {1, 2, 4}, 0.0), 0)  # an operator with no strings
    @example((2, {2}, 1.0), 1)  # a one-state span
    @example((3, {1, 2, 4}, 1.0), 2)  # strings that leave the span
    @example((3, set(range(8)), 1.0), 3)  # the whole register
    def test_table_matches_grouped_reference(self, case, seed):
        """H supported on a random span, Pauli-decomposed: its strings leave
        the span one by one, their sums per flip mask do not."""
        n, span, density = case
        rng = np.random.default_rng(seed)
        basis = np.array(sorted(span), dtype=np.int64)
        block = rng.normal(size=(len(basis),) * 2) + 1j * rng.normal(size=(len(basis),) * 2)
        m = np.zeros((1 << n, 1 << n), dtype=complex)
        m[np.ix_(basis, basis)] = block * (rng.random(block.shape) < density)
        op = decompose_matrix(m)
        action = OperatorAction(op, basis)
        assert np.allclose(pauli_oracle.action_matrix(action), m[np.ix_(basis, basis)])
        amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        assert np.array_equal(action(amps), pauli_oracle.GroupedAction(op, basis)(amps))


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
        st = StateVector(np.ones(4, dtype=complex) / 2)
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
        _, sector = gauss_filter(ConfigKeys(lay, fermion_mapping("jw", 6), params,
                                             Coset.full(lay.n_total)))
        ref = expm(-1j * 0.7 * to_matrix(h.total)) @ s0.amps
        out = ExactEvolver(h.total, sector).evolve(s0, 0.7)
        assert np.max(np.abs(out.amps - ref)) < 1e-11
        assert not out.amps[np.setdiff1d(np.arange(1 << 10), sector)].any()

    @pytest.mark.parametrize("norm_t", [1e-3, 0.4, 2.0, 7.5, 50.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_taylor_matches_expm(self, norm_t, sign):
        rng = np.random.default_rng(41)
        h = random_hermitian_sum(rng, 6, 20)
        st = random_state(rng, 6)
        ev = ExactEvolver(h)
        t = sign * norm_t / ev.norm
        ref = expm(-1j * t * to_matrix(h)) @ st.amps
        out = ev.evolve(st, t)
        assert np.max(np.abs(out.amps - ref)) < 1e-13
        assert abs(out.norm - 1.0) < 1e-13
        assert ev.substeps(t) == math.ceil(norm_t / lgt.dynamics.TAYLOR_STEP)

    def test_norm_is_the_inf_norm_on_the_span(self, string_system):
        lay, params, h, _ = string_system
        _, sector = gauss_filter(ConfigKeys(lay, fermion_mapping("jw", 6), params,
                                             Coset.full(lay.n_total)))
        ev = ExactEvolver(h.total, sector)
        m = to_matrix(h.total)[np.ix_(sector, sector)]
        assert ev.norm == pytest.approx(np.abs(m).sum(axis=1).max(), rel=1e-14)
        assert ev.norm == pytest.approx(np.abs(m).sum(axis=0).max(), rel=1e-14)
        # the Gauss penalty vanishes on the sector, so the norm is far below
        # the sum of |coeff| that bounds it
        assert ev.norm < 0.1 * sum(abs(t.coeff) for t in h.total.terms)

    def test_diagonal_h_on_a_point_coset(self):
        h = PauliOperator.from_terms(3, [PauliString.from_label("ZIZ", 0.5),
                                         PauliString.from_label("IZI", -1.25)])
        coset = Coset.reachable(h, 5)
        assert coset.r == 0
        energy = to_matrix(h)[5, 5].real
        ev = ExactEvolver(h, coset.index)
        assert ev.norm == abs(energy)
        out = ev.evolve(coset.basis_state(5), -3.0)
        assert abs(out.amps[0] - np.exp(3j * energy)) < 1e-13

    def test_zero_h_and_zero_state(self):
        rng = np.random.default_rng(43)
        st = random_state(rng, 3)
        ev = ExactEvolver(PauliOperator.zero(3))
        assert ev.norm == 0.0
        assert np.array_equal(ev.evolve(st, 5.0).amps, st.amps)
        assert ev.matvecs == 0
        ev = ExactEvolver(random_hermitian_sum(rng, 3, 6))
        zero = StateVector(np.zeros(8, dtype=complex))
        assert not ev.evolve(zero, 5.0).amps.any()

    def test_non_finite_state_raises(self):
        rng = np.random.default_rng(47)
        st = random_state(rng, 3)
        st.amps[2] = np.nan
        ev = ExactEvolver(random_hermitian_sum(rng, 3, 6))
        with pytest.raises(RuntimeError, match="not converged"):
            ev.evolve(st, 0.1)

    def test_kernel_summary_counts_matvecs(self):
        rng = np.random.default_rng(53)
        ev = ExactEvolver(random_hermitian_sum(rng, 4, 10))
        st = random_state(rng, 4)
        ev.evolve(st, 1.0)
        summary = ev.kernel_summary(1.0)
        assert summary["sector_norm"] == ev.norm
        assert summary["substeps_per_sample"] == ev.substeps(1.0) >= 1
        assert summary["matvecs"] == ev.matvecs
        # a converged substep sums at least a few Taylor terms
        assert ev.matvecs >= 3 * ev.substeps(1.0)

    def test_rejects_basis_h_leaves(self, vacuum_system):
        _, _, h, s0 = vacuum_system
        vacuum = int(np.argmax(s0.probabilities()))
        with pytest.raises(ValueError, match="out of itself"):
            ExactEvolver(h.total, [vacuum])

    def test_rejects_state_outside_basis(self, string_system):
        lay, params, h, s0 = string_system
        _, sector = gauss_filter(ConfigKeys(lay, fermion_mapping("jw", 6), params,
                                             Coset.full(lay.n_total)))
        ev = ExactEvolver(h.total, sector)
        outside = next(i for i in range(1 << 10) if i not in sector)
        mixed = StateVector((s0.amps + Coset.full(10).basis_state(outside).amps)
                            / math.sqrt(2))
        with pytest.raises(ValueError, match="outside"):
            ev.evolve(mixed, 0.1)
        with pytest.raises(ValueError, match="outside"):
            pauli_oracle.span_energy(ev, mixed)

    def test_energy_conserved(self, string_system):
        _, _, h, s0 = string_system
        ev = ExactEvolver(h.total)
        e0 = pauli_oracle.span_energy(ev, s0)
        st = s0
        for _ in range(10):
            st = ev.evolve(st, 0.2)
            assert abs(pauli_oracle.span_energy(ev, st) - e0) < 1e-9
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
        a = Coset.full(3).basis_state(0)
        b = Coset.full(3).basis_state(5)
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
        s0 = Coset.full(2).basis_state(1)
        plan = trotter_plan(h, dt=0.3, n_steps=1)
        st = s0.copy()
        trotter_step(st, plan)
        ref = s0.copy()
        apply_pauli_exp(ref, p, 0.8 * 0.3)
        assert np.max(np.abs(st.amps - ref.amps)) < 1e-14

    def test_norm_per_step(self, vacuum_system):
        _, _, h, s0 = vacuum_system
        plan = trotter_plan(h.total, dt=0.1, n_steps=5)
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
            plan = trotter_plan(h.total, dt, int(round(2.0 / dt)))
            vals = {round(t, 9): loschmidt(s0, s) for t, s in trotter_states(s0, plan)}
            tr = np.array([vals[round(t, 9)] for t in ts])
            errs[dt] = np.max(np.abs(tr - np.array(exact)))
        assert 1.6 <= errs[0.1] / errs[0.05] <= 2.4

    def test_orderings(self, vacuum_system):
        # a plan applies the strings in the order it holds them
        _, _, h, s0 = vacuum_system
        canonical = trotter_plan(h.total, 0.1, 1)
        rev = dataclasses.replace(canonical, strings=canonical.strings[::-1])
        a, b = s0.copy(), s0.copy()
        trotter_step(a, canonical)
        trotter_step(b, rev)
        assert not np.allclose(a.amps, b.amps)  # ordering matters at finite dt

    @pytest.mark.parametrize("name", ["vacuum_decay", "string_breaking_1d",
                                      "double_plaquette_2d"])
    def test_full_register_plan_keeps_every_string(self, name):
        sc = validate_config(PRESETS[name] | {"scenario": name})
        op = assemble(build_layout(sc), sc.params, sc.mapping).total
        plan = trotter_plan(op, 0.1, 1, Coset.full(op.n_qubits))
        assert plan.strings == op.terms  # same masks, equal coefficients
        assert np.array_equal(  # and the same coefficient bits, -0.0 included
            np.array([t.coeff for t in plan.strings]).view(np.uint64),
            np.array([t.coeff for t in op.terms]).view(np.uint64))

    def test_step_matches_string_action_reference(self, vacuum_system):
        _, _, h, _ = vacuum_system
        plan = trotter_plan(h.total, 0.07, 1)
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


# -- fused Trotter blocks against the per-string oracle -----------------------


def block_cuts(plan) -> list[tuple[int, int]]:
    """(first, end) in the plan's strings of each of its blocks."""
    starts = _block_starts(plan.strings, plan.n_steps)
    return list(zip(starts, starts[1:] + [len(plan.strings)]))


def block_ops(plan) -> list:
    """The bound op of each block of the plan's step, in step order (every
    op but the layout copies)."""
    return [op for op in plan._step.ops if type(op) is not _Copy]


def pass_terms(op: _Sum) -> tuple:
    """(D_w, psi[. ^ w] view) of each term of a pass-form block's op."""
    return ((op.d, op.psi), *op.rest)


def n_terms(op) -> int:
    return op.m.shape[-1] if type(op) is _Matvec else len(pass_terms(op))


def assert_block_bounds(op) -> None:
    """A pass-form block has at most 2^FUSE_SPAN terms; a matvec-form block
    at most 16, and its matrices at most FUSE_ENTRIES entries."""
    if type(op) is _Matvec:
        assert n_terms(op) <= 16 and op.m.size <= FUSE_ENTRIES
    else:
        assert n_terms(op) <= 1 << FUSE_SPAN


def assert_matvec_matches_folded(run, dt: float, r: int, m, positions) -> None:
    """A matvec block's matrices and positions in qubit order, those of a
    run of strings on r qubits, against ``pauli_oracle.matvec_reference``
    of the run's ``_fold``ed terms: the same positions coset by coset, and
    M within 1e-12 on every coset, free qubits included."""
    terms = {0: np.ones((1,) * r, dtype=complex)}
    for p in run:
        terms = _fold(terms, p, p.coeff.real * dt)
    ref_m, ref_positions = pauli_oracle.matvec_reference(terms, r)
    assert m.shape[-1] == len(terms)
    # the oracle numbers each coset by its first position, c ^ w(0) = c
    row = np.empty(1 << r, dtype=np.intp)
    row[ref_positions[:, 0]] = np.arange(len(ref_positions))
    rows = row[positions[:, :, 0, 0]]
    assert np.array_equal(positions[..., 0], ref_positions[rows])
    assert np.max(np.abs(m - ref_m[rows])) <= 1e-12


def assert_matrices_match_folded(plan) -> None:
    """Every matvec block of ``pauli_oracle.position_blocks``, whose matrices
    are the package's, against the folded oracle."""
    for (i, j), (form, *block) in zip(block_cuts(plan), pauli_oracle.position_blocks(plan)):
        if form == "matvec":
            assert_matvec_matches_folded(plan.strings[i:j], plan.dt, plan.n_qubits, *block)


@st.composite
def ordered_hamiltonians(draw):
    """(random hermitian operator on 2, 5 or 8 qubits, a permutation of its
    strings). The x-masks are sums of a few generators and some strings are
    diagonal, so runs of strings share small spans."""
    n = draw(st.sampled_from([2, 5, 8]))
    gens = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=4))
    strings = []
    for _ in range(draw(st.integers(0, 40))):
        x = 0
        for g in gens:
            if draw(st.booleans()):
                x ^= g
        strings.append(PauliString(n, x, draw(st.integers(0, (1 << n) - 1)),
                                   draw(st.floats(-2.0, 2.0))))
    op = PauliOperator.from_terms(n, strings)
    return op, draw(st.permutations(range(op.n_terms)))


@settings(max_examples=200, deadline=None)
@given(ordered_hamiltonians(), st.sampled_from([1, 3, 200]),
       st.floats(1e-3, 1.0), st.integers(0, 2**32 - 1))
def test_fused_step_matches_per_string_oracle(system, n_steps, dt, seed):
    op, order = system
    plan = trotter_plan(op, dt, n_steps)
    plan = dataclasses.replace(plan, strings=tuple(plan.strings[i] for i in order))
    # every string lands in exactly one block, in order, and a block has
    # one term per shift in the span of its x-masks; on n <= 8 qubits every
    # span of 4 to 16 shifts takes the matvec form, and only those
    cuts = block_cuts(plan)
    assert [k for i, j in cuts for k in range(i, j)] == list(range(len(plan.strings)))
    ops = block_ops(plan)
    assert len(ops) == len(cuts)
    for (i, j), op in zip(cuts, ops):
        span = {0}
        for p in plan.strings[i:j]:
            if p.x not in span:
                span |= {w ^ p.x for w in span}
        assert (type(op) is _Matvec) == (len(span) >= 4)
        assert n_terms(op) == len(span)
        assert_block_bounds(op)
    # the summary counts what the oracle's blocks hold
    oracle = pauli_oracle.position_blocks(plan)
    summary = plan.kernel_summary()
    assert ((summary["blocks"], summary["passes_per_step"], summary["matvec_blocks"])
            == (len(oracle), sum(len(b[1]) for b in oracle if b[0] == "passes"),
                sum(b[0] == "matvec" for b in oracle)))
    st0 = random_state(np.random.default_rng(seed), plan.n_qubits)
    fused, ref = st0.copy(), st0.copy()
    for _ in range(2):
        trotter_step(fused, plan)
        trotter_step_reference(ref, plan)
    assert np.max(np.abs(fused.amps - ref.amps)) <= 1e-12


@st.composite
def ordered_coset_systems(draw):
    """(hermitian operator on n <= 8 qubits, a permutation of its strings,
    a basis index i0). The x-masks are sums of up to n generators, so the
    coset of i0 has r = 0 to 8 qubits."""
    n = draw(st.integers(1, 8))
    gens = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=n))
    strings = []
    for _ in range(draw(st.integers(0, 40))):
        x = 0
        for g in gens:
            if draw(st.booleans()):
                x ^= g
        strings.append(PauliString(n, x, draw(st.integers(0, (1 << n) - 1)),
                                   draw(st.floats(-2.0, 2.0))))
    op = PauliOperator.from_terms(n, strings)
    return (op, draw(st.permutations(range(op.n_terms))),
            draw(st.integers(0, (1 << n) - 1)))


# a pass-form block on 5 of 6 qubits, a run of its own, then a matvec
# block, which keeps that run's layout with no copy before it; random draws
# seldom mix the two forms across layout runs
MIXED_FORMS = PauliOperator.from_terms(6, [
    PauliString.from_label(label, c)
    for label, c in (("YIXYYX", -0.1), ("ZIYYZY", 0.2), ("ZZXXYZ", -0.5),
                     ("ZZYYZY", 1.2), ("ZZZZIZ", -0.4))])


@settings(max_examples=200, deadline=None)
@given(ordered_coset_systems(), st.sampled_from([1, 3, 200]),
       st.floats(1e-3, 1.0), st.integers(0, 2**32 - 1))
@example((MIXED_FORMS, range(5), 0), 200, 0.5, 0)
def test_layout_runs_match_position_kernel(system, n_steps, dt, seed):
    op, order, i0 = system
    coset = Coset.reachable(op, i0)
    plan = trotter_plan(op, dt, n_steps, coset=coset)
    plan = dataclasses.replace(plan, strings=tuple(plan.strings[i] for i in order))
    r = plan.n_qubits
    ops = block_ops(plan)
    touched = []  # the qubits each block's passes act on
    for (i, j), op in zip(block_cuts(plan), ops):
        mask = 0
        for p in plan.strings[i:j] if type(op) is _Sum else ():
            mask |= p.x | p.z
        touched.append(mask)
    layouts = _layouts(touched, r)
    # the step copies into each new layout before its block, and nowhere else
    kinds, prev = [], None
    for (axes, _), op in zip(layouts, ops):
        kinds += [_Copy] * (prev is not None and prev != axes) + [type(op)]
        prev = axes
    assert [type(op) for op in plan._step.ops] == kinds
    assert plan.kernel_summary()["layouts_per_step"] == 2 + kinds.count(_Copy)
    prev = None
    for (axes, t), op, mask in zip(layouts, ops, touched):
        assert sorted(axes) == list(range(r))
        if type(op) is _Matvec:
            # a matvec block runs in the layout it finds; its gather table,
            # into the amplitudes or the previous block's products, and the
            # positions the last block of a chain scatters to hold every
            # amplitude once
            assert prev is None or axes == prev
            k = op.m.shape[-1]
            assert op.m.shape == (len(op.table), 1, k, k)
            assert op.table.shape[2:] == (k, 1)
            assert np.array_equal(np.sort(op.table, axis=None), np.arange(1 << r))
            if op.positions is not None:
                assert np.array_equal(np.sort(op.positions, axis=None), np.arange(1 << r))
        else:
            # the run's touched qubits lead its axis order, it leaves
            # ROW_AXES qubits untouched unless one block alone touches more,
            # and every tensor is constant along the contiguous rows
            assert all(q in axes[:t] for q in range(r) if mask >> q & 1)
            assert t <= max(r - ROW_AXES, mask.bit_count())
            for d, psi in pass_terms(op):
                assert psi.shape == (2,) * t + (1 << r - t,)
                assert d.ndim == t + 1 and d.shape[t] == 1
        prev = axes
    # the reference takes the package's matrices, so that it checks the
    # layouts and chains bit for bit; the matrices are checked on their own
    assert_matrices_match_folded(plan)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << r) + 1j * rng.normal(size=1 << r)
    laid_out, reference = StateVector(amps.copy(), coset), StateVector(amps, coset)
    for _ in range(2):
        trotter_step(laid_out, plan)
        fused_step_reference(reference, plan)
    assert np.array_equal(laid_out.amps, reference.amps)


def chain(sites: int, spin: float) -> dict:
    """A periodic chain from its bare vacuum; at S=1/2 theta = 1/2 makes
    zero flux a link state."""
    return {"scenario": "vacuum_decay", "lattice": {"extents": [sites]},
            "spin": spin, "theta": [0.5 if spin == 0.5 else 0.0]}


@pytest.mark.parametrize("cfg, runs, matvecs", [
    pytest.param({"scenario": "vacuum_decay"}, False, True, id="vacuum_decay"),
    pytest.param({"scenario": "string_breaking_1d"}, False, True, id="string_breaking_1d"),
    pytest.param({"scenario": "double_plaquette_2d"}, True, True, id="double_plaquette_2d"),
    pytest.param(chain(8, 0.5), True, False, id="chain8_half")])
def test_layout_runs_match_position_kernel_on_presets(tmp_path, cfg, runs, matvecs):
    # runs: the step moves between several layout runs; matvecs: some
    # blocks take the matvec form (the 1D presets' blocks of 8 shifts all
    # do, so their one pass-form block needs no layout run of its own)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    sc = validate_config(load_config(path))
    lay = build_layout(sc)
    h = assemble(lay, sc.params, sc.mapping)
    coset = Coset.reachable(h.total, initial_index(
        sc.initial, lay, fermion_mapping(sc.mapping, lay.n_fermionic), sc.params))
    dt = min(sc.evolution["dt"])
    plan = trotter_plan(h.total, dt, round(sc.evolution["t_max"] / dt), coset=coset)
    summary = plan.kernel_summary()
    assert (2 < summary["layouts_per_step"] < summary["blocks"]) == runs
    assert (summary["matvec_blocks"] > 0) == matvecs
    # the matrices of the matvec blocks against the folded oracle, the
    # layouts and chains bit for bit against the fused reference, and the
    # step to round-off against the per-string product
    assert_matrices_match_folded(plan)
    rng = np.random.default_rng(47)
    amps = rng.normal(size=1 << coset.r) + 1j * rng.normal(size=1 << coset.r)
    laid_out, reference = StateVector(amps.copy(), coset), StateVector(amps, coset)
    per_string = reference.copy()
    for _ in range(3):
        trotter_step(laid_out, plan)
        fused_step_reference(reference, plan)
        trotter_step_reference(per_string, plan)
    assert np.array_equal(laid_out.amps, reference.amps)
    assert np.max(np.abs(laid_out.amps - per_string.amps)) <= 1e-12


def test_fused_tensors_stay_within_budget(tmp_path, monkeypatch):
    # 8-site periodic S=1/2 chain: r = 16, a 1 MB state. Diagonal strings
    # folded into a run widen its tensors to the union of the run's Z axes.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(chain(8, 0.5)))
    sc = validate_config(load_config(path))
    lay = build_layout(sc)
    h = assemble(lay, sc.params, sc.mapping)
    coset = Coset.reachable(h.total, initial_index(
        sc.initial, lay, fermion_mapping(sc.mapping, lay.n_fermionic), sc.params))
    plan = trotter_plan(h.total, 0.05, 100, coset=coset)
    assert plan.n_qubits == 16
    # 2^16 positions are past the table budget: blocks of 4 or 8 shifts
    # stay in the pass form
    assert plan.kernel_summary() == {"blocks": 58, "passes_per_step": 126,
                                     "fused_bytes": 8_579_920, "matvec_blocks": 0,
                                     "matrix_bytes": 0, "position_bytes": 0,
                                     "layouts_per_step": 37}
    assert max(n_terms(op) for op in block_ops(plan)) >= 4
    for (i, j), op in zip(block_cuts(plan), block_ops(plan)):
        if j - i > 1:
            assert max(d.size for d, _ in pass_terms(op)) <= FUSE_ENTRIES
    # without the bound the same plan holds about six times as much: the
    # table budget goes with it, and the cut takes 6 runs of 16 shifts in
    # the matvec form, whose matrices, 2^dep of 16 x 16 with dep up to 12
    # qubits, hold 33 times the entries of the term tensors left
    monkeypatch.setattr(lgt.dynamics, "FUSE_ENTRIES", 1 << 30)
    unbounded = trotter_plan(h.total, 0.05, 100, coset=coset).kernel_summary()
    assert unbounded["matvec_blocks"] == 6
    assert unbounded["fused_bytes"] + unbounded["matrix_bytes"] == 54_173_696


class TestObservables:
    """The particle number from the package's tables; the charge and flux
    per site and link from the support-decoding reference."""

    def test_bare_vacuum_all_zero(self, vacuum_system):
        lay, params, _, s0 = vacuum_system
        mapping = fermion_mapping("jw", 6)
        values = standard_observables(s0, ConfigKeys(lay, mapping, params, s0.coset))
        assert abs(values["total_particle_number"]) < 1e-12
        ref = standard_observables_reference(s0, lay, mapping, params)
        for name, val in ref.items():
            if name.startswith(("charge", "flux")):
                assert abs(val) < 1e-12

    def test_flux_string_links(self, string_system):
        lay, params, _, s0 = string_system
        mapping = fermion_mapping("jw", 6)
        obs = standard_observables_reference(s0, lay, mapping, params)
        assert abs(obs["flux_link0"] - params.e) < 1e-12
        assert abs(obs["flux_link1"] - params.e) < 1e-12

    def test_single_pair_counts_two(self, vacuum_system):
        lay, params, _, _ = vacuum_system
        mapping = fermion_mapping("jw", 6)
        # particle at site 0, antiparticle at site 1, flux +1 in between
        bits = [1, 1, 0, 0, 0, 1] + [0, 0, 0, 1, 0, 1]
        index = sum(b << (11 - q) for q, b in enumerate(bits))
        st = Coset.full(12).basis_state(index)
        obs = standard_observables(st, ConfigKeys(lay, mapping, params, st.coset))
        assert abs(obs["total_particle_number"] - 2.0) < 1e-12
        ref = standard_observables_reference(st, lay, mapping, params)
        assert abs(ref["charge_site0"] - params.e) < 1e-12
        assert abs(ref["charge_site1"] + params.e) < 1e-12

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
        st = Coset.full(2).basis_state(mapping.encode_occupations(occupations))
        obs = standard_observables(st, ConfigKeys(lay, mapping, params, st.coset))
        assert obs["total_particle_number"] == number
        ref = standard_observables_reference(st, lay, mapping, params)
        assert ref["charge_site0"] == charge * params.e

    @pytest.mark.parametrize("mapping_name", ["jw", "parity", "bk"])
    def test_support_readout_matches_full_tables(self, vacuum_system,
                                                 mapping_name):
        lay, params, _, _ = vacuum_system
        mapping = fermion_mapping(mapping_name, 6)
        # bare vacuum: every link register 01 holds flux 0
        index = mapping.encode_occupations([0, 1] * 3) << 6 | 0b010101
        plan = trotter_plan(assemble(lay, params, mapping_name).total, 0.1, 3)
        *_, (_, st) = trotter_states(Coset.full(12).basis_state(index), plan)
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
        obs = standard_observables_reference(st, lay, mapping, params)
        obs |= standard_observables(st, ConfigKeys(lay, mapping, params, st.coset))
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
        s0 = Coset.full(lay.n_total).basis_state(
            initial_index(sc.initial, lay, mapping, params))
        assert s0.n_qubits == 19
        configs = ConfigKeys(lay, mapping, params, s0.coset)
        tracemalloc.start()
        try:
            obs = standard_observables(s0, configs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert obs["total_particle_number"] == 0.0
        ref = standard_observables_reference(s0, lay, mapping, params)
        assert ref["flux_link0"] == ref["flux_link3"] == params.e

    def test_rejects_another_coset(self, vacuum_system):
        lay, params, h, s0 = vacuum_system
        mapping = fermion_mapping("jw", 6)
        coset = Coset.reachable(h.total, int(np.argmax(s0.probabilities())))
        with pytest.raises(ValueError, match="different cosets"):
            standard_observables(s0, ConfigKeys(lay, mapping, params, coset))


def readout(state, lay, mapping, params) -> dict[str, float]:
    """``config_probabilities`` as {label: probability}, in its order."""
    configs = ConfigKeys(lay, mapping, params, state.coset)
    keys, probs = config_probabilities(state, configs)
    return dict(zip(configs.labels(keys), probs.tolist()))


class TestConfigReadout:
    def test_basis_state_label(self, vacuum_system):
        lay, params, _, s0 = vacuum_system
        mapping = fermion_mapping("jw", 6)
        probs = readout(s0, lay, mapping, params)
        assert probs == {"ooo|0;0;0": 1.0}

    def test_probabilities_sum_to_one(self, vacuum_system):
        lay, params, h, s0 = vacuum_system
        st = ExactEvolver(h.total).evolve(s0, 0.4)
        probs = readout(st, lay, mapping=fermion_mapping("jw", 6), params=params)
        assert abs(sum(probs.values()) - 1.0) < 1e-10

    def test_empty_readout(self, vacuum_system):
        lay, params, *_ = vacuum_system
        mapping = fermion_mapping("jw", 6)
        labels = basis_config_label(lay, mapping, params.theta_along,
                                    np.array([], dtype=np.int64))
        assert labels.shape == (0,) and labels.dtype.kind == "U"
        # every probability is 1e-14, below the readout tolerance
        st = StateVector(np.full(1 << 12, 1e-7, dtype=complex))
        assert readout(st, lay, mapping, params) == {}

    def test_readout_rejects_another_coset(self, vacuum_system):
        lay, params, h, s0 = vacuum_system
        mapping = fermion_mapping("jw", 6)
        coset = Coset.reachable(h.total, int(np.argmax(s0.probabilities())))
        with pytest.raises(ValueError, match="different cosets"):
            config_probabilities(s0, ConfigKeys(lay, mapping, params, coset))

    def test_vacuum_decay_decomposition(self, vacuum_system):
        lay, params, h, s0 = vacuum_system
        st = ExactEvolver(h.total).evolve(s0, 0.4)
        probs = readout(st, lay, fermion_mapping("jw", 6), params)
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


def test_keys_merge_exactly_the_positions_that_share_a_label():
    # the full register of the linear-encoding vacuum_decay chain: a one-hot
    # S = 1 register has five values outside the flux window, all read 'x'
    lay = RegisterLayout(LatticeSpec(1, (3,), "periodic"), "linear", 1.0)
    mapping = fermion_mapping("jw", 6)
    params = ModelParams(m=0.5, e=math.sqrt(2))
    coset = Coset.full(lay.n_total)
    configs = ConfigKeys(lay, mapping, params, coset)
    assert (len(coset.index), len(configs.index)) == (32_768, 4_096)
    labels = basis_config_label(lay, mapping, params.theta_along, coset.index)
    assert configs.labels(configs.key) == labels.tolist()
    assert len(set(labels.tolist())) == 4_096
    # a key's index is a state of its own configuration
    assert np.array_equal(configs.key[coset.positions(configs.index)],
                          np.arange(4_096))


def test_flux_states_far_from_zero_keep_their_own_key():
    # 2-site open chain at S = 131071.5: one 18-qubit link register, where
    # six significant digits read m = 123455.5 and 123456.5 both as 123456
    lay = RegisterLayout(LatticeSpec(1, (2,), "open"), "log", 131071.5)
    mapping = fermion_mapping("jw", 4)
    params = ModelParams(m=0.5)
    i1, i2 = (flux_state_index(lay.spin, "log", m) << lay.register_shift(0)
              for m in (123455.5, 123456.5))
    jump = PauliString(lay.n_total, _index_mask(i1 ^ i2, lay.n_total), 0, 1.0)
    coset = Coset.reachable(PauliOperator.from_terms(lay.n_total, [jump]), i1)
    assert lay.n_total == 22 and coset.index.tolist() == sorted([i1, i2])
    configs = ConfigKeys(lay, mapping, params, coset)
    assert configs.key.tolist() == [0, 1]
    assert sorted(configs.labels(configs.key)) == ["aa|123455.5", "aa|123456.5"]


@pytest.mark.parametrize("name", ["vacuum_decay", "string_breaking_1d",
                                  "double_plaquette_2d"])
@pytest.mark.parametrize("variant", [{}, {"gauge_encoding": "linear"},
                                     {"spin": 2.0}, {"theta": [0.3]}])
def test_flux_texts_of_the_presets_unchanged(name, variant):
    # below 1e5 a flux reads as it always has: an integer, 'x', or :g
    sc = validate_config(PRESETS[name] | {"scenario": name} | variant)
    lay = build_layout(sc)
    regs = np.arange(1 << lay.qubits_per_link)
    for k in range(lay.spec.d):
        values = register_flux(lay.spin, lay.encoding, regs) + sc.params.theta_along(k)
        assert lgt.dynamics._flux_names(values) == [
            "x" if np.isnan(v) else str(int(round(v))) if abs(v - round(v)) < 1e-9
            else f"{v:g}" for v in values]


# layouts whose full register maps several basis states to one label
# (linear S = 1, log S = 2) or none (log S = 1 and S = 1/2)
READOUT_LAYOUTS = [((1, (2,), "open"), "linear", 1.0),
                   ((1, (2,), "open"), "log", 2.0),
                   ((1, (3,), "periodic"), "log", 1.0),
                   ((2, (2, 2), "open"), "log", 0.5)]


def _at_and_above(tol: float) -> tuple[float, float]:
    """The largest amplitude whose square is at most ``tol``, and the next."""
    a = math.sqrt(tol)
    while a * a > tol:
        a = math.nextafter(a, 0.0)
    while math.nextafter(a, 1.0) ** 2 <= tol:
        a = math.nextafter(a, 1.0)
    return a, math.nextafter(a, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(READOUT_LAYOUTS), st.sampled_from(["jw", "parity", "bk"]),
       st.sampled_from([0.0, 0.25]), st.booleans(), st.integers(1, 14),
       st.integers(0, 2**32 - 1))
def test_keyed_readout_matches_label_dictionaries(tmp_path_factory, layout, mapping_name,
                                                  theta, tapered, n_columns, seed):
    lattice, encoding, spin = layout
    lay = RegisterLayout(LatticeSpec(*lattice), encoding, spin)
    mapping = fermion_mapping(mapping_name, lay.n_fermionic)
    params = ModelParams(m=1.0, theta=(theta,) * lay.spec.d)
    rng = np.random.default_rng(seed)
    coset = Coset.full(lay.n_total)
    if tapered:  # the coset of a random index under a few random x-masks
        strings = [PauliString(lay.n_total, int(x), 0, 1.0)
                   for x in rng.integers(1, 1 << lay.n_total, size=4)]
        coset = Coset.reachable(PauliOperator.from_terms(lay.n_total, strings),
                                int(rng.integers(1 << lay.n_total)))
    configs = ConfigKeys(lay, mapping, params, coset)
    at, above = _at_and_above(READOUT_TOL)
    size = 1 << coset.r
    curve_old, curve_new = [], []
    for t in range(3):
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        if rng.random() < 0.5:  # sparse
            amps[rng.random(size) < 0.9] = 0.0
        # exact ties, and probabilities at and just above READOUT_TOL
        pick = rng.integers(size, size=6)
        amps[pick[:2]] = amps[pick[2]]
        amps[pick[3]], amps[pick[4]], amps[pick[5]] = at, above, -above
        state = StateVector(amps, coset)
        old = pauli_oracle.config_probabilities(state, lay, mapping, params)
        keys, probs = config_probabilities(state, configs)
        assert configs.labels(keys) == list(old)
        assert probs.tolist() == list(old.values())
        curve_old.append((0.1 * t, 1.0, 0.5, old))
        curve_new.append((0.1 * t, 1.0, 0.5, (keys, probs)))
    label_columns = pauli_oracle.label_columns([curve_old], n_columns)
    columns, labels = _label_columns([curve_new], configs.labels, n_columns)
    assert labels == label_columns
    out = tmp_path_factory.mktemp("curves")
    pauli_oracle.write_curve(out / "old.csv", curve_old, label_columns)
    _write_curve(out / "new.csv", curve_new, columns, labels)
    assert (out / "new.csv").read_text() == (out / "old.csv").read_text()


def test_readout_memory_on_the_24_qubit_chain(tmp_path):
    # 8-site periodic S=1/2 chain: r = 16. A label per support position
    # made one readout of a spread state peak at 23-25 MB
    path = tmp_path / "config.json"
    path.write_text(json.dumps(chain(8, 0.5)))
    sc = validate_config(load_config(path))
    lay = build_layout(sc)
    mapping = fermion_mapping(sc.mapping, lay.n_fermionic)
    h = assemble(lay, sc.params, sc.mapping)
    coset = Coset.reachable(h.total, initial_index(sc.initial, lay, mapping,
                                                   sc.params))
    configs = ConfigKeys(lay, mapping, sc.params, coset)
    assert coset.r == 16
    st = StateVector(random_state(np.random.default_rng(3), 16).amps, coset)
    all_probs = st.probabilities()
    tracemalloc.start()
    try:
        keys, probs = config_probabilities(st, configs)
        peak = tracemalloc.get_traced_memory()[1]
        # the particle number is a dot product with the walk's table
        tracemalloc.reset_peak()
        obs = standard_observables(st, configs, all_probs)
        observables_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(keys) == 1 << 16 and abs(probs.sum() - 1.0) < 1e-12
    assert peak < 12 * 2**20
    ref = standard_observables_reference(st, lay, mapping, sc.params, all_probs)
    assert abs(obs["total_particle_number"] - ref["total_particle_number"]) < 1e-12
    assert observables_peak < 2 * 2**20


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
        total, inv = gauss_filter(ConfigKeys(lay, fermion_mapping("jw", 6), params,
                                             Coset.full(lay.n_total)))
        assert (total, len(inv)) == (1728, 48)
        assert int(np.argmax(s0.probabilities())) in inv

    def test_string_breaking_14_of_576(self, string_system):
        lay, params, _, s0 = string_system
        total, inv = gauss_filter(ConfigKeys(lay, fermion_mapping("jw", 6), params,
                                             Coset.full(lay.n_total)))
        assert (total, len(inv)) == (576, 14)
        assert int(np.argmax(s0.probabilities())) in inv

    def test_linear_encoding_same_sector(self, vacuum_system):
        _, params, _, _ = vacuum_system
        lay = RegisterLayout(LatticeSpec(1, (3,), "periodic"), "linear", 1.0)
        total, inv = gauss_filter(ConfigKeys(lay, fermion_mapping("jw", 6), params,
                                             Coset.full(lay.n_total)))
        assert (total, len(inv)) == (1728, 48)

    def test_double_plaquette_528_of_524288(self):
        spec = LatticeSpec(2, (3, 2), "open",
                           (StaticLink((-1, 0), 0, 1.0), StaticLink((2, 0), 0, 1.0)))
        lay = RegisterLayout(spec, "log", 0.5)
        params = ModelParams(m=0.4, e=2.0, theta=(0.5, 0.5), lam=20.0)
        total, inv = gauss_filter(ConfigKeys(lay, fermion_mapping("jw", 12), params,
                                             Coset.full(lay.n_total)))
        assert (total, len(inv)) == (524288, 528)

    def test_single_site_zero_charge(self):
        lay = RegisterLayout(LatticeSpec(1, (1,), "open"), "log", 0.5)
        total, inv = gauss_filter(ConfigKeys(lay, fermion_mapping("jw", 2),
                                             ModelParams(m=1.0), Coset.full(2)))
        assert total == 4
        # zero-charge site states: vacuum (0,1) and pair (1,0)
        assert sorted(inv) == [0b01, 0b10]

    def test_walk_guards_run_before_the_coset_is_indexed(self, monkeypatch):
        def no_index(coset):
            raise AssertionError("coset index built")

        monkeypatch.setattr(Coset, "index", property(no_index))
        # 9-site periodic S=1/2 chain: 27 qubits
        lay = RegisterLayout(LatticeSpec(1, (9,), "periodic"), "log", 0.5)
        assert lay.n_total > lgt.dynamics.MAX_QUBITS
        mapping = fermion_mapping("jw", lay.n_fermionic)
        with pytest.raises(ValueError, match="limited to 24 qubits"):
            ConfigKeys(lay, mapping, ModelParams(m=1.0), Coset.full(lay.n_total))
        lay = RegisterLayout(LatticeSpec(1, (3,), "periodic"), "log", 1.0)
        mapping = fermion_mapping("jw", lay.n_fermionic)
        with pytest.raises(ValueError, match="differ in size"):
            ConfigKeys(lay, mapping, ModelParams(m=1.0), Coset.full(lay.n_total - 1))

    def test_gauss_sector_conserved(self, string_system):
        lay, params, _, s0 = string_system
        h0 = assemble(lay, ModelParams(m=0.4, r=1.0, e=2.0, lam=0.0), "jw")
        _, inv = gauss_filter(ConfigKeys(lay, fermion_mapping("jw", 6), params,
                                             Coset.full(lay.n_total)))
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
    on_coset = StateVector(amps.copy(), coset)
    everywhere = StateVector(np.zeros(1 << op.n_qubits, dtype=complex))
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


# one block of three strings spanning two dimensions; its shifts sort
# differently by w on the register and on the coset
SORT_SENSITIVE = PauliOperator.from_terms(3, [
    PauliString.from_label(label, c)
    for label, c in (("XYZ", 0.2), ("XZY", 0.5), ("ZXY", 0.1))])


@settings(max_examples=200, deadline=None)
@given(coset_systems(), st.sampled_from([3, 200]), st.floats(1e-3, 1.0),
       st.integers(0, 2**32 - 1))
@example((SORT_SENSITIVE, 0), 200, 0.5, 0)
def test_tapered_fused_blocks_match_full_register(system, n_steps, dt, seed):
    # long plans fuse runs into blocks of up to 2^FUSE_SPAN terms; tapering
    # relabels the shifts w, so the terms must be summed in fold order for
    # the two registers to agree bit for bit
    op, i0 = system
    coset = Coset.reachable(op, i0)
    full = trotter_plan(op, dt, n_steps)
    tapered = trotter_plan(op, dt, n_steps, coset=coset)
    assert block_cuts(tapered) == block_cuts(full)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << coset.r) + 1j * rng.normal(size=1 << coset.r)
    on_coset = StateVector(amps.copy(), coset)
    everywhere = StateVector(np.zeros(1 << op.n_qubits, dtype=complex))
    everywhere.amps[coset.index] = amps
    for _ in range(2):
        trotter_step(on_coset, tapered)
        trotter_step(everywhere, full)
    if coset.r:
        assert np.array_equal(everywhere.amps[coset.index], on_coset.amps)
    else:  # a length-1 product rounds without the vector loop's fused multiply-add
        assert np.allclose(everywhere.amps[coset.index], on_coset.amps,
                           rtol=8 * len(full.strings) * np.finfo(float).eps, atol=0)


def drawing_order(op: PauliOperator, strings) -> list[int]:
    """The positions in ``op``'s canonical order of the drawn strings that
    ``op`` kept, in the order they were drawn."""
    index = {(t.x, t.z): i for i, t in enumerate(op.terms)}
    return list(dict.fromkeys(index[p.x, p.z] for p in strings if (p.x, p.z) in index))


def pair_runs(n: int, gens, tails) -> list[PauliString]:
    """Strings on n qubits in runs over neighbouring generators a, b: each
    run has x-masks a, b and then its tail of (x-mask, z-mask, coeff)."""
    return [PauliString(n, x, z, c) for (a, b), tail in zip(zip(gens, gens[1:]), tails)
            for x, z, c in [(a, 0, 0.3), (b, 1, -0.7)] + tail]


# four generators in three runs: in drawing order all 22 strings fuse into
# one matvec block of 16 shifts
FOUR_GENERATOR_RUNS = pair_runs(5, [1, 2, 4, 8], [
    [(1, 3, 0.5), (0, 7, 1.1), (3, 12, -0.4), (2, 5, 0.9), (3, 30, 0.2), (1, 17, -1.3)],
    [(6, 9, 0.6), (2, 0, 1.7), (4, 21, -0.8), (0, 2, 0.4), (6, 6, 1.2), (4, 19, 0.7)],
    [(12, 11, -0.5), (8, 4, 0.8), (0, 9, 1.4), (4, 28, -1.1), (12, 1, 0.3)]])


@st.composite
def generator_sums(draw):
    """(hermitian operator on 2 to 8 qubits, a permutation of its strings, a
    basis index i0). The x-masks are sums of 2 to 4 generators, which need
    not be independent, so runs of strings span 4 to 16 shifts and take
    the matvec form."""
    n = draw(st.integers(2, 8))
    gens = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=2, max_size=4))
    strings = []
    for _ in range(draw(st.integers(8, 40))):
        x = 0
        for g in gens:
            if draw(st.booleans()):
                x ^= g
        strings.append(PauliString(n, x, draw(st.integers(0, (1 << n) - 1)),
                                   draw(st.floats(-2.0, 2.0))))
    op = PauliOperator.from_terms(n, strings)
    return (op, draw(st.permutations(range(op.n_terms))),
            draw(st.integers(0, (1 << n) - 1)))


@st.composite
def generator_pair_runs(draw):
    """(hermitian operator on 2 to 8 qubits, an order of its strings, a
    basis index i0). The x-masks are sums of 2 to 4 independent
    generators, drawn in runs over neighbouring pairs of them
    (``pair_runs``); in drawing order consecutive runs fuse into blocks of
    4, 8 or 16 shifts that take the matvec form, and a random permutation
    of the strings mixes the runs."""
    n = draw(st.integers(2, 8))
    gens = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=2, max_size=min(4, n)))
    assume(len(_echelon(gens)) == len(gens))
    coeffs = st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3)
    tails = [draw(st.lists(st.tuples(st.sampled_from([0, a, b, a ^ b]),
                                     st.integers(0, (1 << n) - 1), coeffs),
                           min_size=2, max_size=12))
             for a, b in zip(gens, gens[1:])]
    strings = pair_runs(n, gens, tails)
    op = PauliOperator.from_terms(n, strings)
    order = draw(st.one_of(st.just(drawing_order(op, strings)),
                           st.permutations(range(op.n_terms))))
    return op, order, draw(st.integers(0, (1 << n) - 1))


def few_generator_systems():
    """Either draw: any sums of a few generators (``generator_sums``), or
    runs over pairs of them (``generator_pair_runs``), which reach blocks
    of 16 shifts far more often."""
    return st.one_of(generator_sums(), generator_pair_runs())


@settings(max_examples=200, deadline=None)
@given(few_generator_systems(), st.sampled_from([3, 200]), st.floats(1e-3, 1.0),
       st.integers(0, 2**32 - 1))
@example((PauliOperator.from_terms(5, FOUR_GENERATOR_RUNS),
          drawing_order(PauliOperator.from_terms(5, FOUR_GENERATOR_RUNS), FOUR_GENERATOR_RUNS),
          0), 200, 0.05, 0)
def test_matvec_blocks_match_oracles(system, n_steps, dt, seed):
    # the per-string product formula to round-off; the tapered and the
    # full-register step bit for bit, since each coset's matvec rounds alike
    op, order, i0 = system
    coset = Coset.reachable(op, i0)
    full, tapered = (dataclasses.replace(plan, strings=tuple(plan.strings[i] for i in order))
                     for plan in (trotter_plan(op, dt, n_steps),
                                  trotter_plan(op, dt, n_steps, coset=coset)))
    assert block_cuts(tapered) == block_cuts(full)
    amps = random_state(np.random.default_rng(seed), coset.r).amps
    on_coset, reference = StateVector(amps.copy(), coset), StateVector(amps.copy(), coset)
    everywhere = StateVector(np.zeros(1 << op.n_qubits, dtype=complex))
    everywhere.amps[coset.index] = amps
    for _ in range(2):
        trotter_step(on_coset, tapered)
        trotter_step(everywhere, full)
        trotter_step_reference(reference, tapered)
    assert np.max(np.abs(on_coset.amps - reference.amps)) <= 1e-12
    if coset.r:
        assert np.array_equal(everywhere.amps[coset.index], on_coset.amps)
    else:  # a length-1 product rounds without the vector loop's fused multiply-add
        assert np.allclose(everywhere.amps[coset.index], on_coset.amps,
                           rtol=8 * len(full.strings) * np.finfo(float).eps, atol=0)


@st.composite
def spanning_runs(draw):
    """(a run of strings on r = k to 8 qubits whose x-masks span k = 2, 3 or
    4 dimensions, r, dt): each of k independent generators is some string's
    x-mask, and the others' x-masks are sums of them."""
    k = draw(st.sampled_from([2, 3, 4]))
    r = draw(st.integers(k, 8))
    gens = draw(st.lists(st.integers(1, (1 << r) - 1), min_size=k, max_size=k))
    assume(len(_echelon(gens)) == k)
    xs = gens + [draw(st.sampled_from([x for x in range(1 << r)
                                        if len(_echelon(gens + [x])) == k]))
                 for _ in range(draw(st.integers(0, 20)))]
    run = [PauliString(r, x, draw(st.integers(0, (1 << r) - 1)), draw(st.floats(-2.0, 2.0)))
           for x in draw(st.permutations(xs))]
    return run, r, draw(st.floats(1e-3, 1.0))


@settings(max_examples=200, deadline=None)
@given(spanning_runs())
def test_direct_matrices_match_folded_oracle(system):
    # the matrices built string by string in one pass, up to 16 shifts,
    # against those read from the folded terms
    run, r, dt = system
    m, positions = _matvec_table(run, dt, tuple(range(r)))
    assert m.size <= FUSE_ENTRIES
    assert_matvec_matches_folded(run, dt, r, m, positions)


def test_span_bound_cuts_a_long_run():
    # x-masks cycling through four generators: every run of more than three
    # strings spans four dimensions, so only the bound keeps runs short
    strings = [PauliString(4, 1 << (i % 4), 0, 0.1 * (i + 1)) for i in range(40)]
    op = PauliOperator.from_terms(4, strings)
    plan = trotter_plan(op, 0.1, 200)
    for op in block_ops(plan):
        assert_block_bounds(op)


@st.composite
def short_plans(draw):
    """(at most 10 strings on n = 1 to 8 qubits, in drawn order, tapered
    onto the coset of their x-masks or not, n_steps, a FUSE_ENTRIES
    budget). The x-masks are sums of up to 6 generators, so runs span up
    to 64 shifts; under the small budgets a table fits only for n <= 5, 6
    or 8, and the Z/Y and matrix-entry rules bind."""
    n = draw(st.integers(1, 8))
    gens = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=6))
    strings = []
    for _ in range(draw(st.integers(0, 10))):
        x = 0
        for g in gens:
            if draw(st.booleans()):
                x ^= g
        strings.append(PauliString(n, x, draw(st.integers(0, (1 << n) - 1)),
                                   draw(st.floats(-2.0, 2.0))))
    if strings and draw(st.booleans()):
        coset = Coset.reachable(PauliOperator.from_terms(
            n, [PauliString(n, p.x, 0, 1.0) for p in strings]), 0)
        strings = [coset.taper(p) for p in strings]
    return (tuple(strings), draw(st.sampled_from([1, 3, 20, 200])),
            draw(st.sampled_from([1 << 4, 1 << 5, 1 << 7, FUSE_ENTRIES])))


# eight strings spanning 16 shifts: one matvec block, unless its matrices
# may hold only 32 entries, where the first string's two dep qubits make
# 2^2 x 4 x 4 of them, so it stands alone
ENTRIES_BIND = tuple(PauliString(4, x, z, c) for x, z, c in (
    (1, 0b1100, 0.3), (2, 0, -0.7), (3, 0, 0.5), (1, 0, 1.1), (2, 0, 0.4),
    (3, 0, -0.9), (4, 0, 0.2), (8, 0, 0.6)))


@settings(max_examples=300, deadline=None)
@given(short_plans())
@example((ENTRIES_BIND, 200, FUSE_ENTRIES))
@example((ENTRIES_BIND, 200, 1 << 5))
def test_block_starts_cut_is_the_cheapest_allowed(plan):
    # the DP's cut is one the rules allow, and none costs less
    strings, n_steps, entries = plan
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lgt.dynamics, "FUSE_ENTRIES", entries)
        starts = tuple(_block_starts(strings, n_steps))
    costs = pauli_oracle.block_starts_reference(strings, n_steps, entries)
    assert starts in costs
    assert costs[starts] == min(costs.values())


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
    full, tapered = trotter_plan(h.total, dt, 2), trotter_plan(h.total, dt, 2, coset=coset)
    *_, (_, everywhere) = trotter_states(Coset.full(lay.n_total).basis_state(i0), full)
    *_, (_, on_coset) = trotter_states(coset.basis_state(i0), tapered)
    assert np.array_equal(everywhere.amps[coset.index], on_coset.amps)
    assert np.count_nonzero(on_coset.amps) == np.count_nonzero(everywhere.amps) > 1


@pytest.mark.parametrize("name", ["vacuum_decay", "string_breaking_1d"])
def test_tapered_merged_blocks_bit_identical(name):
    # the plans of the preset's smallest dt, cut for all its steps, hold
    # blocks of 16 shifts; the cut counts a block's dep qubits as the
    # tapered plan has them, so the full register cuts alike
    sc = validate_config(PRESETS[name] | {"scenario": name})
    lay = build_layout(sc)
    h = assemble(lay, sc.params, sc.mapping)
    i0 = initial_index(sc.initial, lay, fermion_mapping(sc.mapping, lay.n_fermionic),
                       sc.params)
    coset = Coset.reachable(h.total, i0)
    dt = min(sc.evolution["dt"])
    n_steps = round(sc.evolution["t_max"] / dt)
    full = trotter_plan(h.total, dt, n_steps)
    tapered = trotter_plan(h.total, dt, n_steps, coset=coset)
    assert block_cuts(full) == block_cuts(tapered)
    assert max(n_terms(op) for op in block_ops(tapered)) == 16
    everywhere, on_coset = Coset.full(lay.n_total).basis_state(i0), coset.basis_state(i0)
    for _ in range(3):
        trotter_step(everywhere, full)
        trotter_step(on_coset, tapered)
    assert np.array_equal(everywhere.amps[coset.index], on_coset.amps)


@pytest.mark.parametrize("name", ["vacuum_decay", "string_breaking_1d",
                                  "double_plaquette_2d"])
def test_preset_plan_builds_stay_small(name):
    # each plan a run builds, on its coset: past what the step keeps (its
    # matrices, tables and term tensors), the build holds under 1 MB
    sc = validate_config(PRESETS[name] | {"scenario": name})
    lay = build_layout(sc)
    h = assemble(lay, sc.params, sc.mapping)
    i0 = initial_index(sc.initial, lay, fermion_mapping(sc.mapping, lay.n_fermionic),
                       sc.params)
    tapered = trotter_plan(h.total, 0.0, 0, Coset.reachable(h.total, i0))
    for dt in sc.evolution["dt"]:
        plan = dataclasses.replace(tapered, dt=dt,
                                   n_steps=_n_steps(sc.evolution["t_max"], dt))
        tracemalloc.start()
        try:
            step = plan._step
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert any(type(op) is _Matvec for op in step.ops)
        assert peak - kept < 2**20, (dt, peak - kept)


@pytest.mark.parametrize("name", ["vacuum_decay", "string_breaking_1d",
                                  "double_plaquette_2d"])
def test_preset_matvec_blocks_stay_within_budget(name, monkeypatch):
    # each plan a run builds, on its coset: every matvec block's matrices
    # hold at most FUSE_ENTRIES entries, and each build of them holds at
    # most 512 KiB past what it keeps
    sc = validate_config(PRESETS[name] | {"scenario": name})
    lay = build_layout(sc)
    h = assemble(lay, sc.params, sc.mapping)
    i0 = initial_index(sc.initial, lay, fermion_mapping(sc.mapping, lay.n_fermionic),
                       sc.params)
    tapered = trotter_plan(h.total, 0.0, 0, Coset.reachable(h.total, i0))
    transients = []

    def traced_build(*args):
        tracemalloc.reset_peak()
        table = _matvec_table(*args)
        kept, peak = tracemalloc.get_traced_memory()
        transients.append(peak - kept)
        return table

    monkeypatch.setattr(lgt.dynamics, "_matvec_table", traced_build)
    for dt in sc.evolution["dt"]:
        plan = dataclasses.replace(tapered, dt=dt,
                                   n_steps=_n_steps(sc.evolution["t_max"], dt))
        tracemalloc.start()
        try:
            step = plan._step
        finally:
            tracemalloc.stop()
        matrices = [op.m.size for op in step.ops if type(op) is _Matvec]
        assert matrices and max(matrices) <= FUSE_ENTRIES, (dt, matrices)
    assert len(transients) > 0 and max(transients) <= 512 * 1024, transients


def test_double_plaquette_registers_agree_to_round_off():
    # only the 13-qubit coset fits the matvec tables, so a plan cut for 20
    # steps takes the matvec form there and the pass form on the 19-qubit
    # register: the two agree to round-off, not bit for bit
    sc = validate_config(PRESETS["double_plaquette_2d"] | {"scenario": "double_plaquette_2d"})
    lay = build_layout(sc)
    h = assemble(lay, sc.params, sc.mapping)
    i0 = initial_index(sc.initial, lay, fermion_mapping(sc.mapping, lay.n_fermionic),
                       sc.params)
    coset = Coset.reachable(h.total, i0)
    dt = sc.evolution["dt"][0]
    full, tapered = trotter_plan(h.total, dt, 20), trotter_plan(h.total, dt, 20, coset=coset)
    assert tapered.kernel_summary()["matvec_blocks"] > 0
    assert full.kernel_summary()["matvec_blocks"] == 0
    *_, (_, everywhere) = trotter_states(Coset.full(lay.n_total).basis_state(i0), full)
    *_, (_, on_coset) = trotter_states(coset.basis_state(i0), tapered)
    assert np.max(np.abs(everywhere.amps[coset.index] - on_coset.amps)) <= 1e-12


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
    configs = ConfigKeys(lay, mapping, sc.params, coset)
    total, kept = gauss_filter(configs)
    assert total == 2**lay.n_fermionic * round(2 * sc.spin + 1)**len(lay.links)
    assert np.array_equal(kept, reference_sector(lay, mapping, sc.params))
    # the particle-number table: per site sum n_upper - sum n_lower + n_spinor/2
    occ, _ = decode_basis(lay, mapping, sc.params.theta_along, coset.index)
    half = lay.n_spinor // 2
    modes = occ.reshape(len(occ), lay.spec.n_sites, lay.n_spinor)
    count = modes[..., :half].sum(axis=2) - modes[..., half:].sum(axis=2) + half
    assert np.array_equal(configs.particles, count.sum(axis=1))
    # a readout of a state spread over the whole coset reads the table as
    # the support-decoding reference reads the state
    spread = StateVector(random_state(np.random.default_rng(5), coset.r).amps, coset)
    *_, (_, st) = trotter_states(spread, trotter_plan(h.total, 0.1, 2, coset))
    ref = standard_observables_reference(st, lay, mapping, sc.params)
    assert np.count_nonzero(st.probabilities()) == 1 << coset.r
    assert (standard_observables(st, configs)["total_particle_number"]
            == pytest.approx(ref["total_particle_number"], abs=1e-12))


@pytest.mark.parametrize("cfg", [
    {"scenario": "vacuum_decay"},
    {"scenario": "double_plaquette_2d"},
    {"scenario": "vacuum_decay", "gauge_encoding": "linear"},
    {"scenario": "vacuum_decay", "mapping": "bk"},
], ids=["vacuum_decay", "double_plaquette_2d", "vacuum_decay_linear",
        "vacuum_decay-bk"])
def test_config_keys_walk_in_several_blocks(tmp_path, monkeypatch, cfg):
    # the shipped cosets fit in one GAUSS_BLOCK (2^16 positions), so the
    # walk over several blocks, the last one partial, runs only here
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    sc = validate_config(load_config(path))
    lay = build_layout(sc)
    mapping = fermion_mapping(sc.mapping, lay.n_fermionic)
    h = assemble(lay, sc.params, sc.mapping)
    coset = Coset.reachable(h.total, initial_index(sc.initial, lay, mapping,
                                                   sc.params))
    monkeypatch.setattr("lgt.dynamics.GAUSS_BLOCK", len(coset.index))
    whole = ConfigKeys(lay, mapping, sc.params, coset)
    # 100 and 1000 leave a partial last block on every 2^r positions; the
    # one-hot coset has 512, fewer than 1000
    assert len(coset.index) > 100
    for block in (64, 100, 1000):
        monkeypatch.setattr("lgt.dynamics.GAUSS_BLOCK", block)
        got = ConfigKeys(lay, mapping, sc.params, coset)
        for name in ("key", "index", "physical", "particles"):
            assert np.array_equal(getattr(got, name), getattr(whole, name)), (block, name)
