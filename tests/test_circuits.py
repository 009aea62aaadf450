"""Trotter-step circuits: the written text against the gate-level oracle,
gate counts, depth, unitaries and the QASM reader."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lgt.circuits import step_gate_counts, write_trotter_step
from lgt.dynamics import StateVector, trotter_plan
from lgt.hamiltonian import ModelParams, assemble
from lgt.lattice import LatticeSpec, RegisterLayout
from lgt.pauli import PauliOperator, PauliString
from circuit_oracle import (
    circuit_unitary,
    gate_counts,
    parse_qasm,
    schedule_depth,
    step_gates,
)
from pauli_oracle import apply_pauli_exp, to_matrix
from lgt.resources import cnot_per_trotter_step


def step_text(op: PauliOperator, dt: float) -> tuple[str, int]:
    """The written step and the depth the writer reports."""
    fh = io.StringIO()
    depth = write_trotter_step(op, dt, fh)
    return fh.getvalue(), depth


def step_unitary(op: PauliOperator, dt: float, max_qubits: int = 8) -> np.ndarray:
    """Unitary of the written step, times exp(-i dt c_I) for the identity
    string, a global phase that OpenQASM 2.0 cannot express."""
    c_id = op.coefficient(PauliString(op.n_qubits, 0, 0, 1.0)).real
    u = circuit_unitary(parse_qasm(step_text(op, dt)[0]), max_qubits)
    return np.exp(-1j * dt * c_id) * u


def one(label: str, coeff: complex = 1.0) -> PauliOperator:
    return PauliOperator.from_label(label, coeff)


def exp_ref(p: PauliString, theta: float) -> np.ndarray:
    axes = PauliOperator.from_terms(p.n, [p._replace(coeff=1.0)])
    return expm(-1j * theta * p.coeff.real * to_matrix(axes))


class TestSynthPauliExp:
    def test_zzzz_ladder(self):
        _, gates = parse_qasm(step_text(one("ZZZZ"), 0.5)[0])
        assert [g[0] for g in gates] == ["cx"] * 3 + ["rz"] + ["cx"] * 3
        assert gates[3][1] == (3,)  # rotation on the last support qubit

    def test_single_z(self):
        _, gates = parse_qasm(step_text(one("Z"), 0.3)[0])
        assert [g[0] for g in gates] == ["rz"]
        assert "cx" not in step_gate_counts(one("Z"))

    def test_identity_records_global_phase(self):
        op = one("II", 2.0)
        text, depth = step_text(op, 0.25)
        assert parse_qasm(text) == (2, []) and depth == 0
        assert step_gate_counts(op) == {}
        assert np.allclose(step_unitary(op, 0.25), np.exp(-0.5j) * np.eye(4))

    @pytest.mark.parametrize("label", ["YZZX" + "I", "XIZYI", "IYXII", "ZIIIZ"])
    def test_unitary_equivalence(self, label):
        p = PauliString.from_label(label, 0.8)
        u = step_unitary(PauliOperator.from_terms(5, [p]), -0.41)
        assert np.max(np.abs(u - exp_ref(p, -0.41))) < 1e-10

    def test_cnot_count_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            label = "".join(rng.choice(list("IXYZ")) for _ in range(6))
            p = PauliString.from_label(label, 1.0)
            _, gates = parse_qasm(step_text(PauliOperator.from_terms(6, [p]), 0.2)[0])
            assert gate_counts(gates).get("cx", 0) == max(0, 2 * (p.support - 1))

    def test_matches_statevector_kernel(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            label = "".join(rng.choice(list("IXYZ")) for _ in range(4))
            theta = rng.normal()
            p = PauliString.from_label(label, 1.0)
            u = step_unitary(PauliOperator.from_terms(4, [p]), theta)
            v = rng.normal(size=16) + 1j * rng.normal(size=16)
            v /= np.linalg.norm(v)
            state = StateVector(v.copy())
            apply_pauli_exp(state, p, theta)
            assert np.max(np.abs(u @ v - state.amps)) < 1e-10

    def test_rejects_complex_coefficient(self):
        fh = io.StringIO()
        with pytest.raises(ValueError, match="real"):
            write_trotter_step(one("X", 1j), 0.1, fh)
        assert fh.getvalue() == ""

    @pytest.mark.parametrize("make", [
        lambda op: trotter_plan(op, 0.1, 1),
        lambda op: write_trotter_step(op, 0.1, io.StringIO())], ids=["plan", "qasm"])
    def test_plan_and_circuit_share_the_real_tolerance(self, make):
        # an imaginary part above DROP_TOL = 1e-12 is refused, one below it is not
        with pytest.raises(ValueError, match="real"):
            make(one("X", 1.0 + 1e-11j))
        make(one("X", 1.0 + 1e-13j))

    def test_rejects_non_finite_angle(self):
        op = PauliOperator.from_terms(2, [PauliString.from_label("ZI", 1.0),
                                          PauliString.from_label("IX", 4.0)])
        fh = io.StringIO()
        with pytest.raises(ValueError, match="not finite"):
            write_trotter_step(op, 1e308, fh)
        assert fh.getvalue() == ""
        # an identity string writes no rotation, so its angle is not checked
        assert step_text(one("II", 4.0), 1e308)[1] == 0


@pytest.fixture(scope="module")
def small_h():
    lay = RegisterLayout(LatticeSpec(1, (2,), "open"), "log", 0.5)
    return assemble(lay, ModelParams(m=0.5, r=1.0, e=1.0, lam=2.0))


class TestTrotterStepCircuit:

    def test_total_cnots_match_formula(self, small_h):
        _, gates = parse_qasm(step_text(small_h.total, 0.05)[0])
        assert gate_counts(gates)["cx"] == cnot_per_trotter_step(small_h.total)

    def test_unitary_matches_sequential_kernel(self, small_h):
        u = step_unitary(small_h.total, 0.05, max_qubits=6)
        rng = np.random.default_rng(4)
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        v /= np.linalg.norm(v)
        state = StateVector(v.copy())
        for t in small_h.total.terms:
            apply_pauli_exp(state, t, t.coeff.real * 0.05)
        assert np.max(np.abs(u @ v - state.amps)) < 1e-10

    def test_disjoint_supports_schedule_in_parallel(self):
        op = PauliOperator.from_terms(4, [
            PauliString.from_label("ZZII", 1.0),
            PauliString.from_label("IIZZ", 1.0)])
        text, depth = step_text(op, 0.1)
        assert depth < len(parse_qasm(text)[1])
        assert depth == 3  # the two exponential blocks run side by side

    def test_electric_depth_size_independent(self):
        depths = []
        for ext in ((2, 2), (4, 4)):
            lay = RegisterLayout(LatticeSpec(2, ext, "open"), "log", 1.0)
            h = assemble(lay, ModelParams(m=0.5, r=1.0, e=1.0))
            depths.append(step_text(h.elec, 0.1)[1])
        assert depths[0] == depths[1]


# random operators: identity and single-qubit strings, shared and disjoint
# supports; coefficients of either sign
@st.composite
def operators(draw):
    n = draw(st.integers(1, 6))
    labels = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n),
                           min_size=1, max_size=8))
    coeffs = draw(st.lists(st.floats(-3.0, 3.0).filter(lambda c: abs(c) > 1e-6),
                           min_size=len(labels), max_size=len(labels)))
    return PauliOperator.from_terms(n, [PauliString.from_label(label, c)
                                        for label, c in zip(labels, coeffs)])


@settings(max_examples=300, deadline=None)
@given(operators(), st.floats(1e-3, 1.0))
def test_written_step_matches_gate_oracle(op, dt):
    text, depth = step_text(op, dt)
    n, gates = parse_qasm(text)
    assert (n, gates) == (op.n_qubits, step_gates(op, dt))
    assert depth == schedule_depth(n, gates)
    assert step_gate_counts(op) == gate_counts(gates)


class TestQasm:
    def test_empty_circuit(self):
        text, depth = step_text(PauliOperator.zero(3), 0.1)
        assert text.splitlines() == [
            "OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[3];"]
        assert depth == 0

    def test_single_cnot(self):
        lines = step_text(one("ZZ"), 0.25)[0].splitlines()
        assert lines[3:] == ["cx q[0],q[1];", "rz(0.5) q[1];", "cx q[0],q[1];"]

    def test_roundtrip_synth(self):
        op = one("ZZZZ")
        assert parse_qasm(step_text(op, 0.7)[0]) == (4, step_gates(op, 0.7))

    def test_roundtrip_with_rotations(self):
        op = one("YXZ", -1.5)
        gates = step_gates(op, 0.123456789)
        assert parse_qasm(step_text(op, 0.123456789)[0]) == (3, gates)
        assert [g[0] for g in gates] == ["sdg", "h", "h", "cx", "cx", "rz",
                                         "cx", "cx", "h", "h", "s"]

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_qasm("qreg q[2];\nfoo q[0];")


class TestGateValidation:
    def test_unknown_gate(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_qasm("qreg q[1];\nt q[0];")

    def test_rz_needs_angle(self):
        # and no other gate takes one; cx needs control and target
        for line in ("rz q[0];", "rz(nan) q[0];", "rz(inf) q[0];", "h(0.5) q[0];",
                     "cx q[0];", "h q[0],q[1];"):
            with pytest.raises(ValueError, match="malformed"):
                parse_qasm(f"qreg q[2];\n{line}")

    def test_rx_is_not_a_gate(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_qasm("qreg q[1];\nrx(0.1) q[0];")

    def test_qubit_range_checked(self):
        for line in ("h q[2];", "cx q[0],q[2];"):
            with pytest.raises(ValueError, match="outside register"):
                parse_qasm(f"qreg q[2];\n{line}")
