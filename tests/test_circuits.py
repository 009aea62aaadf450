"""Circuit synthesis, gate counting, depth, and QASM round trips."""

import numpy as np
import pytest
from scipy.linalg import expm

from lgt.circuits import (
    Circuit,
    Gate,
    circuit_unitary,
    export_qasm,
    parse_qasm,
    synth_pauli_exp,
    synth_trotter_step,
)
from lgt.dynamics import StateVector, apply_pauli_exp
from lgt.hamiltonian import ModelParams, assemble
from lgt.lattice import LatticeSpec, RegisterLayout
from lgt.pauli import PauliOperator, PauliString
from pauli_oracle import to_matrix
from lgt.resources import cnot_per_trotter_step


def exp_ref(p: PauliString, theta: float) -> np.ndarray:
    axes = PauliOperator.from_terms(p.n, [p._replace(coeff=1.0)])
    return expm(-1j * theta * p.coeff.real * to_matrix(axes))


class TestSynthPauliExp:
    def test_zzzz_ladder(self):
        circ = synth_pauli_exp(PauliString.from_label("ZZZZ"), 0.5)
        assert [g.name for g in circ.gates] == ["cx"] * 3 + ["rz"] + ["cx"] * 3
        assert circ.gates[3].qubits == (3,)  # rotation on the last support qubit

    def test_single_z(self):
        circ = synth_pauli_exp(PauliString.from_label("Z"), 0.3)
        assert circ.cnot_count == 0
        assert [g.name for g in circ.gates] == ["rz"]

    def test_identity_records_global_phase(self):
        circ = synth_pauli_exp(PauliString.from_label("II", 2.0), 0.25)
        assert circ.gates == [] and abs(circ.global_phase + 0.5) < 1e-15
        u = circuit_unitary(circ)
        assert np.allclose(u, np.exp(-0.5j) * np.eye(4))

    @pytest.mark.parametrize("label", ["YZZX" + "I", "XIZYI", "IYXII", "ZIIIZ"])
    def test_unitary_equivalence(self, label):
        p = PauliString.from_label(label, 0.8)
        circ = synth_pauli_exp(p, -0.41)
        assert np.max(np.abs(circuit_unitary(circ) - exp_ref(p, -0.41))) < 1e-10

    def test_cnot_count_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            label = "".join(rng.choice(list("IXYZ")) for _ in range(6))
            p = PauliString.from_label(label, 1.0)
            circ = synth_pauli_exp(p, 0.2)
            assert circ.cnot_count == max(0, 2 * (p.support - 1))

    def test_matches_statevector_kernel(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            label = "".join(rng.choice(list("IXYZ")) for _ in range(4))
            theta = rng.normal()
            p = PauliString.from_label(label, 1.0)
            circ = synth_pauli_exp(p, theta)
            u = circuit_unitary(circ)
            v = rng.normal(size=16) + 1j * rng.normal(size=16)
            v /= np.linalg.norm(v)
            st = StateVector(4, v.copy())
            apply_pauli_exp(st, p, theta)
            assert np.max(np.abs(u @ v - st.amps)) < 1e-10

    def test_rejects_complex_coefficient(self):
        with pytest.raises(ValueError):
            synth_pauli_exp(PauliString.from_label("X", 1j), 0.1)


@pytest.fixture(scope="module")
def small_h():
    lay = RegisterLayout(LatticeSpec(1, (2,), "open"), "log", 0.5)
    return assemble(lay, ModelParams(m=0.5, r=1.0, e=1.0, lam=2.0))


class TestTrotterStepCircuit:

    def test_total_cnots_match_formula(self, small_h):
        circ = synth_trotter_step(small_h, 0.05)
        assert circ.cnot_count == cnot_per_trotter_step(small_h.total)

    def test_unitary_matches_sequential_kernel(self, small_h):
        circ = synth_trotter_step(small_h, 0.05)
        u = circuit_unitary(circ, max_qubits=6)
        rng = np.random.default_rng(4)
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        v /= np.linalg.norm(v)
        st = StateVector(5, v.copy())
        for t in small_h.total.terms:
            apply_pauli_exp(st, t, t.coeff.real * 0.05)
        assert np.max(np.abs(u @ v - st.amps)) < 1e-10

    def test_disjoint_supports_schedule_in_parallel(self):
        op = PauliOperator.from_terms(4, [
            PauliString.from_label("ZZII", 1.0),
            PauliString.from_label("IIZZ", 1.0)])
        circ = synth_trotter_step(op, 0.1)
        assert circ.depth() < len(circ.gates)
        assert circ.depth() == 3  # the two exponential blocks run side by side

    def test_electric_depth_size_independent(self):
        depths = []
        for ext in ((2, 2), (4, 4)):
            lay = RegisterLayout(LatticeSpec(2, ext, "open"), "log", 1.0)
            h = assemble(lay, ModelParams(m=0.5, r=1.0, e=1.0))
            circ = Circuit(lay.n_total)
            for t in h.elec.terms:
                circ.extend(synth_pauli_exp(t, 0.1))
            depths.append(circ.depth())
        assert depths[0] == depths[1]

    def test_gate_counts_additive(self, small_h):
        a = synth_trotter_step(small_h, 0.05)
        b = synth_trotter_step(small_h, 0.05)
        combined = Circuit(a.n_qubits)
        combined.extend(a)
        combined.extend(b)
        for name, count in a.gate_counts().items():
            assert combined.gate_counts()[name] == count + b.gate_counts()[name]


class TestQasm:
    def test_empty_circuit(self):
        text = export_qasm(Circuit(3))
        assert text.splitlines() == [
            "OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[3];"]

    def test_single_cnot(self):
        circ = Circuit(2)
        circ.add("cx", 0, 1)
        assert export_qasm(circ).splitlines()[-1] == "cx q[0],q[1];"

    def test_roundtrip_synth(self):
        circ = synth_pauli_exp(PauliString.from_label("ZZZZ"), 0.7)
        back = parse_qasm(export_qasm(circ))
        assert back.n_qubits == circ.n_qubits
        assert back.gates == circ.gates

    def test_roundtrip_with_rotations(self):
        circ = synth_pauli_exp(PauliString.from_label("YXZ", -1.5), 0.123456789)
        back = parse_qasm(export_qasm(circ))
        assert back.gates == circ.gates

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_qasm("qreg q[2];\nfoo q[0];")


class TestGateValidation:
    def test_unknown_gate(self):
        with pytest.raises(ValueError):
            Gate("t", (0,))

    def test_rz_needs_angle(self):
        with pytest.raises(ValueError):
            Gate("rz", (0,))

    def test_rx_is_not_a_gate(self):
        with pytest.raises(ValueError, match="unknown gate"):
            Gate("rx", (0,), 0.1)
        with pytest.raises(ValueError, match="cannot parse"):
            parse_qasm("qreg q[1];\nrx(0.1) q[0];")

    def test_qubit_range_checked(self):
        circ = Circuit(2)
        with pytest.raises(ValueError):
            circ.add("h", 2)
