"""Trotter-step circuits: the written text against the gate-level oracle,
gate counts, depth, unitaries and the QASM reader."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lgt.circuits import step_gate_counts, write_trotter_step
from lgt.dynamics import StateVector, trotter_plan
from lgt.hamiltonian import ModelParams, assemble
from lgt.lattice import LatticeSpec, RegisterLayout
from lgt.pauli import PauliOperator, PauliString, _masks, _n_words
from circuit_oracle import (
    circuit_unitary,
    gate_counts,
    parse_qasm,
    schedule_depth,
    step_gates,
)
from pauli_oracle import (
    apply_pauli_exp,
    cnot_per_trotter_step_reference,
    step_gate_counts_reference,
    to_matrix,
)
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


# -- passes over row blocks ----------------------------------------------------


class Stop(Exception):
    pass


class ByteCount:
    """A text sink that keeps only the number of characters written; with
    ``stop_after``, it raises ``Stop`` at the write after that many."""

    def __init__(self, stop_after: int | None = None):
        self.n = self.writes = 0
        self.stop_after = stop_after

    def write(self, text: str) -> None:
        if self.writes == self.stop_after:
            raise Stop
        self.writes += 1
        self.n += len(text)


def tiled(n: int, rows: int, strings: list[tuple[int, int]],
          coeffs: np.ndarray | None = None) -> PauliOperator:
    """``rows`` strings on ``n`` qubits, the (x, z) masks of ``strings``
    repeated; coefficient 1 unless given. The rows need not be canonical
    for the counts and the writer."""
    xs, zs = zip(*strings)
    reps = -(-rows // len(strings))
    masks = np.tile(_masks(xs, zs, _n_words(n)), (reps, 1))[:rows]
    if coeffs is None:
        coeffs = np.stack([np.ones(rows), np.zeros(rows)], axis=1)
    return PauliOperator(n, masks, coeffs)


# widths around the word edges and past the 255 that uint8 counts hold;
# row counts around one block of 4,096
@st.composite
def tiled_operators(draw):
    n = draw(st.sampled_from([0, 1, 63, 64, 65, 128, 130, 300]))
    rows = draw(st.sampled_from([0, 1, 4095, 4096, 4097]))
    mask = st.integers(0, (1 << n) - 1)
    strings = draw(st.lists(st.tuples(mask, mask), min_size=1, max_size=6))
    # an identity string somewhere in every tile
    strings.insert(draw(st.integers(0, len(strings))), (0, 0))
    return tiled(n, rows, strings)


@settings(max_examples=150, deadline=None)
@given(tiled_operators())
def test_block_counts_match_whole_array_references(op):
    assert cnot_per_trotter_step(op) == cnot_per_trotter_step_reference(op)
    assert step_gate_counts(op) == step_gate_counts_reference(op)


def test_130_qubit_writer_checks_every_block_before_writing():
    # 4,097 strings: the last one, alone in its block, has the coefficient
    # whose angle overflows (1e300 x 1e10) or an imaginary part
    strings = [(0b1011 << 120, 0b110 << 120), (1 << 129, 1 << 129), (0, 1 | 1 << 64)]

    def last_row(c: complex) -> np.ndarray:
        coeffs = np.stack([np.ones(4097), np.zeros(4097)], axis=1)
        coeffs[-1] = c.real, c.imag
        return coeffs

    for last, error in ((1e10, "not finite"), (1 + 1e-11j, "real")):
        sink = ByteCount()
        with pytest.raises(ValueError, match=error):
            write_trotter_step(tiled(130, 4097, strings, last_row(last)), 1e300, sink)
        assert sink.n == 0
    # on the identity string the same coefficient writes no rotation
    sink = ByteCount()
    op = tiled(130, 4097, [(0, 0)] + strings, last_row(1e10))
    assert write_trotter_step(op, 1e300, sink) > 0
    assert sink.n > 0


@pytest.fixture(scope="module")
def total_3x3():
    """The open 3x3 S=1 Hamiltonian with the Gauss penalty: 64,178 strings
    on 42 qubits, 2.05 MB of arrays."""
    lay = RegisterLayout(LatticeSpec(2, (3, 3), "open"), "log", 1.0)
    op = assemble(lay, ModelParams(m=0.4, e=2.0, lam=20.0)).total
    assert op.n_terms == 64178
    return op


def traced_peak(fn) -> int:
    """tracemalloc peak of ``fn()`` above its start, less the bytes of an
    array it returns: what the pass holds beside its operator and result."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - start - (out.nbytes if isinstance(out, np.ndarray) else 0)


@pytest.mark.parametrize("count", [cnot_per_trotter_step, step_gate_counts],
                         ids=["cnot", "gates"])
def test_counts_hold_one_block_at_a_time(total_3x3, count):
    # whole-array counts held 1.1 MB here
    assert traced_peak(lambda: count(total_3x3)) <= 256 * 1024


def test_writer_holds_one_block_at_a_time(total_3x3):
    # A writer with every string's Python masks and angles held 7.6 MB
    # here, all of it before the first string. Under tracemalloc the whole
    # step takes about 20 s, so the sink stops the writer early in the
    # third block (the header is one write, an identity string none).
    sink = ByteCount(stop_after=2 * 4096 + 1)

    def third_block():
        with pytest.raises(Stop):
            write_trotter_step(total_3x3, 0.05, sink)

    assert traced_peak(third_block) <= 2**20
    assert sink.n > 0
