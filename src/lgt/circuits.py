"""Circuit synthesis for Pauli-string exponentials and Trotter steps.

exp(-i theta P) is realized the standard way: rotate every support qubit
into the Z basis (H for X, S^dag then H for Y), accumulate the parity on the
highest-index support qubit with a CNOT ladder, apply RZ(2 theta) there, and
uncompute. Identity strings produce an empty circuit with a recorded global
phase. Gate counts per string are exactly 2 (support - 1) CNOTs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from lgt.pauli import PauliOperator, PauliString

GATE_NAMES = ("h", "s", "sdg", "rz", "cx")


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    param: float | None = None

    def __post_init__(self):
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate {self.name!r}")
        if self.name == "cx" and len(self.qubits) != 2:
            raise ValueError("cx needs control and target")
        if self.name == "rz" and (self.param is None
                                  or not math.isfinite(self.param)):
            raise ValueError("rz needs a finite angle")


@dataclass
class Circuit:
    n_qubits: int
    gates: list[Gate] = field(default_factory=list)
    global_phase: float = 0.0

    def add(self, name: str, *qubits: int, param: float | None = None) -> None:
        for q in qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"qubit {q} outside register of {self.n_qubits}")
        self.gates.append(Gate(name, tuple(qubits), param))

    def extend(self, other: "Circuit") -> None:
        if other.n_qubits != self.n_qubits:
            raise ValueError("register size mismatch")
        self.gates.extend(other.gates)
        self.global_phase += other.global_phase

    def gate_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for g in self.gates:
            counts[g.name] = counts.get(g.name, 0) + 1
        return counts

    @property
    def cnot_count(self) -> int:
        return sum(1 for g in self.gates if g.name == "cx")

    def depth(self) -> int:
        """Schedule depth under all-to-all connectivity (unit-time gates)."""
        level = [0] * self.n_qubits
        depth = 0
        for g in self.gates:
            t = 1 + max(level[q] for q in g.qubits)
            for q in g.qubits:
                level[q] = t
            depth = max(depth, t)
        return depth


def synth_pauli_exp(p: PauliString, theta: float) -> Circuit:
    """Circuit for exp(-i theta c P) where c = Re coeff of the string."""
    if abs(p.coeff.imag) > 1e-12:
        raise ValueError("exponentiation needs a hermitian (real) coefficient")
    angle = theta * p.coeff.real
    circ = Circuit(p.n)
    supp = [i for i in range(p.n) if (p.x >> i) & 1 or (p.z >> i) & 1]
    if not supp:
        circ.global_phase = -angle
        return circ
    target = supp[-1]
    pre: list[Gate] = []
    for q in supp:
        xb, zb = (p.x >> q) & 1, (p.z >> q) & 1
        if xb and zb:        # Y basis
            pre.append(Gate("sdg", (q,)))
            pre.append(Gate("h", (q,)))
        elif xb:             # X basis
            pre.append(Gate("h", (q,)))
    ladder = [Gate("cx", (supp[i], supp[i + 1])) for i in range(len(supp) - 1)]
    circ.gates.extend(pre)
    circ.gates.extend(ladder)
    circ.add("rz", target, param=2.0 * angle)
    circ.gates.extend(reversed(ladder))
    for g in reversed(pre):
        circ.gates.append(Gate("s", g.qubits) if g.name == "sdg" else g)
    return circ


def synth_trotter_step(op: PauliOperator, dt: float) -> Circuit:
    """One first-order Trotter step on ``op``'s register: one exponential
    per string, in the canonical order that ``lgt.dynamics.trotter_plan``
    applies them."""
    circ = Circuit(op.n_qubits)
    for t in op.terms:
        circ.extend(synth_pauli_exp(t, dt))
    return circ


# -- OpenQASM 2.0 -----------------------------------------------------------


def export_qasm(circ: Circuit) -> str:
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";',
             f"qreg q[{circ.n_qubits}];"]
    for g in circ.gates:
        if g.name == "cx":
            lines.append(f"cx q[{g.qubits[0]}],q[{g.qubits[1]}];")
        elif g.name == "rz":
            # float(): a NumPy scalar would print as np.float64(...)
            lines.append(f"rz({float(g.param)!r}) q[{g.qubits[0]}];")
        else:
            lines.append(f"{g.name} q[{g.qubits[0]}];")
    return "\n".join(lines) + "\n"
