"""Dense unitaries of small circuits and a reader for the OpenQASM subset
that ``lgt.circuits.export_qasm`` writes, to check the synthesized circuits.

Basis indices follow the map stated in ``lgt.lattice.RegisterLayout``.
"""

import math
import re

import numpy as np

from lgt.circuits import Circuit, Gate
from lgt.pauli import _index_mask

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.diag([1, 1j]).astype(complex)
_SDG = _S.conj().T


def _gate_matrix(g: Gate) -> np.ndarray:
    if g.name == "h":
        return _H
    if g.name == "s":
        return _S
    if g.name == "sdg":
        return _SDG
    if g.name == "rz":
        return np.diag([np.exp(-0.5j * g.param), np.exp(0.5j * g.param)])
    raise ValueError(g.name)


def circuit_unitary(circ: Circuit, max_qubits: int = 8) -> np.ndarray:
    """Dense unitary of the circuit including the global phase."""
    n = circ.n_qubits
    if n > max_qubits:
        raise ValueError(f"circuit_unitary limited to {max_qubits} qubits")
    dim = 1 << n
    u = np.eye(dim, dtype=complex) * np.exp(1j * circ.global_phase)
    idx = np.arange(dim)
    for g in circ.gates:
        if g.name == "cx":
            cbit, tbit = (_index_mask(1 << q, n) for q in g.qubits)
            perm = np.where(idx & cbit, idx ^ tbit, idx)
            u = u[perm, :]
        else:
            m = _gate_matrix(g)
            bit = _index_mask(1 << g.qubits[0], n)
            lo = idx[(idx & bit) == 0]
            hi = lo | bit
            rows_lo = m[0, 0] * u[lo, :] + m[0, 1] * u[hi, :]
            rows_hi = m[1, 0] * u[lo, :] + m[1, 1] * u[hi, :]
            u[lo, :] = rows_lo
            u[hi, :] = rows_hi
    return u


_QASM_GATE = re.compile(
    r"^(?P<name>h|s|sdg|rz|cx)\s*(?:\((?P<param>[^)]+)\))?\s+"
    r"q\[(?P<a>\d+)\]\s*(?:,\s*q\[(?P<b>\d+)\])?;$")


def parse_qasm(text: str) -> Circuit:
    """Parser for the subset emitted by export_qasm."""
    circ: Circuit | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("OPENQASM", "include", "//")):
            continue
        m = re.match(r"^qreg\s+q\[(\d+)\];$", line)
        if m:
            circ = Circuit(int(m.group(1)))
            continue
        if circ is None:
            raise ValueError("gate before qreg declaration")
        m = _QASM_GATE.match(line)
        if not m:
            raise ValueError(f"cannot parse line {line!r}")
        qubits = [int(m.group("a"))]
        if m.group("b") is not None:
            qubits.append(int(m.group("b")))
        param = float(m.group("param")) if m.group("param") else None
        circ.add(m.group("name"), *qubits, param=param)
    if circ is None:
        raise ValueError("missing qreg declaration")
    return circ
