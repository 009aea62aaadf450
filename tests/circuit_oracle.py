"""Gate-level reference for the Trotter-step circuits that
``lgt.circuits.write_trotter_step`` writes as OpenQASM 2.0 text.

A circuit here is a pair ``(n_qubits, gates)`` with plain
``(name, qubits, param)`` gate tuples: ``parse_qasm`` reads the text into
one, ``step_gates`` synthesizes one gate by gate, and ``gate_counts``,
``schedule_depth`` and ``circuit_unitary`` count, schedule and multiply it
out densely.

Basis indices follow the map stated in ``lgt.lattice.RegisterLayout``.
"""

import math
import re
from collections import Counter

import numpy as np

from lgt.pauli import PauliOperator, _index_mask

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.diag([1, 1j]).astype(complex)
_SDG = _S.conj().T
_ARITY = {"h": 1, "s": 1, "sdg": 1, "rz": 1, "cx": 2}


def step_gates(op: PauliOperator, dt: float) -> list[tuple]:
    """One Trotter step, gate by gate: per string in canonical order,
    exp(-i dt c P) as basis changes, a CNOT ladder onto the highest support
    qubit, RZ(2 dt c) there, and the uncompute; identity strings add no
    gate."""
    gates = []
    for p in op.terms:
        supp = [q for q in range(p.n) if (p.x | p.z) >> q & 1]
        if not supp:
            continue
        pre = []
        for q in supp:
            if p.x >> q & 1 and p.z >> q & 1:
                pre.append(("sdg", (q,), None))
            if p.x >> q & 1:
                pre.append(("h", (q,), None))
        ladder = [("cx", (a, b), None) for a, b in zip(supp, supp[1:])]
        gates += pre + ladder + [("rz", (supp[-1],), 2.0 * (dt * p.coeff.real))]
        gates += ladder[::-1] + [("s", g[1], None) if g[0] == "sdg" else g
                                 for g in reversed(pre)]
    return gates


def gate_counts(gates) -> dict[str, int]:
    return dict(Counter(name for name, _, _ in gates))


def schedule_depth(n_qubits: int, gates) -> int:
    """Schedule depth under all-to-all connectivity (unit-time gates)."""
    level = [0] * n_qubits
    depth = 0
    for _, qubits, _ in gates:
        t = 1 + max(level[q] for q in qubits)
        for q in qubits:
            level[q] = t
        depth = max(depth, t)
    return depth


def _gate_matrix(name: str, param: float | None) -> np.ndarray:
    if name == "h":
        return _H
    if name == "s":
        return _S
    if name == "sdg":
        return _SDG
    if name == "rz":
        return np.diag([np.exp(-0.5j * param), np.exp(0.5j * param)])
    raise ValueError(name)


def circuit_unitary(circuit: tuple[int, list], max_qubits: int = 8) -> np.ndarray:
    """Dense unitary of an ``(n_qubits, gates)`` circuit."""
    n, gates = circuit
    if n > max_qubits:
        raise ValueError(f"circuit_unitary limited to {max_qubits} qubits")
    dim = 1 << n
    u = np.eye(dim, dtype=complex)
    idx = np.arange(dim)
    for name, qubits, param in gates:
        if name == "cx":
            cbit, tbit = (_index_mask(1 << q, n) for q in qubits)
            perm = np.where(idx & cbit, idx ^ tbit, idx)
            u = u[perm, :]
        else:
            m = _gate_matrix(name, param)
            bit = _index_mask(1 << qubits[0], n)
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


def parse_qasm(text: str) -> tuple[int, list[tuple]]:
    """``(n_qubits, gates)`` of the OpenQASM subset the writer emits;
    ValueError on any other line, a wrong qubit count or angle for a gate,
    or a qubit outside the register."""
    n = None
    gates = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("OPENQASM", "include", "//")):
            continue
        m = re.match(r"^qreg\s+q\[(\d+)\];$", line)
        if m:
            n = int(m.group(1))
            continue
        if n is None:
            raise ValueError("gate before qreg declaration")
        m = _QASM_GATE.match(line)
        if not m:
            raise ValueError(f"cannot parse line {line!r}")
        name = m.group("name")
        qubits = tuple(int(q) for q in m.group("a", "b") if q is not None)
        param = float(m.group("param")) if m.group("param") else None
        if (len(qubits) != _ARITY[name] or (param is None) != (name != "rz")
                or (param is not None and not math.isfinite(param))):
            raise ValueError(f"malformed gate {line!r}")
        if not all(0 <= q < n for q in qubits):
            raise ValueError(f"qubit outside register of {n} in {line!r}")
        gates.append((name, qubits, param))
    if n is None:
        raise ValueError("missing qreg declaration")
    return n, gates
