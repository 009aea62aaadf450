"""One first-order Trotter step as OpenQASM 2.0 text, written straight from
an operator's mask words in canonical order (the order ``trotter_plan``
applies them). No gate or ``PauliString`` objects are built: counts come
from the mask words too. The writer and the counts take the rows one
``PauliOperator.blocks`` block at a time, so the Python masks and angles
of one block are alive at once, not those of the whole operator.

exp(-i dt c P) is the standard circuit: S^dag H on each Y and H on each X
support qubit (ascending), a CNOT ladder onto the highest support qubit,
RZ(2 dt c) there, then the ladder reversed and the basis changes undone in
reverse (S for S^dag). An identity string writes nothing, as OpenQASM 2.0
has no global phase.
"""

from __future__ import annotations

from typing import TextIO

import numpy as np

from lgt.pauli import DROP_TOL, PauliOperator, _ints


def write_trotter_step(op: PauliOperator, dt: float, fh: TextIO) -> int:
    """Write one Trotter step of ``op`` to ``fh`` and return its schedule
    depth (all-to-all connectivity, unit-time gates). ValueError, before
    anything is written, if a coefficient is not real or an RZ angle is not
    finite.

    A string's gates are a palindrome around its RZ: support qubit i of k,
    with rho_i basis-change gates (X 1, Y 2, Z 0), has o_i = rho_i + k -
    max(i, 1) layers on each side of it. So the RZ lands in layer
    T = 1 + max_i(level_i + o_i), and level_i becomes T + o_i."""
    if any((np.abs(b.im) > DROP_TOL).any() for b in op.blocks()):
        raise ValueError("exponentiation needs a hermitian (real) coefficient")
    dt = float(dt)  # a NumPy scalar would print as np.float64(...)
    # the angles as written below, checked on every string but the identity
    with np.errstate(over="ignore", invalid="ignore"):
        if any((~np.isfinite(2.0 * (dt * b.re)) & b.masks.any(axis=1)).any()
               for b in op.blocks()):
            raise ValueError(f"an RZ angle of the step dt = {dt!r} is not finite")
    n = op.n_qubits
    h = [f"h q[{q}];\n" for q in range(n)]
    # the basis change of a qubit with rho = 1 (X) or 2 (Y), and its undoing
    into = (None, h, [f"sdg q[{q}];\n{h[q]}" for q in range(n)])
    out_of = (None, h, [f"{h[q]}s q[{q}];\n" for q in range(n)])
    fh.write(f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{n}];\n')
    level = [0] * n
    for x, z, angle in _strings(op, dt):
        supp, rho = [], []
        mask, y = x | z, x & z
        while mask:
            low = mask & -mask
            mask ^= low
            supp.append(low.bit_length() - 1)
            rho.append(2 if y & low else 1 if x & low else 0)
        if not supp:
            continue
        pre = [into[r][q] for q, r in zip(supp, rho) if r]
        post = [out_of[r][q] for q, r in zip(supp[::-1], rho[::-1]) if r]
        ladder = [f"cx q[{a}],q[{b}];\n" for a, b in zip(supp, supp[1:])]
        fh.write("".join(pre + ladder) + f"rz({angle!r}) q[{supp[-1]}];\n"
                 + "".join(ladder[::-1] + post))
        k = len(supp)
        off = [r + k - max(i, 1) for i, r in enumerate(rho)]
        t = 1 + max(level[q] + o for q, o in zip(supp, off))
        for q, o in zip(supp, off):
            level[q] = t + o
    return max(level, default=0)


def _strings(op: PauliOperator, dt: float):
    """(x, z, RZ angle) of each string as Python values, one block of rows
    converted at a time."""
    for b in op.blocks():
        yield from zip(_ints(b.x), _ints(b.z), [2.0 * (dt * c) for c in b.re.tolist()])


def step_gate_counts(op: PauliOperator) -> dict[str, int]:
    """Gates of each name in ``write_trotter_step``'s circuit, names with no
    gate left out, counted in one pass over the row blocks: 2 H per X or
    Y letter, S and S^dag per Y letter, 2 (support - 1) CNOTs and one RZ
    per non-identity string. A block's masks are counted as one copy of
    (2W, rows) words, so that each NumPy loop runs along contiguous rows
    rather than across the W words of one."""
    n_x = n_z = n_y = n_rz = 0
    for b in op.blocks():
        words = b.masks.T.copy()
        w = len(words) // 2
        x, z = words[:w], words[w:]
        n_rz += int(np.count_nonzero(np.bitwise_or.reduce(words)))
        n_x += int(np.bitwise_count(x).sum())
        n_z += int(np.bitwise_count(z).sum())
        n_y += int(np.bitwise_count(np.bitwise_and(x, z, out=x)).sum())
    n_letters = n_x + n_z - n_y  # the support, X, Y or Z
    counts = {"h": 2 * n_x, "s": n_y, "sdg": n_y, "cx": 2 * (n_letters - n_rz),
              "rz": n_rz}
    return {name: c for name, c in counts.items() if c}
