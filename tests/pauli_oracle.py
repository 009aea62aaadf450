"""Dense-matrix and commutator oracles for the Pauli algebra (small systems).

Basis indices follow the map stated in ``lgt.lattice.RegisterLayout``.
"""

import numpy as np

from lgt.pauli import (
    DROP_TOL,
    ORACLE_LIMIT,
    PauliOperator,
    PauliString,
    index_masks,
)


def commutator(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    return a * b - b * a


def is_hermitian(op: PauliOperator) -> bool:
    return bool((np.abs(op.im) < DROP_TOL).all())


def string_action(p: PauliString) -> tuple[int, np.ndarray]:
    """Matrix-free action of the axes of ``p`` on basis indices.

    Returns (flip, phases) with P|j> = phases[j] |j ^ flip| for the unit
    coefficient string; the coefficient is not included.
    """
    xm, zm, ypow = index_masks(p)
    idx = np.arange(1 << p.n, dtype=np.int64)
    par = np.bitwise_count(idx & zm) & 1
    phases = ypow * np.where(par, -1.0, 1.0)
    return xm, phases.astype(complex)


def to_matrix(op: PauliOperator) -> np.ndarray:
    """Dense matrix of the operator (small systems only)."""
    n = op.n_qubits
    if n > ORACLE_LIMIT:
        raise ValueError(f"to_matrix limited to {ORACLE_LIMIT} qubits, got {n}")
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim)
    for t in op.terms:
        flip, phases = string_action(t)
        m[idx ^ flip, idx] += t.coeff * phases
    return m


def _phase_exponent(x1: int, z1: int, x2: int, z2: int) -> int:
    """Exponent k (mod 4) such that P(x1,z1) P(x2,z2) = i^k P(x1^x2, z1^z2)."""
    k = (x1 & z1).bit_count() + (x2 & z2).bit_count()
    k -= ((x1 ^ x2) & (z1 ^ z2)).bit_count()
    k += 2 * (z1 & x2).bit_count()
    return k % 4


def product_reference(a: PauliOperator, b: PauliOperator) -> dict:
    """(x, z) -> coefficient of a * b, one string pair at a time in Python
    complex arithmetic, duplicates summed in order from 0.0, coefficients
    below DROP_TOL dropped."""
    data = {}
    for ta in a.terms:
        for tb in b.terms:
            k = _phase_exponent(ta.x, ta.z, tb.x, tb.z)
            key = (ta.x ^ tb.x, ta.z ^ tb.z)
            data[key] = data.get(key, 0.0) + ta.coeff * tb.coeff * (1, 1j, -1, -1j)[k]
    return {key: c for key, c in data.items() if not abs(c) < DROP_TOL}
