"""Spin-S matrices, the quantum-link truncation, and spin-to-qubit encodings.

The gauge field on a link is truncated to a spin S system with d_S = 2S + 1
flux states |m>, m = S .. -S. Two encodings are provided:

* logarithmic: |m> is the register value S - m on ceil(log2 d_S) qubits;
  operators are embedded with an identity block on the unused states and
  Pauli-decomposed.
* linear: one-hot on d_S qubits, |m> marks qubit m + S of the register;
  S+ is a sum of tensor products sigma+ (x) sigma- on neighbouring qubits.

``flux_state_index`` and ``register_flux`` convert between a flux and its
register value; ``lgt.lattice.RegisterLayout`` states where the register
sits in the basis index.

Encoded link operators are kept in units of the charge e: E = Sz + theta,
U = S+ / sqrt(S(S+1)), with the spin matrices built by the highest-weight
ladder construction (S+|m> = sqrt(S(S+1) - m(m+1)) |m+1>).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from lgt.pauli import (
    ORACLE_LIMIT,
    PauliOperator,
    PauliString,
    PauliSum,
    _index_mask,
    decompose_matrix,
)


def check_spin(spin: float) -> int:
    """Validate a positive half-integer spin; returns d_S."""
    if not math.isfinite(2 * spin):  # also a finite spin past half the float range
        raise ValueError(f"spin must be a finite half-integer, got {spin}")
    two_s = round(2 * spin)
    if abs(2 * spin - two_s) > 1e-12 or two_s < 1:
        raise ValueError(f"spin must be a positive half-integer, got {spin}")
    return two_s + 1


def is_perfectly_representable(spin: float) -> bool:
    d_s = check_spin(spin)
    return d_s & (d_s - 1) == 0


@dataclass(frozen=True)
class SpinMatrices:
    spin: float
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    splus: np.ndarray


def spin_matrices(spin: float) -> SpinMatrices:
    """Spin operators in the |m = S>, ..., |m = -S> basis."""
    d_s = check_spin(spin)
    m = spin - np.arange(d_s)          # m value of basis index l
    splus = np.zeros((d_s, d_s), dtype=complex)
    for l in range(1, d_s):
        # <l-1| S+ |l> raises m by one unit
        amp = math.sqrt(spin * (spin + 1) - m[l] * (m[l] + 1))
        splus[l - 1, l] = amp
    sx = (splus + splus.conj().T) / 2
    sy = (splus - splus.conj().T) / 2j
    sz = np.diag(m).astype(complex)
    return SpinMatrices(spin, sx, sy, sz, splus)


def link_qubits(spin: float, encoding: str) -> int:
    """Qubits of one link register: ceil(log2 d_S) for "log", d_S for "linear"."""
    d_s = check_spin(spin)
    if encoding == "log":
        return (d_s - 1).bit_length()
    if encoding == "linear":
        return d_s
    raise ValueError(f"unsupported encoding {encoding!r}")


# -- logarithmic encoding ----------------------------------------------


def embed_matrix(spin: float, m: np.ndarray) -> np.ndarray:
    """Pad a d_S x d_S matrix to 2^n with an identity block on unused states."""
    d_s = check_spin(spin)
    if m.shape != (d_s, d_s):
        raise ValueError(f"expected a {d_s}x{d_s} matrix")
    out = np.eye(1 << link_qubits(spin, "log"), dtype=complex)
    out[:d_s, :d_s] = m
    return out


def check_log_link(spin: float) -> None:
    """ValueError unless a log-encoded link register fits the dense
    matrices that ``encode_log`` decomposes: at most ``ORACLE_LIMIT``
    qubits, d_S <= 2^``ORACLE_LIMIT``."""
    k = link_qubits(spin, "log")
    if k > ORACLE_LIMIT:
        raise ValueError(f"a log-encoded link of spin {spin:g} needs {k} qubits; "
                         f"its dense matrices are built up to {ORACLE_LIMIT}")


def encode_log(spin: float, m: np.ndarray) -> PauliOperator:
    """Identity-padded embedding of a spin-space matrix, Pauli decomposed;
    ValueError past ``check_log_link`` before the padding is allocated."""
    check_log_link(spin)
    return decompose_matrix(embed_matrix(spin, m))


# -- linear (one-hot) encoding ------------------------------------------


def _sigma_pm(n: int, qubit: int, kind: str) -> PauliOperator:
    """sigma+ = |1><0| or sigma- = |0><1| on one qubit of an n-qubit register."""
    sign = -1j if kind == "+" else 1j
    return PauliOperator.from_terms(n, [
        PauliString(n, 1 << qubit, 0, 0.5),
        PauliString(n, 1 << qubit, 1 << qubit, sign * 0.5),
    ])


def _one_hot_qubit(spin: float, m: float) -> int:
    # |m = -S> occupies the leftmost qubit (index 0)
    return int(round(m + spin))


def encode_lin(spin: float, which: str) -> PauliOperator:
    """One-hot encoded Sz (``which`` "z") or S+ ("plus"): one accumulator of
    the ladder steps amp * sigma+ (x) sigma-, each a tensor product."""
    d_s = check_spin(spin)
    n = d_s
    if which == "z":
        terms = []
        for l in range(d_s):
            m = spin - l
            if m == 0:
                continue
            q = _one_hot_qubit(spin, m)
            # m * occupation number (I - Z)/2 of the marker qubit
            terms.append(PauliString(n, 0, 0, 0.5 * m))
            terms.append(PauliString(n, 0, 1 << q, -0.5 * m))
        return PauliOperator.from_terms(n, terms)
    if which == "plus":
        acc = PauliSum(n)
        for step in range(d_s - 1):
            m = -spin + step
            amp = math.sqrt(spin * (spin + 1) - m * (m + 1))
            q = _one_hot_qubit(spin, m)
            acc.add_tensor_product([_sigma_pm(n, q + 1, "+"), _sigma_pm(n, q, "-")],
                                   scale=amp)
        return acc.to_operator()
    raise ValueError(f"unknown spin operator {which!r}")


# -- flux <-> register value ----------------------------------------------


def flux_state_index(spin: float, encoding: str, m: float) -> int:
    """Register value of the flux state |m> on one link."""
    d_s = check_spin(spin)
    l = round(spin - m)
    if not 0 <= l < d_s or abs((spin - m) - l) > 1e-9:
        raise ValueError(f"m = {m} outside the spin-{spin} flux window")
    if encoding == "log":
        return l
    if encoding == "linear":
        return _index_mask(1 << _one_hot_qubit(spin, m), d_s)
    raise ValueError(f"unsupported encoding {encoding!r}")


def register_flux(spin: float, encoding: str, reg: np.ndarray) -> np.ndarray:
    """Flux m of each link-register value, NaN where the value holds no
    flux state of the window: the inverse of ``flux_state_index``."""
    d_s = check_spin(spin)
    if encoding == "log":
        return np.where(reg < d_s, spin - reg, np.nan)
    if encoding == "linear":
        # the one-hot value 2^l holds m = S - l, and frexp(2^l) gives l + 1
        return np.where(np.bitwise_count(reg) == 1,
                        spin + 1 - np.frexp(reg)[1], np.nan)
    raise ValueError(f"unsupported encoding {encoding!r}")


# -- encoded links -------------------------------------------------------


@dataclass(frozen=True)
class EncodedLink:
    """Qubit-encoded truncated gauge operators for one link (units of e)."""

    spin: float
    encoding: str
    theta: float
    n_qubits: int
    e_op: PauliOperator      # Sz + theta : physical flux in units of e
    u: PauliOperator         # S+ / sqrt(S(S+1))
    u_dag: PauliOperator
    e_sq: PauliOperator      # (Sz + theta)^2


@lru_cache(maxsize=None)
def qlm_link(spin: float, encoding: str, theta: float = 0.0) -> EncodedLink:
    d_s = check_spin(spin)
    n = link_qubits(spin, encoding)
    norm = 1.0 / math.sqrt(spin * (spin + 1))
    if encoding == "log":
        check_log_link(spin)  # before the d_S x d_S spin matrices
        mats = spin_matrices(spin)
        sz_enc = encode_log(spin, mats.sz)
        # U is the sum of the separately padded Sx and Sy embeddings, so the
        # unused-state block carries (1 + i) and yields the mixed (a + ia) terms
        u = norm * (encode_log(spin, mats.sx) + 1j * encode_log(spin, mats.sy))
        # squared-and-shifted matrix encoded directly: the identity padding
        # stays 1 instead of picking up spurious (1 + theta)^2 contributions
        shifted = (mats.sz + theta * np.eye(d_s)) @ (mats.sz + theta * np.eye(d_s))
        e_sq = encode_log(spin, shifted)
        e_op = sz_enc + PauliOperator.identity(n, theta) if theta else sz_enc
    else:
        sz_enc = encode_lin(spin, "z")
        u = norm * encode_lin(spin, "plus")
        e_op = sz_enc + PauliOperator.identity(n, theta) if theta else sz_enc
        # algebra square reproduces the exact linear-encoding term counts
        e_sq = e_op * e_op
    return EncodedLink(spin, encoding, theta, n, e_op, u, u.dagger(), e_sq)
