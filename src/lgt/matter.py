"""Clifford-algebra representations and fermion-to-qubit mappings.

All three mappings (Jordan-Wigner, parity, Bravyi-Kitaev) are expressed
through one invertible binary encoding matrix A with q = A n (mod 2), where n
is the occupation vector and q the qubit bits. Creation of mode j flips the
qubits in the column support of A, projects on n_j = 0 via the row support of
A^-1, and picks up the fermionic sign from the parity of modes below j::

    a_j^dag = X_F(j) . (I + Z_D(j))/2 . Z_S(j)

which for A = I reduces to the familiar Jordan-Wigner ladder operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from lgt.pauli import PauliOperator, PauliString, _index_mask

MAPPING_NAMES = ("jw", "parity", "bk")


@dataclass(frozen=True)
class CliffordRep:
    d: int
    n_spinor: int
    gammas: tuple[np.ndarray, ...]  # gamma^0 .. gamma^d


@lru_cache(maxsize=None)
def clifford_rep(d: int) -> CliffordRep:
    """Dirac-style representation of Cl(1, d) for d = 1, 2, 3."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    if d == 1:
        gammas = (sz, 1j * sx)
    elif d == 2:
        # gamma^2 = i sigma_y keeps two components and a diagonal gamma^0
        gammas = (sz, 1j * sx, 1j * sy)
    elif d == 3:
        eye2 = np.eye(2, dtype=complex)
        zero = np.zeros((2, 2), dtype=complex)
        g0 = np.block([[eye2, zero], [zero, -eye2]])
        spatial = tuple(
            np.block([[zero, s], [-s, zero]]) for s in (sx, sy, sz))
        gammas = (g0,) + spatial
    else:
        raise ValueError(f"unsupported dimension d={d}")
    for g in gammas:  # shared by every caller of the cache
        g.flags.writeable = False
    return CliffordRep(d, gammas[0].shape[0], gammas)


def gamma_mix(rep: CliffordRep, k: int, r: float) -> np.ndarray:
    """gamma^0 (i gamma^k + r), the spinor structure of the hopping term."""
    return rep.gammas[0] @ (1j * rep.gammas[k] + r * np.eye(rep.n_spinor))


# -- binary encoding matrices -------------------------------------------


def _jw_matrix(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def _parity_matrix(n: int) -> np.ndarray:
    return np.tril(np.ones((n, n), dtype=np.uint8))


def _bk_matrix(n: int) -> np.ndarray:
    size = 1
    mat = np.array([[1]], dtype=np.uint8)
    while size < n:
        top = np.hstack([mat, np.zeros((size, size), dtype=np.uint8)])
        bottom = np.hstack([np.zeros((size, size), dtype=np.uint8), mat])
        bottom[-1, :size] = 1  # the last qubit of each block stores a full prefix sum
        mat = np.vstack([top, bottom])
        size *= 2
    return mat[:n, :n]


def _inv_mod2(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    aug = np.concatenate([a.astype(np.uint8) % 2, np.eye(n, dtype=np.uint8)], axis=1)
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r, col])
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        for r in range(n):
            if r != col and aug[r, col]:
                aug[r] ^= aug[col]
    return aug[:, n:]


@dataclass(frozen=True)
class FermionMapping:
    """One of jw | parity | bk on a register of N fermionic modes."""

    name: str
    n_modes: int
    flip: tuple[int, ...]      # qubit mask flipped by mode j
    occ: tuple[int, ...]       # qubit mask whose parity is n_j
    prefix: tuple[int, ...]    # qubit mask whose parity is sum_{k<j} n_k

    # The ladder and number operators are cached per mapping (mappings are
    # themselves cached by ``fermion_mapping``); operators are immutable.
    @lru_cache(maxsize=None)
    def raising(self, j: int) -> PauliOperator:
        """The encoded creation operator a_j^dag (two Pauli strings)."""
        self._check_mode(j)
        n = self.n_modes
        xf = PauliOperator.from_terms(n, [PauliString(n, self.flip[j], 0, 0.5)])
        # (I + Z_D) Z_S = Z_S + Z_(D xor S): Z strings multiply without phase
        zs = PauliOperator.from_terms(n, [
            PauliString(n, 0, self.prefix[j], 1.0),
            PauliString(n, 0, self.occ[j] ^ self.prefix[j], 1.0)])
        return xf * zs

    def lowering(self, j: int) -> PauliOperator:
        return self.raising(j).dagger()

    @lru_cache(maxsize=None)
    def number(self, j: int) -> PauliOperator:
        """a_j^dag a_j = (I - Z_occ)/2."""
        self._check_mode(j)
        n = self.n_modes
        return PauliOperator.from_terms(n, [
            PauliString(n, 0, 0, 0.5),
            PauliString(n, 0, self.occ[j], -0.5),
        ])

    def bilinear(self, i: int, j: int, c: complex = 1.0) -> PauliOperator:
        """c . a_i^dag a_j as a Pauli operator."""
        if i == j:
            return c * self.number(i)
        return c * (self.raising(i) * self.lowering(j))

    def encode_occupations(self, occupations) -> int:
        """Basis index of an occupation pattern on the mode register alone
        (index map: ``lgt.lattice.RegisterLayout``)."""
        bits = 0
        for j, occ in enumerate(occupations):
            if occ:
                bits ^= self.flip[j]
        return _index_mask(bits, self.n_modes)

    def _check_mode(self, j: int) -> None:
        if not 0 <= j < self.n_modes:
            raise ValueError(f"mode {j} out of range for N={self.n_modes}")


@lru_cache(maxsize=None)
def fermion_mapping(name: str, n_modes: int) -> FermionMapping:
    if n_modes < 1:
        raise ValueError("need at least one mode")
    builders = {"jw": _jw_matrix, "parity": _parity_matrix, "bk": _bk_matrix}
    try:
        a = builders[name](n_modes)
    except KeyError:
        raise ValueError(f"unknown mapping {name!r}; use one of {MAPPING_NAMES}") from None
    a_inv = _inv_mod2(a)
    flip = tuple(int(sum(1 << i for i in range(n_modes) if a[i, j])) for j in range(n_modes))
    occ = tuple(int(sum(1 << i for i in range(n_modes) if a_inv[j, i])) for j in range(n_modes))
    prefix = []
    for j in range(n_modes):
        row = np.zeros(n_modes, dtype=np.uint8)
        for k in range(j):
            row ^= a_inv[k]
        prefix.append(int(sum(1 << i for i in range(n_modes) if row[i])))
    return FermionMapping(name, n_modes, flip, occ, tuple(prefix))
