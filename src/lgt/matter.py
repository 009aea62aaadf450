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

from lgt.pauli import (
    _I_POWERS_IM,
    _I_POWERS_RE,
    PauliOperator,
    PauliSum,
    _cmul,
    _index_mask,
    _masks,
    _n_words,
    _popcount,
    _quiet,
)

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

    @lru_cache(maxsize=None)
    def _words(self, n_words: int) -> np.ndarray:
        """(N, 3, n_words) words: each mode's F, then the Z masks S and
        S ^ D of a_j^dag = X_F (I + Z_D)/2 Z_S (D = occ, S = prefix)."""
        zs = [p ^ o for p, o in zip(self.prefix, self.occ)]
        words = np.hstack([_masks(self.flip, self.prefix, n_words), _masks(zs, zs, n_words)])
        words.flags.writeable = False
        return words.reshape(self.n_modes, 4, n_words)[:, :3]

    def bilinears(self, i, j, c, n: int) -> tuple[np.ndarray, np.ndarray]:
        """c_k a_(i_k)^dag a_(j_k) for each k, on an n-qubit register that
        starts with the modes: masks (K, 4, 2W), coefficients (K, 4, 2);
        ValueError for a mode out of range. a_j^dag = 1/2 sum_(Z in S,
        S ^ D) i^(-|F & Z|) P(F, Z), so a_i^dag a_j (i != j) is 1/4 i^m
        P(F_i ^ F_j, Z_a ^ Z_b), m the phases of the ladder strings and of
        their product (``PauliSum.add_products``); (I - Z_D)/2 for i = j
        fills two rows, the others are 0. c scales as ``PauliOperator.scale``."""
        i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
        if ((i < 0) | (i >= self.n_modes) | (j < 0) | (j >= self.n_modes)).any():
            raise ValueError(f"mode out of range for N={self.n_modes}")
        w = _n_words(n)
        (fi, *za), (fj, *zb) = (np.moveaxis(self._words(w)[m], 1, 0) for m in (i, j))
        za, zb = np.stack(za, axis=1), np.stack(zb, axis=1)
        x, z = (fi ^ fj)[:, None, None], za[:, :, None] ^ zb[:, None]
        m = (2 * _popcount(za & fj[:, None])[:, :, None] + 2 * _popcount(zb & fj[:, None])[:, None]
             - _popcount(x & z)) & 3
        masks = np.concatenate([np.broadcast_to(x, z.shape), z], axis=-1).reshape(-1, 4, 2 * w)
        re, im = 0.25 * _I_POWERS_RE[m].reshape(-1, 4), 0.25 * _I_POWERS_IM[m].reshape(-1, 4)
        same = i == j
        masks[same] = 0
        masks[same, 1, w:] = (za[:, 0] ^ za[:, 1])[same]
        re[same], im[same] = (0.5, -0.5, 0.0, 0.0), 0.0
        c = np.asarray(c, dtype=complex)[:, None]
        with _quiet():
            re, im = _cmul(re, im, c.real, c.imag)
        re[same, 2:] = im[same, 2:] = 0.0
        return masks, np.stack([re, im], axis=-1)

    def bilinear(self, i: int, j: int, c: complex = 1.0) -> PauliOperator:
        """c . a_i^dag a_j as a Pauli operator: the one-pair case of
        ``bilinears``."""
        masks, coeffs = self.bilinears([i], [j], [c], self.n_modes)
        acc = PauliSum(self.n_modes)
        acc.add_rows(masks[0], coeffs[0])
        return acc.to_operator()

    def encode_occupations(self, occupations) -> int:
        """Basis index of an occupation pattern on the mode register alone
        (index map: ``lgt.lattice.RegisterLayout``)."""
        bits = 0
        for j, occ in enumerate(occupations):
            if occ:
                bits ^= self.flip[j]
        return _index_mask(bits, self.n_modes)


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
