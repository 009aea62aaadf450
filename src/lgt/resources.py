"""Exact and closed-form resource accounting: qubits, Pauli strings, CNOTs.

Per-link quantities follow the bookkeeping of the per-link tables: the
"hopping" factor is the string count per (link, nonzero gamma_mix element),
2 (n_real + n_imag + 2 n_mix) of the encoded U; the plaquette count removes
the purely imaginary four-fold products from n_pauli[U]^4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lgt.circuits import step_gate_counts
from lgt.gauge import (
    check_spin,
    is_perfectly_representable,
    link_qubits,
    qlm_link,
)
from lgt.lattice import LatticeSpec, RegisterLayout
from lgt.matter import clifford_rep, gamma_mix
from lgt.pauli import PauliOperator, classify

ENUMERATION_LIMIT = 2_000_000  # plaquette four-fold products handled exactly
CLOSED_FORM_D_S = 1 << 10  # log links with larger d_S are counted by closed forms


def cnot_per_trotter_step(op: PauliOperator) -> int:
    """The CNOTs of one Trotter step's circuit, 2 sum_P (support(P) - 1),
    as ``lgt.circuits.step_gate_counts`` counts them."""
    return step_gate_counts(op).get("cx", 0)


def plaquette_pauli_formula(n_real: int, n_imag: int, n_mixed: int) -> int:
    """Strings in (U_plaq + h.c.) from the classification of U; exact."""
    n = n_real + n_imag + n_mixed
    return (n**4
            - 4 * n_real * n_imag**3
            - 4 * n_imag * n_real**3
            - n_mixed**2 * (2 * n_real**2 + 2 * n_imag**2 + 8 * n_imag * n_real))


def plaquette_pauli_enumerated(spin: float, encoding: str) -> int:
    """Count the four-fold U products with nonzero real part explicitly."""
    u = qlm_link(spin, encoding).u
    coeffs = u.re + 1j * u.im
    if len(coeffs) ** 4 > ENUMERATION_LIMIT:
        raise ValueError("plaquette enumeration too large; use the formula")
    pair = np.multiply.outer(coeffs, coeffs).ravel()
    quad = np.multiply.outer(pair, pair.conj()).ravel()
    return int(np.count_nonzero(np.abs(quad.real) > 1e-12))


@dataclass(frozen=True)
class LinkCounts:
    """Per-link string counts for one (spin, encoding) pair."""

    spin: float
    encoding: str
    u_real: int
    u_imag: int
    u_mixed: int
    hopping_factor: int      # per nonzero gamma_mix element
    e_op: int
    e_sq: int
    plaquette: int
    exact: bool              # enumerated (True) or closed form (False)


def link_resource_counts(spin: float, encoding: str = "log") -> LinkCounts:
    """Per-link counts: closed forms for a log link with d_S a power of two
    whose four-fold U products are too many to enumerate (so every one past
    ``CLOSED_FORM_D_S``), enumeration otherwise; both agree where both run.
    ValueError past ``CLOSED_FORM_D_S`` for d_S not a power of two."""
    d_s = check_spin(spin)
    if encoding == "log" and (d_s > CLOSED_FORM_D_S or is_perfectly_representable(spin)):
        closed = closed_form_link_counts(spin)
        if (closed.u_real + closed.u_imag) ** 4 > ENUMERATION_LIMIT:
            return closed
    return enumerated_link_counts(spin, encoding)


def enumerated_link_counts(spin: float, encoding: str) -> LinkCounts:
    """Per-link counts from the encoded link; the plaquette count is
    enumerated (``exact``) where the four-fold U products are at most
    ``ENUMERATION_LIMIT``, else the formula of U's classification."""
    link = qlm_link(spin, encoding)
    c = classify(link.u)
    exact = link.u.n_terms ** 4 <= ENUMERATION_LIMIT
    plaq = (plaquette_pauli_enumerated(spin, encoding) if exact
            else plaquette_pauli_formula(*c))
    return LinkCounts(spin, encoding, c.n_real, c.n_imag, c.n_mixed,
                      2 * (c.n_real + c.n_imag + 2 * c.n_mixed),
                      link.e_op.n_terms, link.e_sq.n_terms, plaq, exact)


def closed_form_link_counts(spin: float) -> LinkCounts:
    """Logarithmic-encoding counts for perfectly representable spins.

    U splits cleanly into the Sx strings (real) and Sy strings (imaginary),
    n_pauli[Sx] = d_S (log2 d_S + 1) / 4, the diagonal Sz needs log2 d_S
    single-Z strings and Sz^2 needs C(log2 d_S, 2) + 1.
    """
    if not is_perfectly_representable(spin):
        raise ValueError("closed forms cover perfectly representable spins only")
    d_s = check_spin(spin)
    k = link_qubits(spin, "log")
    half = d_s * (k + 1) // 4
    return LinkCounts(spin, "log", half, half, 0,
                      2 * (2 * half),
                      k, k * (k - 1) // 2 + 1,
                      plaquette_pauli_formula(half, half, 0),
                      exact=False)


@dataclass(frozen=True)
class PauliCountPrediction:
    mass: int
    hopping: int
    electric: int
    plaquette: int

    @property
    def total(self) -> int:
        return self.mass + self.hopping + self.electric + self.plaquette

    @property
    def assembles(self) -> bool:
        """Few enough strings, at most ``ENUMERATION_LIMIT``, for a command
        to assemble the Hamiltonian."""
        return self.total <= ENUMERATION_LIMIT


def predict_pauli_counts(spec: LatticeSpec, spin: float, encoding: str,
                         r: float = 1.0) -> PauliCountPrediction:
    """Closed-form/per-link predictions for the full-lattice term counts.

    The electric total merges the per-link identity strings into one; the
    plaquette prediction does not account for axis collisions between
    plaquettes sharing a link (exact counts come from construction).
    """
    rep = clifford_rep(spec.d)
    counts = link_resource_counts(spin, encoding)
    g0_nnz = int(np.count_nonzero(rep.gammas[0]))
    mass = spec.n_sites * g0_nnz
    hopping = 0
    for k, n_k in enumerate(spec.links_per_direction):
        nnz = int(np.count_nonzero(np.abs(gamma_mix(rep, k + 1, r)) > 1e-12))
        hopping += n_k * nnz * counts.hopping_factor
    n_e = spec.n_links
    electric = n_e * (counts.e_sq - 1) + 1 if n_e else 0
    plaquette = spec.n_plaquettes * counts.plaquette
    return PauliCountPrediction(mass, hopping, electric, plaquette)


@dataclass(frozen=True)
class ResourceRow:
    term: str
    spin: float
    encoding: str
    n_pauli_exact: int | None
    n_pauli_formula: int
    n_cnot: int | None
    n_qubits_fermionic: int
    n_qubits_gauge: int


CSV_HEADER = ("term,S,encoding,n_pauli_exact,n_pauli_formula,n_cnot,"
              "n_qubits_fermionic,n_qubits_gauge")


def scaling_table(spec: LatticeSpec, spin: float, encoding: str,
                  params) -> list[ResourceRow]:
    """Per-term resource rows of one (spin, encoding) pair; the exact
    columns are filled by construction when feasible (OverflowError
    from ``assemble`` if the couplings overflow)."""
    from lgt.hamiltonian import assemble

    lay = RegisterLayout(spec, encoding, spin)
    pred = predict_pauli_counts(spec, spin, encoding, r=params.r)
    ferm, gauge = lay.n_fermionic, lay.n_gauge
    built = {}
    if pred.assembles and check_spin(spin) <= 1 << 6:
        h = assemble(lay, params)
        built = {"mass": h.mass, "hopping": h.hopp_wilson, "electric": h.elec,
                 "plaquette": h.plaq, "total": h.total}
    rows = []
    for term, formula in (("mass", pred.mass), ("hopping", pred.hopping),
                          ("electric", pred.electric),
                          ("plaquette", pred.plaquette), ("total", pred.total)):
        op = built.get(term)
        rows.append(ResourceRow(term, spin, encoding,
                                None if op is None else op.n_terms, formula,
                                None if op is None else cnot_per_trotter_step(op),
                                ferm, gauge))
    return rows


def rows_to_csv(rows: list[ResourceRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join([
            row.term, repr(row.spin), row.encoding,
            "" if row.n_pauli_exact is None else str(row.n_pauli_exact),
            str(row.n_pauli_formula),
            "" if row.n_cnot is None else str(row.n_cnot),
            str(row.n_qubits_fermionic), str(row.n_qubits_gauge),
        ]))
    return "\n".join(lines) + "\n"
