"""Scenario-driven command line: reproduce the reference experiments and
resource reports from a JSON config.

Commands::

    lgt run <config.json>        time evolution -> CSV curves + metadata JSON
    lgt resources <config.json>  resource tables -> CSV
    lgt qasm <config.json>       one Trotter-step circuit -> OpenQASM + counts

Exit codes: 0 ok, 2 config error (an unknown key too; for ``qasm`` also
a Hamiltonian predicted past ``ENUMERATION_LIMIT`` strings), 3 resource
limit (``run`` only: the statevector holds at most ``MAX_QUBITS``
qubits). Model
couplings are interpreted in lattice units (the Hamiltonian is built with
spacing 1; the nominal physical spacing `model.a` is validated and written
to the metadata as `a_nominal`).

A run starts from a basis state i0 with G_x = 0 at every site (anything
else is a config error). Every state of the run lives on the coset of i0
that the Hamiltonian's strings reach (``lgt.dynamics.Coset``), 2^r of the
2^n basis states, with r written to the metadata as ``n_simulated_qubits``.
The exact curve evolves in the G_x = 0 states of that coset, as selected
by ``gauss_filter`` from the run's ``ConfigKeys``; the Trotter curves
evolve the whole coset with tapered strings, so their weight may leave the
Gauss-law sector. For each Trotter curve the metadata's ``trotter_kernel``
records the plan's fused blocks, the passes over the state per step and
the bytes of the term tensors of its pass-form blocks, the number of its
matvec-form blocks and the bytes of their matrices and position tables,
and the transposing copies of a step (``TrotterPlan.kernel_summary``);
for the exact curve ``exact_kernel`` records the sector's ||H||_inf, the
Taylor substeps per sample and the actions of H
(``ExactEvolver.kernel_summary``). ``trotter_error`` is the run's one
record of the Trotter error: when the run has an exact curve, it holds for
each Trotter curve the largest |Trotter - exact| of the Loschmidt echo and
of the particle number over the sample times the two curves share, and the
number of those times (``_trotter_error``); it is empty otherwise.

``ConfigKeys`` decodes the coset once, at set-up; a readout decodes
nothing. It computes the state's probabilities once and holds the time,
the Loschmidt echo, the particle number (``standard_observables``, the
probabilities dotted with the keys' particle-number table) and the (keys,
probabilities) arrays of ``config_probabilities``. After the last curve
the 12 configurations of highest peak probability become the CSV columns
(``_label_columns``), and only the keys ranked up to the tier of the cut
get a label string.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from lgt.dynamics import (
    GAUSS_TOL,
    MAX_QUBITS,
    READOUT_TOL,
    SITE_CHARS,
    ConfigKeys,
    Coset,
    ExactEvolver,
    config_probabilities,
    decode_basis,
    gauss_filter,
    gauss_law,
    loschmidt,
    standard_observables,
    trotter_plan,
    trotter_states,
)
from lgt.gauge import (
    check_log_link,
    check_spin,
    flux_state_index,
    is_perfectly_representable,
)
from lgt.hamiltonian import HamiltonianTerms, ModelParams, assemble, default_lambda
from lgt.lattice import LatticeSpec, RegisterLayout, StaticLink
from lgt.matter import MAPPING_NAMES, fermion_mapping
from lgt.pauli import PauliOperator
from lgt.resources import (
    CLOSED_FORM_D_S,
    ENUMERATION_LIMIT,
    cnot_per_trotter_step,
    link_resource_counts,
    predict_pauli_counts,
    rows_to_csv,
    scaling_table,
)


class ConfigError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


class ResourceLimitError(Exception):
    pass


MAX_STEPS = 100_000  # longest curve (time steps) a run may ask for
# Largest sum |coeff| * t_max an exact curve may take. The exact evolver
# takes ||H|| t / TAYLOR_STEP Taylor substeps, and ||H|| on the Gauss sector
# is at most sum |coeff|: past this bound a curve takes hours, and an
# infinite sum has no step count at all; shipped configs reach 4,905.
MAX_EXACT_NORM_T = 1e7
SHARED_TIME_TOL = 1e-9  # a Trotter and an exact sample this close in t share a time

PRESETS: dict[str, dict] = {
    "vacuum_decay": {
        "lattice": {"d": 1, "extents": [3], "boundary": "periodic",
                    "static_links": []},
        "model": {"m": 0.5, "r": 1.0, "a": 0.5, "e": math.sqrt(2.0),
                  "lambda_gauss": 10.0},
        "mapping": "jw",
        "gauge_encoding": "log",
        "spin": 1.0,
        "theta": [0.0],
        "initial_state": "bare_vacuum",
        "evolution": {"method": "both", "dt": [0.1, 0.05, 0.01],
                      "t_max": 2.0, "sample_dt": 0.1},
        "output": {"prefix": "vacuum_decay"},
    },
    "string_breaking_1d": {
        "lattice": {"d": 1, "extents": [3], "boundary": "open",
                    "static_links": [
                        {"site": [-1], "dir": 0, "flux": 1.0},
                        {"site": [2], "dir": 0, "flux": 1.0}]},
        "model": {"m": 0.4, "r": 1.0, "a": 0.4, "e": 2.0,
                  "lambda_gauss": 20.0},
        "mapping": "jw",
        "gauge_encoding": "log",
        "spin": 1.0,
        "theta": [0.0],
        "initial_state": {"sites": ["o", "o", "o"], "link_fluxes": [1, 1]},
        "evolution": {"method": "both", "dt": [0.1, 0.05, 0.01],
                      "t_max": 2.0, "sample_dt": 0.1},
        "output": {"prefix": "string_breaking_1d"},
    },
    "double_plaquette_2d": {
        "lattice": {"d": 2, "extents": [3, 2], "boundary": "open",
                    "static_links": [
                        {"site": [-1, 0], "dir": 0, "flux": 1.0},
                        {"site": [2, 0], "dir": 0, "flux": 1.0}]},
        "model": {"m": 0.4, "r": 1.0, "a": 0.4, "e": 2.0,
                  "lambda_gauss": 20.0},
        "mapping": "jw",
        "gauge_encoding": "log",
        "spin": 0.5,
        "theta": [0.5, 0.5],
        # the flux string enters at the lower-left site and runs along the
        # bottom edge; link order is site-major so those are links 0 and 3
        "initial_state": {"sites": ["o"] * 6,
                          "link_fluxes": [1, 0, 0, 1, 0, 0, 0]},
        "evolution": {"method": "both", "dt": [0.05, 0.025, 0.012],
                      "t_max": 1.0, "sample_dt": 0.1},
        "output": {"prefix": "double_plaquette_2d"},
    },
    "resource_report": {
        "spins": [0.5, 1.0, 1.5, 2.0, 3.0, 3.5, 7.5, 15.5, 31.5, 63.5,
                  127.5, 255.5],
        "qubit_tables": {
            "2d": [[2, 3], [4, 4], [10, 10], [100, 100]],
            "3d": [[2, 2, 2], [4, 4, 4], [10, 10, 10], [100, 100, 100]],
            "spins": [0.5, 1.0, 1.5, 3.5, 7.5, 15.5, 31.5, 127.5, 255.5],
        },
        "gauge_encoding": "log",
        "output": {"prefix": "resource_report"},
    },
}

SITE_PATTERNS = {letter: bits for bits, letter in SITE_CHARS.items()}


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    raw: dict
    spec: LatticeSpec | None
    params: ModelParams | None
    mapping: str
    encoding: str
    spin: float
    initial: object
    evolution: dict
    output_prefix: str


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def load_config(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(str(path), str(exc)) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("$", "top level must be a JSON object")
    scenario = cfg.get("scenario", "custom")
    if isinstance(scenario, str) and scenario in PRESETS:
        cfg = _merge(PRESETS[scenario] | {"scenario": scenario}, cfg)
    return cfg


def _require(cfg: dict, key: str, types, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}", "missing required field")
    val = cfg[key]
    if not isinstance(val, types):
        raise ConfigError(f"{path}.{key}", f"expected {types}, got {type(val).__name__}")
    return val


def _optional(cfg: dict, key: str, types, path: str, default):
    return _require(cfg, key, types, path) if key in cfg else default


RUN_KEYS = ("scenario lattice model mapping gauge_encoding spin theta initial_state "
            "evolution output")
REPORT_KEYS = "scenario spins qubit_tables gauge_encoding output"


def _known(obj: dict, keys: str, path: str) -> dict:
    """``obj``, or a ConfigError at its first key not named in ``keys``: a
    misspelt key must not leave its default in place."""
    for key in obj:
        if key not in keys.split():
            raise ConfigError(f"{path}.{key}", f"unknown key, not one of: {keys}")
    return obj


def _finite(val, path: str) -> float:
    try:
        ok = type(val) in (int, float) and math.isfinite(val)
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        raise ConfigError(path, f"expected a finite number, got {val!r}")
    return float(val)


def _spin(val, path: str) -> float:
    spin = _finite(val, path)
    try:
        check_spin(spin)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    return spin


def _check_countable(spin: float, path: str) -> None:
    """ConfigError where a log link's counts would need closed forms that
    do not hold: past d_S = CLOSED_FORM_D_S with 2S+1 not a power of two."""
    d_s = check_spin(spin)
    if d_s > CLOSED_FORM_D_S and not is_perfectly_representable(spin):
        raise ConfigError(path, f"beyond d_S = {CLOSED_FORM_D_S} the link "
                          "counts come from closed forms, which need 2S+1 to be "
                          f"a power of two; got d_S = {d_s}")


def _spins(spins: list, path: str) -> list[float]:
    return [_spin(s, f"{path}[{i}]") for i, s in enumerate(spins)]


def _resource_report(cfg: dict) -> dict:
    """The config with its report spins and qubit tables checked."""
    if cfg.get("gauge_encoding", "log") != "log":
        raise ConfigError("$.gauge_encoding", "the report tables are for 'log' only")
    preset = PRESETS["resource_report"]
    spins = _spins(_optional(cfg, "spins", list, "$", preset["spins"]), "$.spins")
    for i, spin in enumerate(spins):
        _check_countable(spin, f"$.spins[{i}]")
    tables = _known(_optional(cfg, "qubit_tables", dict, "$", preset["qubit_tables"]),
                    "2d 3d spins", "$.qubit_tables")
    out = {"spins": _spins(_require(tables, "spins", list, "$.qubit_tables"),
                           "$.qubit_tables.spins")}
    for key, d in (("2d", 2), ("3d", 3)):
        lattices = _require(tables, key, list, "$.qubit_tables")
        for i, ext in enumerate(lattices):
            if (not isinstance(ext, list) or len(ext) != d
                    or not all(type(e) is int and e >= 1 for e in ext)):
                raise ConfigError(f"$.qubit_tables.{key}[{i}]",
                                  f"need {d} positive integer extents")
        out[key] = lattices
    return cfg | {"spins": spins, "qubit_tables": out}


def _n_steps(t_max: float, dt: float) -> int:
    """Steps of dt that fit in t_max, forgiving a float ratio like 1.0/0.01;
    capped at MAX_STEPS + 1, so that a ratio of inf still counts."""
    return math.floor(min(t_max / dt * (1 + 1e-9), MAX_STEPS + 1))


def validate_config(cfg: dict) -> ScenarioConfig:
    scenario = cfg.get("scenario", "custom")
    known = set(PRESETS) | {"custom"}
    if not isinstance(scenario, str) or scenario not in known:
        raise ConfigError("$.scenario", f"unknown scenario {scenario!r}")
    _known(cfg, REPORT_KEYS if scenario == "resource_report" else RUN_KEYS, "$")
    output = _known(_optional(cfg, "output", dict, "$", {}), "prefix", "$.output")
    prefix = output.get("prefix", scenario)
    # a bare file-name stem, so every output stays inside --out
    if (not isinstance(prefix, str) or prefix in ("", ".", "..") or "\0" in prefix
            or Path(prefix).name != prefix):
        raise ConfigError("$.output.prefix", f"not a file-name stem: {prefix!r}")
    if scenario == "resource_report":
        return ScenarioConfig(scenario, _resource_report(cfg), None, None, "jw",
                              "log", 0.5, None, {}, prefix)

    lat = _known(_require(cfg, "lattice", dict, "$"), "d extents boundary static_links",
                 "$.lattice")
    d = _require(lat, "d", int, "$.lattice")
    if d not in (1, 2, 3):  # the Dirac representations of lgt.matter
        raise ConfigError("$.lattice.d", f"must be 1, 2 or 3, got {d!r}")
    extents = _require(lat, "extents", list, "$.lattice")
    if len(extents) != d or not all(type(e) is int for e in extents):
        raise ConfigError("$.lattice.extents", f"need {d} integer extents")
    boundary = _require(lat, "boundary", str, "$.lattice")
    statics = []
    for i, sl in enumerate(_optional(lat, "static_links", list, "$.lattice", [])):
        spath = f"$.lattice.static_links[{i}]"
        if not isinstance(sl, dict):
            raise ConfigError(spath, "expected an object")
        _known(sl, "site dir flux", spath)
        site = _require(sl, "site", list, spath)
        if len(site) != d or not all(type(c) is int for c in site):
            raise ConfigError(f"{spath}.site", f"need {d} integer coordinates")
        direction = _require(sl, "dir", int, spath)
        if not 0 <= direction < d:
            raise ConfigError(f"{spath}.dir", f"must be in [0, {d})")
        flux = _finite(_require(sl, "flux", (int, float), spath), f"{spath}.flux")
        # the electric energy holds flux ** 2, an OverflowError past the float range
        if not math.isfinite(flux * flux):
            raise ConfigError(f"{spath}.flux", f"flux^2 must be finite, got {flux!r}")
        statics.append(StaticLink(tuple(site), direction, flux))
    try:
        spec = LatticeSpec(d, tuple(extents), boundary, tuple(statics))
    except ValueError as exc:
        raise ConfigError("$.lattice", str(exc)) from exc

    model = _known(_require(cfg, "model", dict, "$"), "m r a e lambda_gauss", "$.model")
    _require(model, "m", (int, float), "$.model")
    c = {key: _finite(model.get(key, default), f"$.model.{key}")
         for key, default in (("m", 0), ("r", 1.0), ("a", 1.0), ("e", 1.0))}
    for key in ("a", "e"):
        if c[key] <= 0:
            raise ConfigError(f"$.model.{key}", "must be positive")
    # the mass term's coupling, checked before assembly multiplies it out
    if not math.isfinite(c["m"] + c["r"] * d):
        raise ConfigError("$.model", f"the mass coupling m + r d is not finite "
                                     f"(m = {c['m']!r}, r = {c['r']!r}, d = {d})")
    # H holds e^2/2 and -1/(4 e^2); e * e overflows to inf where e ** 2 raises
    e_sq = c["e"] * c["e"]
    if not (0 < e_sq < math.inf and math.isfinite(1 / (4 * e_sq))):
        raise ConfigError("$.model.e", "e^2 and 1/(4 e^2) must be finite and "
                                       f"> 0, got e = {c['e']!r}")
    theta = cfg.get("theta", [])
    if not isinstance(theta, list):
        raise ConfigError("$.theta", "expected a list of angles")
    if len(theta) > d:
        raise ConfigError("$.theta", f"at most one angle per direction ({d})")
    params = ModelParams(c["m"], c["r"], c["e"],
                         tuple(_finite(x, "$.theta") for x in theta))
    if "lambda_gauss" in model:
        lam = _finite(model["lambda_gauss"], "$.model.lambda_gauss")
        if lam < 0:
            raise ConfigError("$.model.lambda_gauss", "must be >= 0")
    else:
        lam = default_lambda(params)
        if not math.isfinite(lam):
            raise ConfigError("$.model.lambda_gauss",
                              "default 10*max(m, e^2/2) overflows")
    params = replace(params, lam=lam)

    mapping = cfg.get("mapping", "jw")
    if mapping not in MAPPING_NAMES:
        raise ConfigError("$.mapping", f"one of {MAPPING_NAMES} required")
    encoding = cfg.get("gauge_encoding", "log")
    if encoding not in ("log", "linear"):
        raise ConfigError("$.gauge_encoding", "one of ('log', 'linear') required")
    spin = _spin(_require(cfg, "spin", (int, float), "$"), "$.spin")
    # (Sz + theta)^2 holds entries up to (S + |theta|)^2, and a log link's
    # decomposition sums two of them
    for t in params.theta:
        if not math.isfinite(2 * (spin + abs(t)) * (spin + abs(t))):
            raise ConfigError("$.theta", f"2 (S + |theta|)^2 must be finite, got "
                                         f"theta = {t!r} at S = {spin:g}")

    evo = _known(_optional(cfg, "evolution", dict, "$", {}), "method dt t_max sample_dt",
                 "$.evolution")
    dts = [_finite(x, "$.evolution.dt")
           for x in _optional(evo, "dt", list, "$.evolution", [0.05])]
    evolution = {
        "method": evo.get("method", "both"),
        "dt": dts,
        "t_max": _finite(evo.get("t_max", 1.0), "$.evolution.t_max"),
        "sample_dt": _finite(evo.get("sample_dt", max(dts, default=1.0)),
                             "$.evolution.sample_dt"),
    }
    for key, ok, rule in (
            ("dt", dts and min(dts) > 0, "a list of positive time steps"),
            ("t_max", evolution["t_max"] >= 0, ">= 0"),
            ("sample_dt", evolution["sample_dt"] > 0, "> 0"),
            ("method", evolution["method"] in ("exact", "trotter", "both"),
             "one of exact|trotter|both")):
        if not ok:
            raise ConfigError(f"$.evolution.{key}", f"must be {rule}")
    # each dt names its curve file, trotter_dt{dt:g}
    names = [f"{dt:g}" for dt in dts]
    if len(set(names)) < len(names):
        raise ConfigError("$.evolution.dt", f"two steps share a curve name: {names}")
    steps = []
    if evolution["method"] != "trotter":
        steps.append(("sample_dt", evolution["sample_dt"]))
    if evolution["method"] != "exact":
        steps += [("dt", dt) for dt in dts]
    for key, step in steps:
        if _n_steps(evolution["t_max"], step) > MAX_STEPS:
            raise ConfigError(f"$.evolution.{key}",
                              f"t_max / {step:g} is over {MAX_STEPS} steps")

    initial = cfg.get("initial_state", "bare_vacuum")
    if isinstance(initial, dict):
        _known(initial, "sites link_fluxes", "$.initial_state")
    return ScenarioConfig(scenario, cfg, spec, params, mapping, encoding,
                          spin, initial, evolution, prefix)


def build_layout(sc: ScenarioConfig) -> RegisterLayout:
    """The register layout; ConfigError at ``$.spin`` if a log-encoded link
    is too large to build, before any matrix is allocated."""
    if sc.spec is None:
        raise ConfigError("$.scenario", f"{sc.scenario!r} is a set of tables "
                                        "for `lgt resources`, not a lattice")
    if sc.encoding == "log":
        try:
            check_log_link(sc.spin)
        except ValueError as exc:
            raise ConfigError("$.spin", str(exc)) from exc
    return RegisterLayout(sc.spec, sc.encoding, sc.spin)


def build_hamiltonian(sc: ScenarioConfig, lay: RegisterLayout) -> HamiltonianTerms:
    """The assembled Hamiltonian; ConfigError at ``$.model`` if a coupling
    sum overflows to a coefficient that is not finite."""
    try:
        return assemble(lay, sc.params, sc.mapping)
    except OverflowError as exc:
        raise ConfigError("$.model", str(exc)) from exc


def _check_step(op: PauliOperator, dt: float, path: str) -> None:
    """ConfigError at ``path`` unless every rotation angle of a Trotter step
    of ``dt``, up to 2 dt max|coeff|, is finite."""
    angle = 2.0 * (dt * float(np.abs(op.re).max(initial=0.0)))
    if not math.isfinite(angle):
        raise ConfigError(path, f"the step gives a rotation angle {angle!r} "
                                "that is not finite")


def initial_index(label, lay: RegisterLayout, mapping, params) -> int:
    """Basis index of a named or explicit configuration; it must satisfy
    Gauss's law (G_x = 0) at every site."""
    n_sp = lay.n_spinor
    if label == "bare_vacuum":
        occupations = ([0] * (n_sp // 2) + [1] * (n_sp - n_sp // 2)) * lay.spec.n_sites
        fluxes = [0.0] * len(lay.links)
    elif isinstance(label, dict):
        sites = label.get("sites")
        if not isinstance(sites, list) or len(sites) != lay.spec.n_sites:
            raise ConfigError("$.initial_state.sites",
                              f"need {lay.spec.n_sites} site labels")
        occupations = []
        for i, s in enumerate(sites):
            if isinstance(s, str):
                if n_sp != 2 or s not in SITE_PATTERNS:
                    raise ConfigError("$.initial_state.sites",
                                      f"unknown site label {s!r}")
                occupations.extend(SITE_PATTERNS[s])
            elif (isinstance(s, list) and len(s) == n_sp
                  and all(type(b) is int and b in (0, 1) for b in s)):
                occupations.extend(s)
            else:
                raise ConfigError(f"$.initial_state.sites[{i}]",
                                  f"need a site label or {n_sp} occupations of 0 or 1")
        fluxes = _optional(label, "link_fluxes", list, "$.initial_state", [])
        fluxes = [_finite(x, f"$.initial_state.link_fluxes[{i}]")
                  for i, x in enumerate(fluxes)]
        if len(fluxes) != len(lay.links):
            raise ConfigError("$.initial_state.link_fluxes",
                              f"need {len(lay.links)} flux values")
    else:
        raise ConfigError("$.initial_state", f"unsupported label {label!r}")

    index = mapping.encode_occupations(occupations) << lay.n_gauge
    for li, link in enumerate(lay.links):
        m_val = fluxes[li] - params.theta_along(link.direction)
        try:
            local = flux_state_index(lay.spin, lay.encoding, m_val)
        except ValueError as exc:
            raise ConfigError(f"$.initial_state.link_fluxes[{li}]", str(exc)) from exc
        index |= local << lay.register_shift(li)
    g = gauss_law(lay, *decode_basis(lay, mapping, params.theta_along, [index]))[0]
    bad = np.flatnonzero(np.abs(g) > GAUSS_TOL)
    if bad.size:
        site = list(lay.spec.sites())[bad[0]]
        raise ConfigError("$.initial_state",
                          f"violates Gauss's law at site {list(site)} "
                          f"(G_x = {g[bad[0]] * params.e:g})")
    return index


# -- run command ------------------------------------------------------------


def _format(x: float) -> str:
    return f"{x:.12g}"


def _write_curve(path: Path, rows, columns: np.ndarray, labels: list[str]):
    """One CSV line per readout row (t, Loschmidt echo, particle number,
    (keys, probabilities)): a column per configuration key in ``columns``,
    headed by its label, and p[other], the rest of the row's probability."""
    lines = ["t,loschmidt,total_particle_number"
             + "".join(f",p[{label}]" for label in labels) + ",p[other]"]
    # key -> its column, -1 for none; every key past the last column reads
    # the final -1
    slot = np.full(columns.max(initial=-1) + 2, -1)
    slot[columns] = np.arange(len(columns))
    for t, g, n_part, (keys, probs) in rows:
        col = slot[np.minimum(keys, len(slot) - 1)]
        hit = col >= 0
        values = np.zeros(len(columns))
        values[col[hit]] = probs[hit]
        values = values.tolist()
        other = max(0.0, sum(probs.tolist()) - sum(values))
        cells = [_format(t), _format(g), _format(n_part)]
        cells += [_format(p) for p in values]
        cells.append(_format(other))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _label_columns(curves, label, n_columns: int = 12
                   ) -> tuple[np.ndarray, list[str]]:
    """(keys, labels) of the configurations of highest peak probability
    across all curves; ``label`` maps a key array to label strings.
    Peaks that differ from their neighbour in the ranking by at most
    ``READOUT_TOL`` form one tier, ordered by label, so round-off between
    exact solvers or fermion mappings cannot reorder a block of
    symmetry-degenerate configurations or move the cut through it. Labels
    are built only for the tiers up to the one the cut falls in."""
    readouts = [row[-1] for rows in curves for row in rows]
    peak = np.zeros(1 + max((keys.max(initial=-1) for keys, _ in readouts),
                            default=-1))
    for keys, probs in readouts:
        peak[keys] = np.maximum(peak[keys], probs)  # keys are distinct in a row
    ranked = np.flatnonzero(peak)
    ranked = ranked[np.argsort(-peak[ranked], kind="stable")]
    # a drop of more than READOUT_TOL from the previous peak starts a tier
    p = peak[ranked]
    tier = np.cumsum(np.diff(p, prepend=p[:1]) < -READOUT_TOL)
    if len(ranked) > n_columns:
        ranked = ranked[tier <= tier[n_columns - 1]]
    names = label(ranked)
    order = sorted(range(len(ranked)), key=lambda i: (tier[i], names[i]))[:n_columns]
    return ranked[order], [names[i] for i in order]


def _trotter_error(exact, rows) -> dict[str, float | int]:
    """Max |Trotter - exact| of the Loschmidt echo and of the particle
    number over the sample times a Trotter curve shares with the exact
    curve (within ``SHARED_TIME_TOL``), and the number of those times; both
    curves are readout rows (t, echo, particle number, configurations)."""
    times = np.array([row[0] for row in exact])
    echo = particles = 0.0
    shared = 0
    for t, g, n_part, _ in rows:
        k = int(np.argmin(np.abs(times - t)))
        if abs(times[k] - t) <= SHARED_TIME_TOL:
            _, g_exact, n_exact, _ = exact[k]
            echo = max(echo, abs(g - g_exact))
            particles = max(particles, abs(n_part - n_exact))
            shared += 1
    return {"loschmidt": echo, "total_particle_number": particles,
            "shared_times": shared}


def run_scenario(sc: ScenarioConfig, out_dir: str | Path) -> list[Path]:
    lay = build_layout(sc)
    if lay.n_total > MAX_QUBITS:
        raise ResourceLimitError(
            f"{lay.n_total} qubits exceeds the simulable limit ({MAX_QUBITS})")
    mapping = fermion_mapping(sc.mapping, lay.n_fermionic)
    params = sc.params
    # a bad initial state is a config error before anything is assembled
    # or any output directory is made
    i0 = initial_index(sc.initial, lay, mapping, params)
    h = build_hamiltonian(sc, lay)
    evo = sc.evolution
    t_max = evo["t_max"]
    if evo["method"] != "trotter":
        norm_t = sum(abs(t.coeff) for t in h.total.terms) * t_max
        if not norm_t <= MAX_EXACT_NORM_T:  # also inf and nan
            raise ConfigError("$.model", f"sum |coeff| * t_max = {norm_t:g} is over "
                              f"{MAX_EXACT_NORM_T:g}, too large for the exact curve")
    if evo["method"] != "exact":
        _check_step(h.total, max(evo["dt"]), "$.evolution.dt")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    coset = Coset.reachable(h.total, i0)
    s0 = coset.basis_state(i0)
    configs = ConfigKeys(lay, mapping, params, coset)
    n_configs, sector = gauss_filter(configs)

    def readout(t, st):
        probs = st.probabilities()
        n_part = standard_observables(st, configs, probs)["total_particle_number"]
        return t, loschmidt(s0, st), n_part, config_probabilities(st, configs, probs)

    curves: dict[str, list] = {}
    exact_kernel: dict[str, float | int] = {}
    if evo["method"] in ("exact", "both"):
        ev = ExactEvolver(h.total, sector)
        sample = evo["sample_dt"]
        rows = [readout(0.0, s0)]
        st = s0
        for k in range(1, _n_steps(t_max, sample) + 1):
            st = ev.evolve(st, sample)
            rows.append(readout(k * sample, st))
        curves["exact"] = rows
        exact_kernel = ev.kernel_summary(sample)
        del ev  # its gather table is not needed by the Trotter curves
    kernel: dict[str, dict[str, int]] = {}
    if evo["method"] in ("trotter", "both"):
        tapered = trotter_plan(h.total, 0.0, 0, coset)  # the strings, tapered once
        for dt in evo["dt"]:
            # a new plan per dt builds and keeps its own step
            plan = replace(tapered, dt=dt, n_steps=_n_steps(t_max, dt))
            name = f"trotter_dt{dt:g}"
            curves[name] = [readout(t, st) for t, st in trotter_states(s0, plan)]
            kernel[name] = plan.kernel_summary()

    exact = curves.get("exact")
    trotter_error = {name: _trotter_error(exact, rows) for name, rows in curves.items()
                     if exact is not None and name != "exact"}
    columns, labels = _label_columns(curves.values(), configs.labels)

    written = []
    for name, rows in curves.items():
        path = out / f"{sc.output_prefix}_{name}.csv"
        _write_curve(path, rows, columns, labels)
        written.append(path)

    meta = {
        "scenario": sc.scenario,
        "lattice": {"d": sc.spec.d, "extents": list(sc.spec.extents),
                    "boundary": sc.spec.boundary},
        "model": {"m": sc.params.m, "r": sc.params.r, "e": sc.params.e,
                  "a_nominal": float(sc.raw["model"].get("a", 1.0)),
                  "lambda_gauss": sc.params.lam,
                  "theta": list(sc.params.theta)},
        "units": "lattice (Hamiltonian built with spacing 1)",
        "mapping": sc.mapping,
        "gauge_encoding": sc.encoding,
        "spin": sc.spin,
        "evolution": evo,
        "n_qubits": lay.n_total,
        "n_simulated_qubits": coset.r,
        "n_pauli_strings": h.n_terms,
        "n_cnot_per_trotter_step": cnot_per_trotter_step(h.total),
        "n_configurations": n_configs,
        "n_gauge_invariant": len(sector),
        "trotter_kernel": kernel,
        "exact_kernel": exact_kernel,
        "trotter_error": trotter_error,
    }
    meta_path = out / f"{sc.output_prefix}_meta.json"
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    written.append(meta_path)
    return written


# -- resources command --------------------------------------------------------


def _per_link_csv(spins) -> str:
    lines = ["S,hopping_factor,e_op,e_sq,plaquette,exact"]
    for spin in spins:
        counts = link_resource_counts(spin, "log")
        lines.append(f"{spin:g},{counts.hopping_factor},{counts.e_op},"
                     f"{counts.e_sq},{counts.plaquette},{int(counts.exact)}")
    return "\n".join(lines) + "\n"


def _qubit_csv(lattices, spins) -> str:
    lines = ["lattice,S,nqubits_total,nqubits_fermionic,nqubits_gauge"]
    for extents in lattices:
        for spin in spins:
            lay = RegisterLayout(LatticeSpec(len(extents), tuple(extents), "open"),
                                 "log", spin)
            name = "x".join(str(e) for e in extents)
            lines.append(f"{name},{spin:g},{lay.n_total},{lay.n_fermionic},"
                         f"{lay.n_gauge}")
    return "\n".join(lines) + "\n"


def run_resources(sc: ScenarioConfig, out_dir: str | Path) -> list[Path]:
    """Write the tables; every check, the assembly's too, runs before the
    output directory is made."""
    if sc.scenario == "resource_report":
        tables = sc.raw["qubit_tables"]
        files = {
            f"{sc.output_prefix}_per_link.csv": _per_link_csv(sc.raw["spins"]),
            f"{sc.output_prefix}_qubits_2d.csv":
                _qubit_csv(tables["2d"], tables["spins"]),
            f"{sc.output_prefix}_qubits_3d.csv":
                _qubit_csv(tables["3d"], tables["spins"]),
        }
    else:
        if sc.encoding == "log":
            _check_countable(sc.spin, "$.spin")
        try:
            rows = scaling_table(sc.spec, sc.spin, sc.encoding, sc.params)
        except OverflowError as exc:  # from assemble, as in build_hamiltonian
            raise ConfigError("$.model", str(exc)) from exc
        files = {f"{sc.output_prefix}_resources.csv": rows_to_csv(rows)}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in files.items():
        path = out / name
        path.write_text(text)
        written.append(path)
    return written


# -- qasm command -------------------------------------------------------------


def run_qasm(sc: ScenarioConfig, out_dir: str | Path, dt: float | None) -> list[Path]:
    from lgt.circuits import step_gate_counts, write_trotter_step

    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise ConfigError("--dt", f"must be a finite time step > 0, got {dt!r}")
    lay = build_layout(sc)
    if sc.encoding == "log":
        _check_countable(sc.spin, "$.spin")
    pred = predict_pauli_counts(sc.spec, sc.spin, sc.encoding, r=sc.params.r)
    if not pred.assembles:
        raise ConfigError("$.lattice", f"{pred.total:,} Pauli strings predicted at "
                          f"S = {sc.spin:g}, over the {ENUMERATION_LIMIT:,} a "
                          "circuit is assembled for")
    h = build_hamiltonian(sc, lay)
    step = dt if dt is not None else sc.evolution["dt"][0]
    _check_step(h.total, step, "--dt" if dt is not None else "$.evolution.dt")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    qasm_path = out / f"{sc.output_prefix}_trotter_step.qasm"
    with qasm_path.open("w") as fh:
        depth = write_trotter_step(h.total, step, fh)
    counts = step_gate_counts(h.total)
    summary = {
        "n_qubits": h.total.n_qubits,
        "dt": step,
        "gate_counts": counts,
        "cnot_count": counts.get("cx", 0),
        "depth": depth,
        "n_pauli_strings": h.n_terms,
    }
    json_path = out / f"{sc.output_prefix}_gate_counts.json"
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return [qasm_path, json_path]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lgt",
        description="U(1) lattice gauge theory on qubits: runs and resources")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, hlp in (("run", "simulate a scenario"),
                      ("resources", "emit resource tables"),
                      ("qasm", "emit one Trotter-step circuit")):
        p = sub.add_parser(name, help=hlp)
        p.add_argument("config", help="path to the JSON config")
        p.add_argument("--out", default="out", help="output directory")
        if name == "qasm":
            p.add_argument("--dt", type=float, default=None,
                           help="step size override")
    args = parser.parse_args(argv)

    try:
        out = Path(args.out)
        if any(p.exists() and not p.is_dir() for p in (out, *out.parents)):
            raise ConfigError("--out", f"{args.out} is a file, not a directory")
        sc = validate_config(load_config(args.config))
        if args.command == "run":
            written = run_scenario(sc, args.out)
        elif args.command == "resources":
            written = run_resources(sc, args.out)
        else:
            written = run_qasm(sc, args.out, args.dt)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
