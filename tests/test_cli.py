"""Command line: initial-state validation, shipped configs, import cost."""

import copy
import csv
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgt
import lgt.dynamics
from circuit_oracle import gate_counts, parse_qasm, schedule_depth
from lgt.cli import (
    MAX_EXACT_NORM_T,
    PRESETS,
    ConfigError,
    ScenarioConfig,
    _label_columns,
    build_hamiltonian,
    build_layout,
    initial_index,
    load_config,
    main,
    validate_config,
)
from lgt.dynamics import Coset, StateVector, trotter_plan
from lgt.hamiltonian import default_lambda
from lgt.matter import fermion_mapping
from pauli_oracle import fused_step_reference

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# open S=1 chain of 17 sites: 66 qubits, so masks span two words; 2,475 strings
CHAIN_17 = {"scenario": "custom",
            "lattice": {"d": 1, "extents": [17], "boundary": "open"},
            "model": {"m": 0.5, "e": 1.0}, "spin": 1.0}


def write_config(tmp_path, cfg: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def scenario_state(path: Path):
    sc = validate_config(load_config(path))
    lay = build_layout(sc)
    mapping = fermion_mapping(sc.mapping, lay.n_fermionic)
    return Coset.full(lay.n_total).basis_state(
        initial_index(sc.initial, lay, mapping, sc.params))


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")
                                        if p.name != "resource_report.json"))
def test_shipped_configs_obey_gauss_law(name):
    assert scenario_state(CONFIGS / name).norm == 1.0


@pytest.mark.parametrize("name", [n for n in PRESETS if n != "resource_report"])
def test_presets_obey_gauss_law(tmp_path, name):
    assert scenario_state(write_config(tmp_path, {"scenario": name})).norm == 1.0


def test_initial_state_off_gauss_sector_rejected(tmp_path):
    # a lone particle on site 1 with no flux to balance its charge
    path = write_config(tmp_path, {
        "scenario": "vacuum_decay",
        "initial_state": {"sites": ["o", "p", "o"], "link_fluxes": [0, 0, 0]}})
    with pytest.raises(ConfigError, match=r"site \[1\]") as exc:
        scenario_state(path)
    assert exc.value.path == "$.initial_state"


def test_off_sector_run_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {
        "scenario": "string_breaking_1d",
        "initial_state": {"sites": ["o", "o", "o"], "link_fluxes": [0, 0]}})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "at $.initial_state: violates Gauss's law at site [0]" \
        in capsys.readouterr().err


@pytest.mark.parametrize("initial_state", [
    "bare_vacum",
    {"sites": ["o", "o"], "link_fluxes": [0, 0, 0]},
    {"sites": ["o", "p", "o"], "link_fluxes": [0, 0, 0]}],
    ids=["label_typo", "two_of_three_sites", "off_sector"])
def test_bad_initial_state_exits_2_before_assembly(tmp_path, capsys, monkeypatch,
                                                   initial_state):
    def no_assembly(*args):
        raise AssertionError("Hamiltonian assembled")

    monkeypatch.setattr("lgt.cli.assemble", no_assembly)
    assert run_cli(tmp_path, {"scenario": "vacuum_decay",
                              "initial_state": initial_state}) == 2
    assert "at $.initial_state" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def modules_after(code: str, prefix: str = "scipy") -> str:
    """The modules named ``prefix``... loaded once ``code`` has run in a
    fresh interpreter that sees only the source tree."""
    code += f"; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    env = dict(os.environ, PYTHONPATH=str(Path(lgt.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_scipy():
    assert modules_after("import sys, lgt.cli") == "[]"


@pytest.mark.parametrize("module, absent", [("lgt.dynamics", "lgt.hamiltonian"),
                                            ("lgt.circuits", "lgt.dynamics")])
def test_layer_imports(module, absent):
    # the simulator takes Pauli operators, and circuits take no plan
    assert modules_after(f"import sys, {module}", absent) == "[]"


def test_cli_run_loads_no_scipy(tmp_path):
    # exact and Trotter curves, readout and output: the whole run
    config = write_config(tmp_path, {
        "scenario": "string_breaking_1d",
        "evolution": {"method": "both", "dt": [0.1], "t_max": 0.2}})
    argv = ["run", str(config), "--out", str(tmp_path / "out")]
    code = f"import sys, lgt.cli; assert lgt.cli.main({argv!r}) == 0"
    assert modules_after(code) == "[]"
    assert (tmp_path / "out" / "string_breaking_1d_exact.csv").is_file()


def run_cli(tmp_path, cfg: dict) -> int:
    return main(["run", str(write_config(tmp_path, cfg)), "--out",
                 str(tmp_path / "out")])


@pytest.mark.parametrize("evolution, field", [
    ({"sample_dt": 0}, "sample_dt"),
    ({"sample_dt": -0.1}, "sample_dt"),
    ({"t_max": -1.0}, "t_max"),
    ({"dt": [float("nan")]}, "dt"),
    ({"dt": [0.1, float("inf")]}, "dt"),
    ({"t_max": float("inf")}, "t_max"),
    ({"sample_dt": float("nan")}, "sample_dt"),
    ({"ordering": "bogus"}, "ordering"),
    # both curves would be written to trotter_dt0.1.csv
    ({"dt": [0.1, 0.1]}, "dt"),
    ({"dt": [0.1, 0.10000000001]}, "dt"),
    # about 2e299 steps: rejected before the first one
    ({"dt": [1e-300]}, "dt"),
    ({"sample_dt": 1e-300}, "sample_dt"),
    # a removed key: plans apply the strings in canonical order, and a
    # config that names any order must not run with that one silently
    ({"ordering": "canonical"}, "ordering"),
])
def test_bad_evolution_is_config_error(tmp_path, capsys, monkeypatch, evolution, field):
    def no_assembly(*args):
        raise AssertionError("Hamiltonian assembled")

    monkeypatch.setattr("lgt.cli.assemble", no_assembly)
    assert run_cli(tmp_path, {"scenario": "string_breaking_1d",
                              "evolution": evolution}) == 2
    assert f"at $.evolution.{field}:" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, path", [
    ("run", {"scenario": "vacuum_decay", "spinn": 1.0}, "$.spinn"),
    ("run", {"scenario": "vacuum_decay", "lattice": {"boundry": "open"}},
     "$.lattice.boundry"),
    ("run", {"scenario": "string_breaking_1d", "lattice": {"static_links": [
        {"site": [-1], "dir": 0, "flux": 1.0}, {"site": [2], "direction": 0}]}},
     "$.lattice.static_links[1].direction"),
    # the model typo is reported first; the evolution one is the next case
    ("run", {"scenario": "vacuum_decay", "model": {"lamda_gauss": 0.0},
             "evolution": {"dt": [0.1], "t_max": 0.2, "sampl_dt": 0.05}},
     "$.model.lamda_gauss"),
    ("run", {"scenario": "vacuum_decay",
             "evolution": {"dt": [0.1], "t_max": 0.2, "sampl_dt": 0.05}},
     "$.evolution.sampl_dt"),
    ("run", {"scenario": "vacuum_decay", "output": {"prefx": "vd"}}, "$.output.prefx"),
    ("run", {"scenario": "string_breaking_1d", "initial_state": {"link_flux": [1, 1]}},
     "$.initial_state.link_flux"),
    ("resources", {"scenario": "resource_report", "spin": 0.5}, "$.spin"),
    ("resources", {"scenario": "resource_report", "qubit_tables": {"2D": [[2, 2]]}},
     "$.qubit_tables.2D"),
    ("resources", {"scenario": "resource_report", "output": {"prefx": "rr"}},
     "$.output.prefx"),
])
def test_unknown_key_is_config_error(tmp_path, capsys, monkeypatch, command, cfg, path):
    def no_assembly(*args):
        raise AssertionError("Hamiltonian assembled")

    monkeypatch.setattr("lgt.cli.assemble", no_assembly)
    assert main([command, str(write_config(tmp_path, cfg)), "--out",
                 str(tmp_path / "out")]) == 2
    assert f"at {path}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override, path", [
    ({"model": {"m": float("nan")}}, "$.model.m"),
    ({"model": {"r": float("inf")}}, "$.model.r"),
    ({"model": {"a": float("nan")}}, "$.model.a"),
    ({"model": {"e": float("-inf")}}, "$.model.e"),
    ({"model": {"lambda_gauss": float("nan")}}, "$.model.lambda_gauss"),
    ({"model": {"e": 0}}, "$.model.e"),
    ({"model": {"a": 0}}, "$.model.a"),
    ({"model": {"a": -0.5}}, "$.model.a"),
    ({"theta": [float("nan")]}, "$.theta"),
    ({"lattice": {"static_links": [{"site": [-1], "dir": 0, "flux": 1.0},
                                   {"site": [2], "dir": 0,
                                    "flux": float("nan")}]}},
     "$.lattice.static_links[1].flux"),
    ({"model": {"lambda_gauss": -5}}, "$.model.lambda_gauss"),
    ({"model": {"lambda_gauss": -1.0}}, "$.model.lambda_gauss"),
    ({"theta": [0.0, 0.7]}, "$.theta"),
    ({"lattice": {"static_links": [{"site": [-1], "dir": 0, "flux": 1.0},
                                   {"site": [-1], "dir": 0, "flux": 0.0}]}},
     "$.lattice"),
    ({"lattice": {"static_links": [{"site": [7], "dir": 0, "flux": 1.0}]}},
     "$.lattice"),
])
def test_bad_model_is_config_error(tmp_path, override, path):
    config = write_config(tmp_path, {"scenario": "string_breaking_1d"} | override)
    with pytest.raises(ConfigError) as exc:
        validate_config(load_config(config))
    assert exc.value.path == path


@pytest.mark.parametrize("lam", [None, 0, 3])
def test_lambda_gauss_default_only_when_missing(lam):
    cfg = copy.deepcopy(PRESETS["vacuum_decay"]) | {"scenario": "vacuum_decay"}
    del cfg["model"]["lambda_gauss"]
    if lam is not None:
        cfg["model"]["lambda_gauss"] = lam
    params = validate_config(cfg).params
    assert params.lam == (default_lambda(params) if lam is None else lam)


def test_zero_charge_2d_exits_2(tmp_path, capsys):
    assert run_cli(tmp_path, {"scenario": "double_plaquette_2d",
                              "model": {"e": 0}}) == 2
    assert "at $.model.e:" in capsys.readouterr().err


def _no_lambda_gauss(preset: str, **model) -> dict:
    """A preset as a custom config without ``lambda_gauss``, so the default
    applies."""
    cfg = copy.deepcopy(PRESETS[preset])
    del cfg["model"]["lambda_gauss"]
    cfg["model"].update(model)
    return cfg


@pytest.mark.parametrize("cfg, path", [
    ({"scenario": "string_breaking_1d", "model": {"e": 1e200}}, "$.model.e"),
    ({"scenario": "double_plaquette_2d", "model": {"e": 1e-200}}, "$.model.e"),
    ({"scenario": "double_plaquette_2d", "model": {"e": 1e-160}}, "$.model.e"),
    (_no_lambda_gauss("string_breaking_1d", m=1e308), "$.model.lambda_gauss"),
], ids=["e_sq_overflows", "e_sq_underflows_2d", "inv_e_sq_overflows_2d",
        "default_lambda_overflows"])
def test_overflowing_coupling_exits_2(tmp_path, capsys, monkeypatch, cfg, path):
    def no_assembly(*args):
        raise AssertionError("Hamiltonian assembled")

    monkeypatch.setattr("lgt.cli.assemble", no_assembly)
    assert run_cli(tmp_path, cfg) == 2
    assert f"at {path}:" in capsys.readouterr().err


@pytest.mark.parametrize("model", [
    {"m": 1e300}, {"e": 1e100}, {"m": 1e308, "r": 1e308, "lambda_gauss": 1.0},
], ids=["m", "e", "sum_overflows"])
def test_huge_finite_coupling_exact_exits_2(tmp_path, capsys, monkeypatch, model):
    def no_evolver(*args):
        raise AssertionError("exact evolver built")

    monkeypatch.setattr("lgt.cli.ExactEvolver", no_evolver)
    assert run_cli(tmp_path, {"scenario": "string_breaking_1d", "model": model,
                              "evolution": {"method": "exact"}}) == 2
    assert "at $.model:" in capsys.readouterr().err


def test_non_finite_hamiltonian_trotter_exits_2(tmp_path, capsys):
    # m + r d overflows to inf: rejected before assembly, with no NumPy
    # warning first (warnings are errors in tests)
    assert run_cli(tmp_path, {
        "scenario": "string_breaking_1d",
        "model": {"m": 1e308, "r": 1e308, "lambda_gauss": 1.0},
        "evolution": {"method": "trotter"}}) == 2
    assert "at $.model:" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


def test_overflow_in_assembly_exits_2(tmp_path, capsys):
    # lambda_gauss times the Gauss coefficients overflows inside assembly;
    # the finiteness check after it reports that, again without a warning
    assert run_cli(tmp_path, {
        "scenario": "string_breaking_1d", "model": {"lambda_gauss": 1e308},
        "evolution": {"method": "trotter"}}) == 2
    assert "at $.model:" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


def test_24_qubit_chain_runs_on_its_coset(tmp_path):
    # 8-site periodic S=1/2 chain: n = 24, r = 16; one 2^24 state alone
    # would be 256 MB
    cfg = {"scenario": "vacuum_decay", "lattice": {"extents": [8]},
           "spin": 0.5, "theta": [0.5],
           "evolution": {"method": "both", "dt": [0.05], "t_max": 0.1,
                         "sample_dt": 0.1},
           "output": {"prefix": "chain"}}
    tracemalloc.start()
    try:
        assert run_cli(tmp_path, cfg) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    meta = json.loads((tmp_path / "out" / "chain_meta.json").read_text())
    assert (meta["n_qubits"], meta["n_simulated_qubits"],
            meta["n_gauge_invariant"]) == (24, 16, 6562)
    for name in ("exact", "trotter_dt0.05"):
        with open(tmp_path / "out" / f"chain_{name}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["t"]) for r in rows] == pytest.approx(
            [0.0, 0.1] if name == "exact" else [0.0, 0.05, 0.1])
        assert float(rows[0]["loschmidt"]) == 1.0
        assert 0.5 < float(rows[-1]["loschmidt"]) < 1.0


def test_one_site_lattice_matches_reference_kernel(tmp_path, monkeypatch):
    # an open one-site lattice has only diagonal strings: the run lives on
    # a coset of r = 0, one amplitude, and every layout is the empty one
    cfg = {"scenario": "vacuum_decay",
           "lattice": {"extents": [1], "boundary": "open"},
           "evolution": {"method": "both"}, "output": {"prefix": "one"}}
    assert run_cli(tmp_path, cfg) == 0
    meta = json.loads((tmp_path / "out" / "one_meta.json").read_text())
    assert (meta["n_qubits"], meta["n_simulated_qubits"]) == (2, 0)
    assert meta["trotter_kernel"]["trotter_dt0.1"]["layouts_per_step"] == 2
    written = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.csv")}
    monkeypatch.setattr(lgt.dynamics, "trotter_step", fused_step_reference)
    (tmp_path / "ref").mkdir()
    assert run_cli(tmp_path / "ref", cfg) == 0
    reference = {p.name: p.read_bytes()
                 for p in (tmp_path / "ref" / "out").glob("*.csv")}
    assert written == reference
    assert sorted(written) == ["one_exact.csv", "one_trotter_dt0.01.csv",
                               "one_trotter_dt0.05.csv", "one_trotter_dt0.1.csv"]


def test_readout_computes_probabilities_once(tmp_path, monkeypatch):
    calls = []
    probabilities = StateVector.probabilities

    def counted(state):
        calls.append(state)
        return probabilities(state)

    monkeypatch.setattr(StateVector, "probabilities", counted)
    cfg = {"scenario": "vacuum_decay", "output": {"prefix": "vd"},
           "evolution": {"method": "both", "dt": [0.1], "t_max": 0.3,
                         "sample_dt": 0.1}}
    assert run_cli(tmp_path, cfg) == 0
    rows = [len(p.read_text().splitlines()) - 1
            for p in (tmp_path / "out").glob("*.csv")]
    assert rows == [4, 4] and len(calls) == 8


def test_meta_records_trotter_kernel(tmp_path):
    cfg = {"scenario": "string_breaking_1d",
           "evolution": {"method": "trotter", "dt": [0.1, 0.01], "t_max": 0.2}}
    assert run_cli(tmp_path, cfg) == 0
    meta = json.loads((tmp_path / "out" / "string_breaking_1d_meta.json").read_text())
    assert "ordering" not in meta and "ordering" not in meta["evolution"]
    sc = validate_config(load_config(write_config(tmp_path, cfg)))
    lay = build_layout(sc)
    h = build_hamiltonian(sc, lay)
    coset = Coset.reachable(h.total, initial_index(
        sc.initial, lay, fermion_mapping(sc.mapping, lay.n_fermionic), sc.params))
    assert meta["trotter_kernel"] == {
        f"trotter_dt{dt:g}": trotter_plan(h.total, dt, steps, coset=coset).kernel_summary()
        for dt, steps in ((0.1, 2), (0.01, 20))}
    # a plan of more steps fuses more: fewer passes over the state per step
    short, long = (meta["trotter_kernel"][f"trotter_dt{dt}"] for dt in ("0.1", "0.01"))
    assert long["passes_per_step"] < short["passes_per_step"]
    assert meta["trotter_error"] == {}  # no exact curve to compare with


def test_meta_records_trotter_error(tmp_path):
    # dt = 0.03 meets the exact samples (every 0.1) only at t = 0 and 0.3
    cfg = {"scenario": "vacuum_decay", "output": {"prefix": "vd"},
           "evolution": {"method": "both", "dt": [0.1, 0.03], "t_max": 0.3,
                         "sample_dt": 0.1}}
    assert run_cli(tmp_path, cfg) == 0
    meta = json.loads((tmp_path / "out" / "vd_meta.json").read_text())
    curves = {}
    for path in (tmp_path / "out").glob("*.csv"):
        with open(path, newline="") as fh:
            curves[path.stem.removeprefix("vd_")] = {
                round(float(r["t"]), 9): (float(r["loschmidt"]),
                                          float(r["total_particle_number"]))
                for r in csv.DictReader(fh)}
    exact = curves.pop("exact")
    assert meta["trotter_error"].keys() == curves.keys() == {"trotter_dt0.1",
                                                             "trotter_dt0.03"}
    for name, rows in curves.items():
        shared = [(rows[t], exact[t]) for t in rows if t in exact]
        error = meta["trotter_error"][name]
        assert error["shared_times"] == len(shared) == (4 if name == "trotter_dt0.1" else 2)
        for i, key in enumerate(("loschmidt", "total_particle_number")):
            # the CSV holds 12 significant digits
            assert error[key] == pytest.approx(
                max(abs(a[i] - b[i]) for a, b in shared), abs=1e-11)
        assert error["loschmidt"] > 0


def test_meta_records_exact_kernel(tmp_path):
    cfg = {"scenario": "vacuum_decay",
           "evolution": {"method": "exact", "t_max": 0.3, "sample_dt": 0.1}}
    assert run_cli(tmp_path, cfg) == 0
    meta = json.loads((tmp_path / "out" / "vacuum_decay_meta.json").read_text())
    kernel = meta["exact_kernel"]
    assert kernel.keys() == {"sector_norm", "substeps_per_sample", "matvecs"}
    # on the G_x = 0 sector the Gauss penalty drops out of ||H||
    assert kernel["sector_norm"] == pytest.approx(9.0, rel=1e-12)
    assert kernel["substeps_per_sample"] == 1
    # three samples, each a Taylor series of several terms
    assert 3 * 5 <= kernel["matvecs"] <= 3 * 30
    assert meta["trotter_kernel"] == meta["trotter_error"] == {}


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")
                                        if p.name != "resource_report.json"))
def test_shipped_configs_within_exact_bound(name):
    sc = validate_config(load_config(CONFIGS / name))
    h = build_hamiltonian(sc, build_layout(sc))
    assert sum(abs(t.coeff) for t in h.total.terms) * sc.evolution["t_max"] \
        <= MAX_EXACT_NORM_T / 1000


@pytest.mark.parametrize("prefix", ["../escaped", "sub/name", ".", "..", "nul\0byte",
                                    ""])
def test_prefix_cannot_leave_out_dir(tmp_path, capsys, prefix):
    config = write_config(tmp_path, {"scenario": "string_breaking_1d",
                                     "output": {"prefix": prefix}})
    assert main(["run", str(config), "--out", str(tmp_path / "out" / "run")]) == 2
    assert "at $.output.prefix:" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == [config]


def test_curves_stop_at_t_max(tmp_path):
    assert run_cli(tmp_path, {"scenario": "string_breaking_1d",
                              "evolution": {"dt": [0.3], "t_max": 0.5,
                                            "sample_dt": 0.3}}) == 0
    for name in ("trotter_dt0.3", "exact"):
        text = (tmp_path / "out" / f"string_breaking_1d_{name}.csv").read_text()
        times = [float(line.split(",")[0]) for line in text.splitlines()[1:]]
        assert times == pytest.approx([0.0, 0.3])


def test_huge_static_flux_exits_2(tmp_path, capsys, monkeypatch):
    # finite, but the electric energy's flux ** 2 overflows: rejected where
    # the flux is read, before assembly would raise OverflowError
    def no_assembly(*args):
        raise AssertionError("Hamiltonian assembled")

    monkeypatch.setattr("lgt.cli.assemble", no_assembly)
    assert run_cli(tmp_path, {
        "scenario": "string_breaking_1d", "lattice": {"static_links": [
            {"site": [-1], "dir": 0, "flux": 1e200}]}}) == 2
    assert "at $.lattice.static_links[0].flux:" in capsys.readouterr().err


def lattice_4x2() -> dict:
    """A 26-qubit 4x2 open S = 1/2 lattice with a flux string on row 0."""
    return {"scenario": "custom",
            "lattice": {"d": 2, "extents": [4, 2], "boundary": "open",
                        "static_links": [{"site": [-1, 0], "dir": 0, "flux": 1},
                                         {"site": [3, 0], "dir": 0, "flux": 1}]},
            "model": {"m": 0.4, "e": 2.0, "lambda_gauss": 20.0},
            "spin": 0.5, "theta": [0.5, 0.5],
            "initial_state": {"sites": ["o"] * 8,
                              "link_fluxes": [1, 0, 0, 1, 0, 0, 1, 0, 0, 0]},
            "evolution": {"dt": [0.05], "t_max": 0.1}}


def test_statevector_cap_stops_run_only(tmp_path, capsys):
    config = write_config(tmp_path, lattice_4x2())
    assert main(["run", str(config), "--out", str(tmp_path / "run")]) == 3
    assert "26 qubits exceeds the simulable limit (24)" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == [config]
    # a circuit needs no statevector
    assert main(["qasm", str(config), "--out", str(tmp_path / "qasm")]) == 0
    counts = json.loads((tmp_path / "qasm" / "custom_gate_counts.json").read_text())
    assert counts["n_qubits"] == 26


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")
                                        if p.name != "resource_report.json"))
def test_circuit_and_run_count_the_same_step(tmp_path, name):
    cfg = load_config(CONFIGS / name)
    cfg["evolution"] = cfg["evolution"] | {"method": "trotter", "dt": [0.1],
                                           "t_max": 0.1}
    config = write_config(tmp_path, cfg)
    assert main(["run", str(config), "--out", str(tmp_path / "run")]) == 0
    assert main(["qasm", str(config), "--out", str(tmp_path / "qasm")]) == 0
    prefix = cfg["output"]["prefix"]
    meta = json.loads((tmp_path / "run" / f"{prefix}_meta.json").read_text())
    counts = json.loads((tmp_path / "qasm" / f"{prefix}_gate_counts.json").read_text())
    assert counts["cnot_count"] == meta["n_cnot_per_trotter_step"]
    assert counts["n_pauli_strings"] == meta["n_pauli_strings"]
    sc = validate_config(cfg)
    terms = build_hamiltonian(sc, build_layout(sc)).total.terms
    assert counts["gate_counts"]["rz"] == sum(1 for t in terms if t.x or t.z)


@pytest.mark.parametrize("override, path", [
    ({"evolution": {"dt": 0.1}}, "$.evolution.dt"),
    ({"evolution": [1]}, "$.evolution"),
    ({"output": "name"}, "$.output"),
    ({"initial_state": {"link_fluxes": ["a", 1]}}, "$.initial_state.link_fluxes[0]"),
    ({"initial_state": {"sites": [[0, "x"], "o", "o"]}}, "$.initial_state.sites[0]"),
    ({"initial_state": {"sites": ["o", [0, 2], "o"]}}, "$.initial_state.sites[1]"),
    ({"initial_state": {"sites": ["o", "o", [0, 1, 1]]}}, "$.initial_state.sites[2]"),
    ({"lattice": {"static_links": [{"site": ["q"], "dir": 0, "flux": 1.0}]}},
     "$.lattice.static_links[0].site"),
])
def test_malformed_config_exits_2(tmp_path, capsys, override, path):
    assert run_cli(tmp_path, {"scenario": "string_breaking_1d"} | override) == 2
    assert f"at {path}:" in capsys.readouterr().err


@pytest.mark.parametrize("override, path", [
    ({"spins": ["a"]}, "$.spins[0]"),
    ({"spins": [0.7]}, "$.spins[0]"),
    ({"spins": [0.5, True]}, "$.spins[1]"),
    ({"spins": [600.5]}, "$.spins[0]"),
    ({"spins": 0.5}, "$.spins"),
    ({"qubit_tables": [1]}, "$.qubit_tables"),
    ({"qubit_tables": {"spins": [0.3]}}, "$.qubit_tables.spins[0]"),
    ({"qubit_tables": {"spins": [0]}}, "$.qubit_tables.spins[0]"),
    ({"qubit_tables": {"2d": [[2, 3], [4]]}}, "$.qubit_tables.2d[1]"),
    ({"qubit_tables": {"2d": [[2, 0]]}}, "$.qubit_tables.2d[0]"),
    ({"qubit_tables": {"3d": [[2, 2, 2.5]]}}, "$.qubit_tables.3d[0]"),
    ({"qubit_tables": {"3d": [7]}}, "$.qubit_tables.3d[0]"),
    ({"qubit_tables": {"2d": [[2, 3, 4]]}}, "$.qubit_tables.2d[0]"),
    ({"gauge_encoding": "linear"}, "$.gauge_encoding"),
])
def test_bad_resource_report_exits_2(tmp_path, capsys, override, path):
    config = write_config(tmp_path, {"scenario": "resource_report"} | override)
    assert main(["resources", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"at {path}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "qasm"])
def test_resource_report_is_not_a_lattice(tmp_path, capsys, command):
    config = CONFIGS / "resource_report.json"
    assert main([command, str(config), "--out", str(tmp_path / "out")]) == 2
    assert "at $.scenario:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "resources", "qasm"])
def test_four_dimensional_lattice_exits_2(tmp_path, capsys, command):
    config = write_config(tmp_path, {
        "lattice": {"d": 4, "extents": [1, 1, 1, 1], "boundary": "open"},
        "model": {"m": 0.5}, "spin": 0.5})
    assert main([command, str(config), "--out", str(tmp_path / "out")]) == 2
    assert "at $.lattice.d:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_resources_beyond_closed_forms_need_power_of_two(tmp_path, capsys):
    # d_S = 1202: past 1024 the counts are closed forms, exact for 2^k only
    config = write_config(tmp_path, {
        "lattice": {"d": 1, "extents": [2], "boundary": "open"},
        "model": {"m": 0.5}, "spin": 600.5})
    assert main(["resources", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "at $.spin:" in err and "power of two" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "qasm"])
def test_huge_log_spin_exits_2_before_allocating(tmp_path, capsys, monkeypatch,
                                                 command):
    # d_S = 10,002 on 14 qubits: an 18-qubit register, but dense spin
    # matrices of 1.6 GB each; failing here keeps a regression fast
    def no_matrices(*args):
        raise AssertionError("spin matrices allocated")

    monkeypatch.setattr("lgt.gauge.spin_matrices", no_matrices)
    config = write_config(tmp_path, {
        "lattice": {"d": 1, "extents": [2], "boundary": "open"},
        "model": {"m": 0.5}, "spin": 5000.5})
    assert main([command, str(config), "--out", str(tmp_path / "out")]) == 2
    assert "at $.spin:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_not_utf8_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xff\xfe{\x00}\x00")  # UTF-16 with a byte-order mark
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"at {config}:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "resources", "qasm"])
@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_path_through_a_file_exits_2(tmp_path, capsys, command, out):
    (tmp_path / "file").write_text("kept\n")
    config = CONFIGS / ("resource_report.json" if command == "resources"
                        else "string_breaking_1d_light.json")
    assert main([command, str(config), "--out", str(tmp_path / out)]) == 2
    assert "at --out:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("dt", ["nan", "inf", "-1", "0", "1e307"])
def test_bad_qasm_dt_exits_2(tmp_path, capsys, dt):
    # 1e307 is finite, but twice it times a coefficient is not
    config = write_config(tmp_path, {"scenario": "string_breaking_1d"})
    assert main(["qasm", str(config), "--out", str(tmp_path / "out"),
                 "--dt", dt]) == 2
    assert "at --dt:" in capsys.readouterr().err


def test_overflowing_trotter_angle_exits_2(tmp_path, capsys):
    # a finite dt whose rotation angles overflow: rejected before the plan
    # folds them into NaN amplitudes (warnings are errors in tests)
    assert run_cli(tmp_path, {
        "scenario": "vacuum_decay",
        "evolution": {"method": "trotter", "dt": [1e307], "t_max": 1e308}}) == 2
    err = capsys.readouterr().err
    assert "at $.evolution.dt:" in err and "Warning" not in err
    assert not (tmp_path / "out").exists()


# open 2x2 S=1 lattice with a theta along x
THETA_2X2 = {"lattice": {"d": 2, "extents": [2, 2], "boundary": "open"},
             "model": {"m": 0.5}, "spin": 1.0}


@pytest.mark.parametrize("command, cfg", [
    ("qasm", {"scenario": "vacuum_decay", "theta": [1e160]}),
    # the initial fluxes equal theta, so the flux states are m = 0
    ("run", {"scenario": "vacuum_decay", "theta": [1e160],
             "initial_state": {"sites": ["o", "o", "o"],
                               "link_fluxes": [1e160, 1e160, 1e160]}}),
    ("resources", THETA_2X2 | {"theta": [1e200, 0.0]}),
    # 2 (1 + 1e154)^2 overflows, (1 + 1e154)^2 does not
    ("qasm", {"scenario": "vacuum_decay", "theta": [-1e154]}),
], ids=["qasm", "run", "resources", "qasm_first_overflow"])
def test_huge_theta_exits_2(tmp_path, capsys, command, cfg):
    # (Sz + theta)^2 overflowed in the decomposition with NumPy warnings
    # (errors in tests), and `lgt resources` wrote its table
    config = write_config(tmp_path, cfg)
    assert main([command, str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "at $.theta:" in err and "Warning" not in err
    assert not (tmp_path / "out").exists()


def test_largest_theta_gives_a_circuit(tmp_path):
    config = write_config(tmp_path, {"scenario": "vacuum_decay", "theta": [1e153]})
    assert main(["qasm", str(config), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "vacuum_decay_trotter_step.qasm").exists()


@pytest.mark.parametrize("mapping, cnots", [("jw", 3302), ("parity", 3242), ("bk", 3482)])
def test_resource_table_counts_the_cnots_of_the_configured_mapping(tmp_path, mapping,
                                                                  cnots):
    """The total row of ``lgt resources`` counts the CNOTs of the circuit
    that ``lgt qasm`` writes for the same config, under every mapping."""
    config = write_config(tmp_path, {"scenario": "vacuum_decay", "mapping": mapping})
    assert main(["resources", str(config), "--out", str(tmp_path / "res")]) == 0
    assert main(["qasm", str(config), "--out", str(tmp_path / "qasm")]) == 0
    with open(tmp_path / "res" / "vacuum_decay_resources.csv") as f:
        total, = [r for r in csv.DictReader(f) if r["term"] == "total"]
    gates = json.loads((tmp_path / "qasm" / "vacuum_decay_gate_counts.json").read_text())
    assert int(total["n_cnot"]) == gates["cnot_count"] == cnots


def test_overflow_in_resource_assembly_exits_2(tmp_path, capsys):
    # e^2/2 (S + theta)^2 = 5e199 * 1e200 overflows in the electric term,
    # though each factor passes its own check
    config = write_config(tmp_path, THETA_2X2 | {"model": {"m": 0.5, "e": 1e100},
                                                 "theta": [1e100, 0.0]})
    assert main(["resources", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "at $.model:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spin, path", [
    # periodic 2x2 at S = 7.5 (40 qubits): 5,122,617 strings predicted
    (7.5, "$.lattice"),
    # d_S = 1202: past 1024 the counts are closed forms, exact for 2^k only
    (600.5, "$.spin"),
], ids=["over_enumeration_limit", "beyond_closed_forms"])
def test_qasm_refuses_before_assembly(tmp_path, capsys, monkeypatch, spin, path):
    def no_assembly(*args):
        raise AssertionError("Hamiltonian assembled")

    monkeypatch.setattr("lgt.cli.assemble", no_assembly)
    config = write_config(tmp_path, {
        "lattice": {"d": 2, "extents": [2, 2], "boundary": "periodic"},
        "model": {"m": 0.5}, "spin": spin})
    assert main(["qasm", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"at {path}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# SHA-256 of the paper's resource tables, of Trotter-step circuits (among
# them non-power-of-two hopping scales, d = 3 and the one-hot encoding) and
# of the resource table of a lattice whose plaquettes meet a link twice
@pytest.mark.parametrize("command, config, digests", [
    ("resources", "resource_report.json", {
        "resource_report_per_link.csv":
            "f666f17f22b06cab1b9a7bcbd6e43ab975ca400d04cf5c0d4af905abd4dd7873",
        "resource_report_qubits_2d.csv":
            "83abc3cd18db29d2639547690917666be5cdac712b9176a2f01421842b2cffd7",
        "resource_report_qubits_3d.csv":
            "f50095ee5f33a48f5a36b5eb8d752b10e8a7cabcd33ae9011abf837a6294a940"}),
    ("qasm", "vacuum_decay.json", {
        "vacuum_decay_trotter_step.qasm":
            "9175bd0b4d8f0be76e10f40884d82187285af0b2f43f4a65b2e1cbb673b35f54",
        "vacuum_decay_gate_counts.json":
            "9259a3dc02fe1b2968ceac27310b301089a97a594587cb3f101d0d80114ab66a"}),
    ("qasm", "double_plaquette_2d.json", {
        "double_plaquette_2d_trotter_step.qasm":
            "308083260a3988094f61e9984ceaff700fed6ca2a8d146d6706b142827961b0c",
        "double_plaquette_2d_gate_counts.json":
            "33580674bb52b375be5db58fd89c77992fd1372e5c42b26c5ba30556693957fe"}),
    ("qasm", "string_breaking_1d_light.json", {
        "string_breaking_1d_trotter_step.qasm":
            "99ee338e997d79d80fd35ff5c19a9463f889d6645db392593d81c13e86e12dc4",
        "string_breaking_1d_gate_counts.json":
            "eeb9de28d051e131f0f573e549ac15fa5ffbe47e655fc3a7db03e151927738a0"}),
    ("qasm", CHAIN_17, {
        "custom_trotter_step.qasm":
            "7318a77216fcdeae91f26f4caaac00194d69a735a954e4005469b96e025fb5c3",
        "custom_gate_counts.json":
            "82ae76656a36bbeaa6231a22be87e3502fec1d11d6a8c0683bc3c99228ecaa5d"}),
    # periodic [2, 1]: the row "plaquette,0.5,log,6,16,20,4,4"
    ("resources", {"scenario": "custom",
                   "lattice": {"d": 2, "extents": [2, 1], "boundary": "periodic"},
                   "model": {"m": 0.4, "e": 2.0}, "spin": 0.5}, {
        "custom_resources.csv":
            "5648810a889897e17f88166d4306c8998edaae00ed30e29bcd0b4a4e6303265f"}),
    # hopping scales 0.5 gamma_mix that are not powers of two (r = 0.7),
    # on four spinor components (d = 3)
    ("qasm", {"scenario": "custom",
              "lattice": {"d": 3, "extents": [2, 2, 2], "boundary": "open"},
              "model": {"m": 0.4, "r": 0.7, "e": 1.3}, "spin": 0.5,
              "theta": [0.5, 0.5, 0.5]}, {
        "custom_trotter_step.qasm":
            "af5e12057476319d157f790148b177049fc1a6d8666e6a351f034747578a8e64",
        "custom_gate_counts.json":
            "fb881fd0916e31c141ef4b997f42a93a32f7ca4bca67486e20b5e3173f0ab8d7"}),
    # the one-hot (linear) link encoding, with r = 0.37
    ("qasm", {"scenario": "vacuum_decay", "gauge_encoding": "linear",
              "model": {"r": 0.37}, "evolution": {"t_max": 0.3}}, {
        "vacuum_decay_trotter_step.qasm":
            "77eb795488dc92678895e3759786977d6c5cf4659787918c90f6df1197102025",
        "vacuum_decay_gate_counts.json":
            "017301f9719b142213ab130fb18bd534afd040a0a773d56b7febc47367bf5f1f"}),
])
def test_outputs_match_golden_digest(tmp_path, command, config, digests):
    path = write_config(tmp_path, config) if isinstance(config, dict) else CONFIGS / config
    assert main([command, str(path), "--out", str(tmp_path)]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in digests} == digests


def test_exported_qasm_parses_back(tmp_path):
    assert main(["qasm", str(CONFIGS / "vacuum_decay.json"), "--out", str(tmp_path)]) == 0
    n, gates = parse_qasm((tmp_path / "vacuum_decay_trotter_step.qasm").read_text())
    assert n == 12 and gate_counts(gates)["rz"] == 465


@pytest.mark.parametrize("config, prefix", [(CONFIGS / "vacuum_decay.json", "vacuum_decay"),
                                            (CHAIN_17, "custom")])
def test_gate_counts_match_the_written_circuit(tmp_path, config, prefix):
    path = write_config(tmp_path, config) if isinstance(config, dict) else config
    assert main(["qasm", str(path), "--out", str(tmp_path)]) == 0
    n, gates = parse_qasm((tmp_path / f"{prefix}_trotter_step.qasm").read_text())
    counts = json.loads((tmp_path / f"{prefix}_gate_counts.json").read_text())
    assert counts["n_qubits"] == n
    assert counts["gate_counts"] == gate_counts(gates)
    assert counts["cnot_count"] == counts["gate_counts"]["cx"]
    assert counts["depth"] == schedule_depth(n, gates)


def exact_curve(tmp_path, mapping: str) -> list[dict[str, float]]:
    out = tmp_path / mapping
    config = write_config(tmp_path, {
        "scenario": "vacuum_decay", "mapping": mapping,
        "evolution": {"method": "exact", "t_max": 0.5},
        "output": {"prefix": "run"}})
    assert main(["run", str(config), "--out", str(out)]) == 0
    with open(out / "run_exact.csv", newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def test_label_columns_rank_near_ties_by_label():
    names = ["x", "c", "b", "a", "z", "y"]  # key -> label, not in label order

    def rows(probs):
        keys = np.array([names.index(label) for label in probs])
        return [(0.0, 1.0, 0.0, (keys, np.array(list(probs.values()))))]

    def label_columns(curves, **kwargs):
        keys, labels = _label_columns(curves, lambda k: [names[i] for i in k],
                                      **kwargs)
        assert labels == [names[i] for i in keys.tolist()]
        return labels

    tied = 2.0e-3
    curve = {"z": 0.5, "y": 0.4, "c": tied + 4e-13, "a": tied, "b": tied - 4e-13,
             "x": tied - 2e-12}
    # a tier is a chain of neighbours within READOUT_TOL; peaks further
    # apart keep their order
    assert label_columns([rows(curve)]) == ["z", "y", "a", "b", "c", "x"]
    # round-off that reorders peaks inside the tier moves no column, and
    # the cut falls inside the tier by label
    nudged = dict(curve, b=tied + 8e-13)
    assert label_columns([rows(nudged)]) == ["z", "y", "a", "b", "c", "x"]
    for c in (curve, nudged):
        assert label_columns([rows(c)], n_columns=4) == ["z", "y", "a", "b"]
    # the peak over all curves and rows ranks a label
    assert label_columns([rows({"a": 0.1}), rows({"b": 0.2, "a": 0.3})]) \
        == ["a", "b"]
    # no readout above the tolerance: no column
    empty = (np.array([], dtype=np.intp), np.array([]))
    assert label_columns([[(0.0, 1.0, 0.0, empty)]]) == []


@pytest.mark.parametrize("mapping", ["parity", "bk"])
def test_exact_curve_same_for_every_mapping(tmp_path, mapping):
    # label columns of equal peak probability may swap places, so the
    # columns are compared by name
    jw, other = exact_curve(tmp_path, "jw"), exact_curve(tmp_path, mapping)
    assert len(other) == len(jw) == 6
    for a, b in zip(jw, other):
        assert a.keys() == b.keys()
        assert max(abs(a[k] - b[k]) for k in a) <= 1e-9


def node_paths(value, path=()):
    """Paths to every value nested in a JSON document, itself excluded."""
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(PRESETS)), st.data())
def test_validate_config_fuzz(name, data):
    cfg = copy.deepcopy(PRESETS[name]) | {"scenario": name}
    paths = list(node_paths(cfg))
    for _ in range(data.draw(st.integers(1, 3))):
        *parents, last = data.draw(st.sampled_from(paths))
        node = cfg
        for key in parents:
            node = node[key]
        node[last] = data.draw(JSON_VALUES)
        paths = list(node_paths(cfg))
    try:
        assert isinstance(validate_config(cfg), ScenarioConfig)
    except ConfigError:
        pass
