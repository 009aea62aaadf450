"""Command line: initial-state validation, shipped configs, import cost."""

import copy
import csv
import hashlib
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgt
from lgt.circuits import parse_qasm
from lgt.cli import (
    MAX_EXACT_NORM_T,
    PRESETS,
    ConfigError,
    ScenarioConfig,
    build_hamiltonian,
    build_layout,
    initial_index,
    load_config,
    main,
    validate_config,
)
from lgt.dynamics import StateVector
from lgt.hamiltonian import default_lambda
from lgt.matter import fermion_mapping

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, cfg: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def scenario_state(path: Path):
    sc = validate_config(load_config(path))
    lay = build_layout(sc)
    mapping = fermion_mapping(sc.mapping, lay.n_fermionic)
    return StateVector.basis_state(
        lay.n_total, initial_index(sc.initial, lay, mapping, sc.params))


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


def test_cli_import_loads_no_scipy():
    code = ("import sys, lgt.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=str(Path(lgt.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


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
])
def test_bad_evolution_is_config_error(tmp_path, capsys, monkeypatch, evolution, field):
    def no_assembly(*args):
        raise AssertionError("Hamiltonian assembled")

    monkeypatch.setattr("lgt.cli.assemble", no_assembly)
    assert run_cli(tmp_path, {"scenario": "string_breaking_1d",
                              "evolution": evolution}) == 2
    assert f"at $.evolution.{field}:" in capsys.readouterr().err


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
    # would be 256 MB. The exact curve's scipy import is not the run's cost.
    importlib.import_module("scipy.sparse.linalg")

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
    ({"spins": [9.0]}, "$.spins[0]"),
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


@pytest.mark.parametrize("dt", ["nan", "inf", "-1", "0"])
def test_bad_qasm_dt_exits_2(tmp_path, capsys, dt):
    config = write_config(tmp_path, {"scenario": "string_breaking_1d"})
    assert main(["qasm", str(config), "--out", str(tmp_path / "out"),
                 "--dt", dt]) == 2
    assert "at --dt:" in capsys.readouterr().err


# SHA-256 of the paper's resource tables and of one Trotter-step circuit
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
])
def test_outputs_match_golden_digest(tmp_path, command, config, digests):
    assert main([command, str(CONFIGS / config), "--out", str(tmp_path)]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in digests} == digests


def test_exported_qasm_parses_back(tmp_path):
    assert main(["qasm", str(CONFIGS / "vacuum_decay.json"), "--out", str(tmp_path)]) == 0
    circ = parse_qasm((tmp_path / "vacuum_decay_trotter_step.qasm").read_text())
    assert circ.n_qubits == 12 and circ.gate_counts()["rz"] == 465


def exact_curve(tmp_path, mapping: str) -> list[dict[str, float]]:
    out = tmp_path / mapping
    config = write_config(tmp_path, {
        "scenario": "vacuum_decay", "mapping": mapping,
        "evolution": {"method": "exact", "t_max": 0.5},
        "output": {"prefix": "run"}})
    assert main(["run", str(config), "--out", str(out)]) == 0
    with open(out / "run_exact.csv", newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


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
