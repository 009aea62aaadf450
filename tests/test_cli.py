"""Command line: initial-state validation, shipped configs, import cost."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lgt
from lgt.cli import (
    PRESETS,
    ConfigError,
    build_layout,
    initial_state,
    lattice_units,
    load_config,
    main,
    validate_config,
)
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
    return initial_state(sc.initial, lay, mapping, lattice_units(sc.params))


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
