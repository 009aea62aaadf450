"""Output checks against stored reference outputs, and the Trotter error.

Curve CSVs are compared column by column, by header name, within
``CURVE_ATOL``. The exact curve comes from an iterative solver run to a
tolerance of 1e-10, and a change of exact method moves it by about that
much. A reversed Trotter string order moves particle number and
configuration probabilities by 1e-5 or more (the Loschmidt echo of a
basis state barely moves). Columns the reference lacks are ignored, so
added health columns pass.
Resource tables must be byte-identical.
"""

from __future__ import annotations

import bisect
import json
import math
from pathlib import Path

CURVE_ATOL = 1e-6
TIME_ATOL = 1e-9
META_KEYS = ("n_qubits", "n_pauli_strings", "n_cnot_per_trotter_step",
             "n_configurations", "n_gauge_invariant")


def parse_csv(text: str) -> dict[str, list[float]]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row has {len(row)} cells, header {len(header)}")
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def compare_curve(ref_text: str, out_text: str, atol: float = CURVE_ATOL
                  ) -> list[str]:
    """Problems found comparing an output curve CSV with its reference."""
    try:
        out = parse_csv(out_text)
    except (ValueError, IndexError) as exc:
        return [f"unreadable CSV: {exc}"]
    ref = parse_csv(ref_text)
    problems = []
    for name, ref_col in ref.items():
        col = out.get(name)
        if col is None:
            problems.append(f"column {name} missing")
            continue
        if len(col) != len(ref_col):
            problems.append(f"column {name}: {len(col)} rows, "
                            f"reference {len(ref_col)}")
            continue
        tol = TIME_ATOL if name == "t" else atol
        for row, (a, b) in enumerate(zip(col, ref_col)):
            if math.isnan(b) != math.isnan(a) or abs(a - b) > tol:
                problems.append(f"column {name} row {row}: {a!r} vs "
                                f"reference {b!r} (tolerance {tol:g})")
                break
    return problems


def compare_meta(ref: dict, out: dict) -> list[str]:
    return [f"meta {key}: {out.get(key)!r} vs reference {ref.get(key)!r}"
            for key in META_KEYS if out.get(key) != ref.get(key)]


def check_outputs(ref_dir: Path, out_dir: Path) -> list[str]:
    """Compare every reference file with the output of the same name."""
    problems = []
    for ref_path in sorted(ref_dir.iterdir()):
        out_path = out_dir / ref_path.name
        if not out_path.is_file():
            problems.append(f"{ref_path.name}: not written")
            continue
        if ref_path.name.endswith("_meta.json"):
            found = compare_meta(json.loads(ref_path.read_text()),
                                 json.loads(out_path.read_text()))
        elif ref_path.name.endswith("_resources.csv"):
            same = out_path.read_bytes() == ref_path.read_bytes()
            found = [] if same else ["not byte-identical to the reference"]
        else:
            found = compare_curve(ref_path.read_text(), out_path.read_text())
        problems += [f"{ref_path.name}: {p}" for p in found]
    return problems


def trotter_error(exact: tuple[list[float], list[float]],
                  trotter: list[tuple[list[float], list[float]]]
                  ) -> tuple[float, int]:
    """Max |Trotter - exact| over the sample times the curves share.

    A curve whose step does not divide the exact sample spacing shares fewer
    times with it; that is not an error. Returns (error, shared points).
    """
    times, values = exact
    order = sorted(range(len(times)), key=times.__getitem__)
    ts = [times[i] for i in order]
    err, shared = 0.0, 0
    for t_times, t_values in trotter:
        for t, v in zip(t_times, t_values):
            k = bisect.bisect_left(ts, t - TIME_ATOL)
            if k < len(ts) and abs(ts[k] - t) <= TIME_ATOL:
                err = max(err, abs(v - values[order[k]]))
                shared += 1
    return err, shared


def curve_trotter_error(out_dir: Path) -> tuple[float, int] | None:
    """Loschmidt-echo Trotter error of a ``run`` output directory."""
    exact = list(out_dir.glob("*_exact.csv"))
    trotter = sorted(out_dir.glob("*_trotter_dt*.csv"))
    if len(exact) != 1 or not trotter:
        return None

    def curve(path):
        cols = parse_csv(path.read_text())
        return cols["t"], cols["loschmidt"]

    return trotter_error(curve(exact[0]), [curve(p) for p in trotter])
