import json

import pytest

from check import (
    CURVE_ATOL,
    check_outputs,
    compare_curve,
    compare_meta,
    curve_trotter_error,
    trotter_error,
)

REF = "t,loschmidt,p[o|0]\n0,1,1\n0.1,0.9,0.8\n"


def test_curve_within_tolerance_and_extra_columns_pass():
    out = f"t,norm,loschmidt,p[o|0]\n0,1,1,1\n0.1,1,{0.9 + CURVE_ATOL / 2},0.8\n"
    assert compare_curve(REF, out) == []


def test_curve_outside_tolerance_fails():
    out = "t,loschmidt,p[o|0]\n0,1,1\n0.1,0.9001,0.8\n"
    assert any("loschmidt" in p for p in compare_curve(REF, out))


def test_curve_missing_column_or_row_fails():
    assert compare_curve(REF, "t,loschmidt\n0,1\n0.1,0.9\n") == ["column p[o|0] missing"]
    short = compare_curve(REF, "t,loschmidt,p[o|0]\n0,1,1\n")
    assert short and all("rows" in p for p in short)


def test_curve_time_grid_must_match():
    out = "t,loschmidt,p[o|0]\n0,1,1\n0.12,0.9,0.8\n"
    assert any(p.startswith("column t") for p in compare_curve(REF, out))


def test_meta_counts_must_be_equal():
    ref = {"n_qubits": 12, "n_pauli_strings": 466, "n_cnot_per_trotter_step": 10,
           "n_configurations": 4096, "n_gauge_invariant": 20, "seed": None}
    assert compare_meta(ref, dict(ref, seed=7, extra=1)) == []
    assert compare_meta(ref, dict(ref, n_pauli_strings=465)) == [
        "meta n_pauli_strings: 465 vs reference 466"]


def test_check_outputs(tmp_path):
    ref, out = tmp_path / "ref", tmp_path / "out"
    ref.mkdir(), out.mkdir()
    (ref / "x_resources.csv").write_text("term,n\nmass,3\n")
    (ref / "x_exact.csv").write_text(REF)
    (ref / "x_meta.json").write_text(json.dumps({"n_qubits": 3}))
    assert check_outputs(ref, out) == [f"{n}: not written" for n in
                                       ("x_exact.csv", "x_meta.json", "x_resources.csv")]
    (out / "x_resources.csv").write_text("term,n\nmass,3\n")
    (out / "x_exact.csv").write_text(REF)
    (out / "x_meta.json").write_text(json.dumps({"n_qubits": 3, "other": 1}))
    assert check_outputs(ref, out) == []
    (out / "x_resources.csv").write_text("term,n\nmass,3.0\n")
    assert check_outputs(ref, out) == [
        "x_resources.csv: not byte-identical to the reference"]


def test_trotter_error_on_aligned_grid():
    exact = ([0.0, 0.1, 0.2], [1.0, 0.9, 0.7])
    trotter = ([0.0, 0.05, 0.1, 0.15, 0.2], [1.0, 0.5, 0.91, 0.5, 0.68])
    err, shared = trotter_error(exact, [trotter])
    assert err == pytest.approx(0.02)
    assert shared == 3


def test_misaligned_step_means_fewer_shared_points():
    # dt = 0.012 reaches t = 0.3 and 0.6 (within 1e-9) but never 0.1 or 0.2
    times = [k * 0.012 for k in range(51)]
    exact_t = [round(0.1 * k, 12) for k in range(7)]
    exact = (exact_t, [1.0 - t for t in exact_t])
    # off the shared times the curve is far off; only t = 0, 0.3, 0.6 count
    trotter = (times, [1.0 - t + (0.5 if k % 25 else 0.001 * k)
                       for k, t in enumerate(times)])
    err, shared = trotter_error(exact, [trotter])
    assert shared == 3
    assert err == pytest.approx(0.05)


def test_max_over_curves_and_no_shared_points():
    exact = ([0.0, 0.1], [1.0, 0.9])
    coarse = ([0.0, 0.1], [1.0, 0.8])
    fine = ([0.0, 0.05, 0.1], [1.0, 0.95, 0.88])
    assert trotter_error(exact, [fine, coarse]) == (pytest.approx(0.1), 4)
    assert trotter_error(exact, [([0.07], [0.3])]) == (0.0, 0)


def test_curve_trotter_error_reads_run_outputs(tmp_path):
    (tmp_path / "s_exact.csv").write_text("t,loschmidt\n0,1\n0.1,0.9\n")
    (tmp_path / "s_trotter_dt0.05.csv").write_text(
        "t,loschmidt\n0,1\n0.05,0.97\n0.1,0.893\n")
    err, shared = curve_trotter_error(tmp_path)
    assert err == pytest.approx(0.007) and shared == 2
    assert curve_trotter_error(tmp_path / "missing") is None
