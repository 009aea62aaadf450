import pytest

from spans import aggregate, covered, layer_self_times, self_times


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered([(1.0, 2.0), (4.0, 6.0)], 0.0, 10.0) == pytest.approx(3.0)


def test_self_time_of_nested_spans():
    spans = [
        ("cli.main", None, 0.0, 10.0),
        ("hamiltonian.assemble", 0, 1.0, 6.0),
        ("pauli.op_mul", 1, 2.0, 5.0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0])


def test_self_time_of_sibling_spans():
    spans = [
        ("cli.main", None, 0.0, 10.0),
        ("dynamics.trotter_step", 0, 1.0, 3.0),
        ("dynamics.trotter_step", 0, 3.0, 4.5),
        ("dynamics.readout", 0, 6.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx([3.5, 2.0, 1.5, 3.0])


def test_self_times_partition_the_root():
    spans = [
        ("cli.main", None, 0.0, 20.0),
        ("cli.run_scenario", 0, 0.5, 19.0),
        ("dynamics.exact_evolve", 1, 1.0, 8.0),
        ("dynamics.matvec", 2, 2.0, 3.0),
        ("dynamics.matvec", 2, 4.0, 6.5),
        ("dynamics.gauss_filter", 1, 9.0, 15.0),
    ]
    per_layer = layer_self_times(spans)
    assert sum(per_layer.values()) == pytest.approx(20.0)
    assert per_layer["dynamics"] == pytest.approx(7.0 + 6.0)
    assert per_layer["cli"] == pytest.approx(20.0 - 7.0 - 6.0)


def test_aggregate_counts_reentrant_spans_once():
    spans = [
        ("pauli.op_add", None, 0.0, 4.0),
        ("pauli.op_add", 0, 1.0, 2.0),
        ("pauli.from_terms", 1, 1.2, 1.8),
    ]
    agg = aggregate(spans)
    assert agg["pauli.op_add"]["calls"] == 2
    assert agg["pauli.op_add"]["total_s"] == pytest.approx(4.0)
    assert agg["pauli.op_add"]["self_s"] == pytest.approx(3.0 + 0.4)
    assert agg["pauli.from_terms"]["self_s"] == pytest.approx(0.6)
