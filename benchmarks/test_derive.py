"""Tests of the benchmark's metric maths on synthetic spans and samples.

    python3 -m pytest benchmarks
"""

import math

import pytest

import derive


def span(name, start, end, parent=None, pid=1):
    return (name, start, end, parent, pid)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert derive.percentile(values, 50) == 50
    assert derive.percentile(values, 90) == 90
    assert derive.percentile(values, 100) == 100
    assert derive.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert derive.percentile([7.0], 99.9) == 7.0
    with pytest.raises(ValueError):
        derive.percentile([], 50)
    with pytest.raises(ValueError):
        derive.percentile([1.0], 0)


def test_reportable_percentile_keeps_ten_samples_beyond():
    assert derive.reportable_percentile(19) is None
    assert derive.reportable_percentile(20) == 50.0
    assert derive.reportable_percentile(99) == 50.0
    assert derive.reportable_percentile(100) == 90.0
    assert derive.reportable_percentile(801) == 90.0
    assert derive.reportable_percentile(1000) == 99.0
    assert derive.reportable_percentile(10000) == 99.9


def test_timing_summary_reports_the_reportable_tail():
    assert derive.timing_summary([2.0, 1.0, 3.0]) == {"n": 3, "p50": 2.0}
    summary = derive.timing_summary([float(v) for v in range(1, 101)])
    assert summary == {"n": 100, "p50": 50.5, "p90": 90.0}


def test_self_time_subtracts_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 4.0, 8.0, parent=0),
        span("b.inner", 5.0, 6.0, parent=2),
    ]
    assert derive.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])
    assert sum(derive.self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    # children of one parent overlap when they ran in different threads
    spans = [
        span("root", 0.0, 10.0),
        span("a", 2.0, 6.0, parent=0),
        span("b", 4.0, 8.0, parent=0),
        span("late", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert derive.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_subtree_follows_parents():
    spans = [
        span("root", 0, 10),
        span("a", 1, 2, parent=0),
        span("other", 11, 12),
        span("a.x", 1.2, 1.5, parent=1),
    ]
    assert derive.subtree(spans, 0) == [0, 1, 3]
    assert derive.subtree(spans, 2) == [2]


def test_pool_ratios():
    speedup = derive.pool_speedup(8.0, 5.0)
    assert speedup == pytest.approx(1.6)
    assert derive.pool_efficiency(speedup, 2) == pytest.approx(0.8)
    assert derive.pool_efficiency(1.0, 1) == 1.0
    with pytest.raises(ValueError):
        derive.pool_speedup(0.0, 1.0)
    with pytest.raises(ValueError):
        derive.pool_efficiency(1.0, 0)


def test_matvec_cost_of_csr_real_times_complex():
    moved, flops = derive.matvec_cost(nnz=10, dim=4, value_bytes=8, index_bytes=4)
    assert moved == 10 * 12 + 5 * 4 + 2 * 4 * 16
    assert flops == 40


def test_layer_metrics_of_a_traced_quench():
    spans = [
        span("cli.import", 0.0, 0.5),
        span("cli.main", 0.5, 10.0),
        span("quench.QuenchWorkspace.prepare", 0.6, 2.0, parent=1),
        span("bound_band.band_scan", 0.7, 1.0, parent=2),
        span("quench.prepare_wavepacket", 1.0, 1.9, parent=2),
        span("bound_band.bound_matrix", 1.1, 1.8, parent=4),
        span("quench.run_quench", 2.0, 9.0, parent=1),
        span("quench.evolve", 2.1, 9.0, parent=6),
        span("propagation.advance", 3.0, 4.0, parent=7),
        span("propagation.advance", 5.0, 8.0, parent=7),
        span("reporting.write_json", 9.5, 9.75, parent=1),
    ]
    counts = {"matvecs": 200, "samples": 3, "h_nnz": 10, "h_dim": 4,
              "h_value_bytes": 8, "h_index_bytes": 4, "bound_matrix_bytes": 2**21}
    m = derive.layer_metrics(spans, counts)
    assert m["cli.import_s"] == pytest.approx(0.5)
    assert m["bound_band.band_scan_s"] == pytest.approx(0.3)
    assert m["quench.prepare_wavepacket_s"] == pytest.approx(0.2)
    assert m["bound_band.bound_matrix_s"] == pytest.approx(0.7)
    assert m["bound_band.bound_matrix_mib"] == 2.0
    assert m["propagation.advance_s"] == pytest.approx(4.0)
    assert m["propagation.advance_ms_p50"] == pytest.approx(2000.0)
    assert m["propagation.us_per_matvec"] == pytest.approx(20000.0)
    # evolve's own time, propagation removed, is the observables
    assert m["quench.observables_s"] == pytest.approx(6.9 - 4.0)
    assert m["quench.observables_ms_per_sample"] == pytest.approx(1e3 * 2.9 / 3)
    assert m["reporting.write_s"] == pytest.approx(0.25)
    assert m["quench.sweep_point_s_max"] == 0.0
    # the solve span's own 0.1 s is not a layer's
    assert math.isclose(derive.solve_layer_sum(spans), 6.9)


def test_solve_layer_sum_takes_the_busiest_pool_worker():
    spans = [
        span("cli.main", 0.0, 10.0, pid=1),
        span("quench.sweep_transfer", 1.0, 9.0, parent=0, pid=1),
        span("quench.sweep_point", 1.5, 5.5, pid=2),
        span("propagation.advance", 2.0, 5.0, parent=2, pid=2),
        span("quench.sweep_point", 1.5, 8.5, pid=3),
    ]
    # workers were busy 4 s and 7 s in parallel: the solve waited 7 s for them
    assert derive.solve_layer_sum(spans) == pytest.approx(7.0)
    m = derive.layer_metrics(spans, {})
    assert m["quench.sweep_point_s_p50"] == pytest.approx(5.5)
    assert m["quench.sweep_point_s_max"] == pytest.approx(7.0)
    assert m["quench.hamiltonian_s"] == pytest.approx(1.0 + 7.0)
