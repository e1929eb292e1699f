"""Metric maths of the benchmark, free of any pairquench import.

A span is ``(name, start, end, parent, pid)``: ``parent`` is the index of the
enclosing span in the same list (``None`` for a root), times are seconds on
the system-wide monotonic clock, and ``pid`` tells the processes of a pool
apart.  Everything here is a pure function of spans, counts or samples, so
``test_derive.py`` checks it on synthetic data.
"""

from __future__ import annotations

import math
import statistics

#: percentiles a timing may be reported at, lowest first
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

#: bytes of one complex128 vector element
COMPLEX_BYTES = 16


def _rank(q: float, count: int) -> int:
    """1-based nearest rank of percentile ``q`` among ``count`` sorted samples."""
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {q}")
    # the tolerance keeps q * count / 100 = 990.0000000001 at rank 990
    return max(math.ceil(q * count / 100.0 - 1e-9), 1)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(q, len(ordered)) - 1]


def reportable_percentile(count: int, *, beyond: int = 10) -> float | None:
    """Highest ladder percentile with at least ``beyond`` samples above its rank, or None."""
    best = None
    for q in PERCENTILE_LADDER:
        if count - _rank(q, count) >= beyond:
            best = q
    return best


def timing_summary(values) -> dict[str, float]:
    """Sample count, median and the highest percentile with ten samples beyond it."""
    out = {"n": len(values), "p50": statistics.median(values)}
    q = reportable_percentile(len(values))
    if q is not None and q > 50.0:
        out[f"p{q:g}"] = percentile(values, q)
    return out


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of its interval its child spans cover."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def subtree(spans, root: int) -> list[int]:
    """Indices of ``root`` and every span nested below it."""
    below = {root}
    for index, span in enumerate(spans):
        if span[3] in below:
            below.add(index)
    return sorted(below)


def pool_speedup(serial_s: float, parallel_s: float) -> float:
    """Serial solve time over pooled solve time on the same grid."""
    if serial_s <= 0 or parallel_s <= 0:
        raise ValueError("solve times must be positive")
    return serial_s / parallel_s


def pool_efficiency(speedup: float, workers: int) -> float:
    """Speed-up per worker: 1.0 is perfect scaling."""
    if workers < 1:
        raise ValueError("a pool has at least one worker")
    return speedup / workers


def matvec_cost(nnz: int, dim: int, value_bytes: int, index_bytes: int) -> tuple[int, int]:
    """Computed bytes moved and flops of one real CSR matrix times complex vector.

    Bytes: every stored value and column index once, the row pointers, one
    read of the input vector and one write of the output vector.  Flops: a
    real-times-complex multiply-add per stored value (4 flops).  Both ignore
    caches and any dtype conversion the sparse library does on the way.
    """
    moved = nnz * (value_bytes + index_bytes) + (dim + 1) * index_bytes + 2 * dim * COMPLEX_BYTES
    return moved, 4 * nnz


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced CLI invocation, as named in BENCHMARK.json."""
    own = self_times(spans)
    by_name: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for span, self_s in zip(spans, own):
        by_name[span[0]] = by_name.get(span[0], 0.0) + self_s
        durations.setdefault(span[0], []).append(span[2] - span[1])

    def total(name: str) -> float:
        return by_name.get(name, 0.0)

    def median_of(name: str, scale: float = 1.0) -> float:
        values = durations.get(name)
        return scale * statistics.median(values) if values else 0.0

    matvecs = counts.get("matvecs", 0)
    samples = counts.get("samples", 0)
    nnz, dim = counts.get("h_nnz", 0), counts.get("h_dim", 0)
    moved, flops = (0, 0)
    if nnz:
        moved, flops = matvec_cost(nnz, dim, counts["h_value_bytes"], counts["h_index_bytes"])
    advance_s = total("propagation.advance")
    observables_s = total("quench.evolve")
    points = durations.get("quench.sweep_point", [])
    return {
        "cli.import_s": total("cli.import"),
        "reporting.write_s": sum(v for k, v in by_name.items() if k.startswith("reporting.")),
        "model.build_basis_s": total("model.build_basis"),
        "model.build_h0_s": total("model.build_h0"),
        "model.h_nnz": nnz,
        "bound_band.band_scan_s": total("bound_band.band_scan"),
        "bound_band.bound_matrix_s": total("bound_band.bound_matrix"),
        "bound_band.bound_matrix_mib": counts.get("bound_matrix_bytes", 0) / 2**20,
        "quench.prepare_wavepacket_s": total("quench.prepare_wavepacket"),
        # the sweep path assembles H inside its grid-point function, so a
        # sweep point's own time (H plus one projection) is counted here
        "quench.hamiltonian_s": total("quench.hamiltonian") + total("quench.sweep_point"),
        "propagation.init_s": total("propagation.init"),
        "propagation.bounds_s": total("propagation.spectral_bounds"),
        "propagation.advance_s": advance_s,
        "propagation.matvecs": matvecs,
        "propagation.us_per_matvec": 1e6 * advance_s / matvecs if matvecs else 0.0,
        "propagation.advance_ms_p50": median_of("propagation.advance", 1e3),
        "propagation.matvec_bytes_computed": moved,
        "propagation.matvec_flops_computed": flops,
        "quench.observables_s": observables_s,
        "quench.observables_ms_per_sample": 1e3 * observables_s / samples if samples else 0.0,
        "quench.sweep_point_s_p50": statistics.median(points) if points else 0.0,
        "quench.sweep_point_s_max": max(points, default=0.0),
    }


def solve_layer_sum(spans) -> float:
    """Time of the solve span covered by layer spans.

    In the process that runs the solve: the self times of every span below
    the solve span.  Pool workers run in parallel, so of their spans only the
    busiest worker's total counts, as that worker bounds the solve.
    """
    own = self_times(spans)
    main_pid = spans[0][4]
    inside = 0.0
    busy: dict[int, float] = {}
    for index, span in enumerate(spans):
        if span[4] != main_pid:
            busy[span[4]] = busy.get(span[4], 0.0) + own[index]
        elif span[0] in ("quench.run_quench", "quench.sweep_transfer"):
            inside += sum(own[i] for i in subtree(spans, index) if i != index)
    return inside + max(busy.values(), default=0.0)
