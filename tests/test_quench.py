import concurrent.futures
import dataclasses
import functools
import gc
import os
import pickle
import weakref

import numpy as np
import pytest

from pairquench import (
    ChebyshevPropagator,
    IncompleteBandError,
    ModelParams,
    PropagationAccuracyError,
    QuenchWorkspace,
    SingularParameterError,
    WavePacketSpec,
    band_scan,
    build_basis,
    estimate_period,
    evolve,
    prepare_wavepacket,
    run_quench,
    solve_bound_states,
    sweep_transfer,
)
from pairquench import propagation, quench
from pairquench.model import separations
from pairquench.propagation import _power_weights

from oracles import SpectralPropagator, bound_state_realspace, dense_bound_weight, energy_distribution, stencil_product


@pytest.fixture(scope="module")
def small_workspace():
    params = ModelParams(15, kappa=1.0, u=-6.24, v=-6.24)
    packet = WavePacketSpec(center_momentum=-0.9 * np.pi, width=0.35, center_site=8)
    return QuenchWorkspace.prepare(params, packet)


@pytest.fixture(scope="module")
def small_band():
    return band_scan(1.0, -6.24, 15)


def spectral_quench(ws, field_value, times):
    """The exact reference of ``run_quench``: the same evolution on the dense spectrum."""
    return evolve(SpectralPropagator(ws.hamiltonian(field_value)), ws, times)


def test_packet_is_normalized_bound_superposition(ref_psi0, ref_bound):
    assert np.linalg.norm(ref_psi0) == pytest.approx(1.0, abs=1e-12)
    assert ref_bound.weights(ref_psi0) == pytest.approx(1.0, abs=1e-6)


def test_packet_is_tightly_bound(ref_basis, ref_psi0):
    assert separations(ref_basis) @ np.abs(ref_psi0) ** 2 < 1.0


def test_packet_sits_at_requested_site(ref_basis, ref_psi0):
    centers = (ref_basis.i + ref_basis.j) / 2
    weight = np.abs(ref_psi0) ** 2
    assert weight[np.abs(centers - 36) <= 12].sum() > 0.99


def test_packet_requires_complete_branch():
    band = band_scan(1.0, -5.0, 41)
    spec = WavePacketSpec(center_momentum=0.0, width=0.2, center_site=21)
    with pytest.raises(IncompleteBandError):
        prepare_wavepacket(spec, band, band.bound_matrix(build_basis(41)))


@pytest.mark.parametrize(
    "n_sites, interaction, width, center_site",
    [(15, -6.24, 0.35, 8), (111, -6.24, 0.2, 36), (201, -6.24, 0.2, 36), (15, -5.5, 0.35, 8)],
)
def test_packet_matches_per_state_sum(n_sites, interaction, width, center_site):
    band = band_scan(1.0, interaction, n_sites)
    basis = build_basis(n_sites)
    spec = WavePacketSpec(center_momentum=-0.9 * np.pi, width=width, center_site=center_site)
    weights = np.exp(-((band.momenta - spec.center_momentum) ** 2) / (2.0 * width**2))
    if interaction == -5.5:
        # three upper momenta are missing, where the packet weight is below the floor
        missing = np.array([s is None for s in band.select("+")])
        assert missing.sum() == 3
        assert 0.0 < weights[missing].max() < quench.WEIGHT_FLOOR * weights.max()
    reference = sum(
        w * np.exp(-1j * center_site * k) * bound_state_realspace(state, basis)
        for k, w, state in zip(band.momenta, weights, band.select("+"))
        if state is not None
    )
    reference /= np.linalg.norm(reference)
    psi = prepare_wavepacket(spec, band, band.bound_matrix(basis))
    assert np.max(np.abs(psi - reference)) < 1e-13


def test_packet_spec_validation():
    with pytest.raises(ValueError):
        WavePacketSpec(center_momentum=4.0, width=0.2, center_site=5)
    with pytest.raises(ValueError):
        WavePacketSpec(center_momentum=0.0, width=-0.1, center_site=5)
    with pytest.raises(ValueError):
        WavePacketSpec(center_momentum=0.0, width=0.2, center_site=5, branch="top")


def test_workspace_requires_equal_interactions():
    with pytest.raises(ValueError):
        QuenchWorkspace.prepare(
            ModelParams(15, kappa=1.0, u=-6.24, v=-3.0),
            WavePacketSpec(center_momentum=0.0, width=0.2, center_site=8),
        )


def test_transfer_rate_of_single_bound_state(ref_bound, ref_basis):
    state = solve_bound_states(2 * np.pi * 17 / 111, 1.0, -6.24)[1]
    psi = bound_state_realspace(state, ref_basis)
    assert ref_bound.weights(psi) == pytest.approx(1.0, abs=1e-6)


def test_transfer_rate_of_distant_unpaired_state(ref_bound, ref_basis):
    psi = np.zeros(ref_basis.dim, dtype=complex)
    psi[ref_basis.rank(1, 56)] = 1.0
    assert ref_bound.weights(psi) < 1e-3


def test_trajectory_invariants(small_workspace):
    times = np.arange(0.0, 40.5, 0.5)
    traj = spectral_quench(small_workspace, -0.21, times)
    assert np.max(np.abs(traj.norm - 1.0)) < 1e-8
    assert np.max(np.abs(traj.total_energy - traj.total_energy[0])) < 1e-8
    assert np.all(traj.transfer >= 0.0) and np.all(traj.transfer <= 1.0 + 1e-8)
    assert np.all(traj.distance >= 0.0) and np.all(traj.distance <= 14.0)
    # the first sample reproduces the initial observables exactly
    ws = small_workspace
    assert traj.transfer[0] == pytest.approx(ws.bound.weights(ws.psi0), abs=1e-12)
    assert traj.distance[0] == pytest.approx(separations(ws.basis) @ np.abs(ws.psi0) ** 2, abs=1e-12)
    assert traj.energy[0] == pytest.approx(np.vdot(ws.psi0, stencil_product(ws.h0, ws.psi0)).real, abs=1e-10)


def test_backends_agree_on_small_quench():
    # run_quench is the Chebyshev engine on its Collatz–Wielandt interval at every size, and
    # stays within 1e-12 of the exact dense spectrum on every observable, relative to
    # its largest magnitude above 1: roundoff of 300 windows moves a total energy of
    # -15 by up to 1.1e-12 at n = 43
    for n_sites, center_site, t_max in ((15, 8, 200.0), (43, 22, 300.0)):
        params = ModelParams(n_sites, kappa=1.0, u=-6.24, v=-6.24)
        packet = WavePacketSpec(center_momentum=-0.9 * np.pi, width=0.35, center_site=center_site)
        ws = QuenchWorkspace.prepare(params, packet)
        times = np.arange(0.0, t_max + 1.0)
        cheb = run_quench(ws, -0.21, times)
        exact = spectral_quench(ws, -0.21, times)
        for name in ("transfer", "distance", "energy", "norm", "total_energy"):
            want = getattr(exact, name)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(getattr(cheb, name) - want)) < 1e-12 * scale, (n_sites, name)
        assert np.linalg.norm(cheb.final_state - exact.final_state) < 1e-9


def test_ratio_interval_moves_a_quench_by_at_most_1e_11(small_workspace, monkeypatch):
    # the interval's ends as ratios of bound products, (L x)_i / x_i and (U x)_i / x_i,
    # round differently from the weighted row sums h_ii -+ sum_j |h_ij| x_j / x_i of the
    # dense matrix; no observable of a quench moves by more than 1e-11 * max(1, |v|)
    ws, times = small_workspace, np.arange(0.0, 201.0)
    h = ws.hamiltonian(-0.21)
    dense = h.toarray()
    diag = np.diag(dense)
    off = np.abs(dense - np.diag(diag))
    ones = np.ones(diag.size)
    lo, hi = np.min(diag - off @ ones), np.max(diag + off @ ones)
    lower, upper = h.bounding()
    below, above = _power_weights(lower.scaled(hi, -1.0)), _power_weights(upper.scaled(lo, 1.0))
    row_sums = max(lo, np.min(diag - off @ below / below)), min(hi, np.max(diag + off @ above / above))
    assert propagation.spectral_bounds(h)[:2] == pytest.approx(row_sums, abs=1e-13)
    ratio = run_quench(ws, -0.21, times)
    monkeypatch.setattr(propagation, "spectral_bounds", lambda h: (*row_sums, "row sums"))
    rows = run_quench(ws, -0.21, times)
    for name in ("transfer", "distance", "energy", "norm", "total_energy"):
        want = getattr(rows, name)
        assert np.all(np.abs(getattr(ratio, name) - want) <= 1e-11 * np.maximum(1.0, np.abs(want))), name


@pytest.mark.parametrize("backend", [SpectralPropagator, ChebyshevPropagator], ids=["spectral", "chebyshev"])
@pytest.mark.parametrize("samples", [1, 7, 8, 9, 17])
def test_blocked_transfer_matches_per_sample_projection(small_workspace, small_band, backend, samples):
    # evolve projects each block of samples at once; cover full and partial blocks
    ws = small_workspace
    times = np.arange(float(samples))
    h = ws.hamiltonian(-0.21)
    traj = evolve(backend(h), ws, times)
    states = np.vstack(list(backend(h).samples(ws.psi0, times)))
    single = [dense_bound_weight(psi, small_band, ws.basis) for psi in states]
    assert traj.transfer.shape == (samples,)
    assert np.max(np.abs(traj.transfer - single)) < 1e-14


def test_mixed_block_sizes_match_spectral_and_per_sample_projection(small_workspace, small_band):
    # short steps share a Chebyshev recursion, the step of 50 does not: blocks of 1, 2, 1, 2 rows
    ws = small_workspace
    times = np.array([0.0, 1.0, 2.0, 52.0, 53.0, 54.0])
    h = ws.hamiltonian(-0.21)
    blocks = list(ChebyshevPropagator(h).samples(ws.psi0, times))
    assert [len(block) for block in blocks] == [1, 2, 1, 2]
    cheb = run_quench(ws, -0.21, times)
    exact = spectral_quench(ws, -0.21, times)
    for name in ("transfer", "distance", "energy", "norm", "total_energy"):
        assert np.max(np.abs(getattr(cheb, name) - getattr(exact, name))) < 1e-9, name
    single = [dense_bound_weight(psi, small_band, ws.basis) for psi in np.vstack(blocks)]
    assert np.max(np.abs(cheb.transfer - single)) < 1e-14
    assert np.array_equal(cheb.final_state, blocks[-1][-1])


def test_energy_constant_after_field_release(small_workspace):
    times = np.arange(0.0, 30.0, 1.0)
    traj = spectral_quench(small_workspace, -0.21, times)
    released_ws = dataclasses.replace(small_workspace, psi0=traj.final_state)
    released = evolve(SpectralPropagator(small_workspace.h0), released_ws, np.arange(0.0, 20.0, 1.0))
    assert np.max(np.abs(released.energy - released.energy[0])) < 1e-8


def test_evolve_validates_time_grid(small_workspace):
    ws = small_workspace
    prop = ChebyshevPropagator(ws.hamiltonian(-0.2))
    for bad in ([], [1.0, 2.0], [0.0, 2.0, 1.0]):
        with pytest.raises(ValueError):
            evolve(prop, ws, bad)


def test_evolve_rejects_a_non_diagonal_quench(small_workspace):
    # the total energy adds only the diagonal of hamiltonian - h0
    ws = small_workspace
    with pytest.raises(ValueError, match="diagonal only"):
        evolve(ChebyshevPropagator(ws.h0.scaled(0.0, 2.0)), ws, [0.0, 1.0])


def test_energy_distribution_completeness(small_workspace):
    ws = small_workspace
    h = ws.hamiltonian(-0.2)
    energies, weights = energy_distribution(ws.psi0, h, mass=1.0)
    assert weights.sum() == pytest.approx(1.0, abs=1e-8)
    assert np.all(np.diff(energies) > 0)


def test_energy_distribution_minimal_set(small_workspace):
    ws = small_workspace
    h = ws.hamiltonian(-0.2)
    _, weights = energy_distribution(ws.psi0, h, mass=0.5)
    assert weights.sum() >= 0.5
    assert weights.sum() - weights.min() < 0.5
    with pytest.raises(ValueError):
        energy_distribution(ws.psi0, h, mass=0.0)


def test_estimate_period_synthetic_signal():
    step = 7.5e-5
    f_grid = -0.0995 + step * np.arange(61)
    series = np.sin(np.pi * f_grid / 0.0015) ** 2
    est = estimate_period(series, step)
    assert est.period == pytest.approx(0.0015, abs=step)
    assert est.uncertainty == step


def test_estimate_period_flat_series():
    est = estimate_period(np.ones(50), 0.1)
    assert est.period is None
    with pytest.raises(ValueError):
        estimate_period([1.0, 2.0], 0.1)


def test_small_sweep_is_deterministic_and_bounded(small_workspace):
    f_values = -0.20 + 0.01 * np.arange(5)
    serial = sweep_transfer(small_workspace, f_values, t_final=50.0, workers=1)
    parallel = sweep_transfer(small_workspace, f_values, t_final=50.0, workers=2)
    assert serial.failures == [] and parallel.failures == []
    assert np.array_equal(serial.transfer, parallel.transfer)
    assert np.all((serial.transfer >= 0.0) & (serial.transfer <= 1.0))
    assert serial.period.period is None  # five samples cannot support a peak
    with pytest.raises(ValueError):
        sweep_transfer(small_workspace, [0.0, -0.1], t_final=50.0)
    with pytest.raises(ValueError):
        sweep_transfer(small_workspace, f_values, t_final=-1.0)


#: the default 61-point sweep grid
DEFAULT_GRID = -0.0995 + 7.5e-5 * np.arange(61)


def periodic_point(field_value, failing=frozenset()):
    """A sweep point of period 0.0015 that fails at the ``failing`` indices of ``DEFAULT_GRID``."""
    if int(round((field_value - DEFAULT_GRID[0]) / 7.5e-5)) in failing:
        raise RuntimeError("synthetic failure")
    return 0.5 + 0.4 * np.cos(2.0 * np.pi * field_value / 0.0015)


def test_sweep_period_needs_every_grid_point(monkeypatch):
    # with every other point failing, the surviving points are two field steps apart;
    # the pool pickles the point function, so it is a module-level one
    f_values = DEFAULT_GRID
    monkeypatch.setattr(quench, "_sweep_point", periodic_point)
    assert sweep_transfer(None, f_values, t_final=1.0).period.period == pytest.approx(0.0015)
    monkeypatch.setattr(quench, "_sweep_point", functools.partial(periodic_point, failing=frozenset(range(1, 61, 2))))
    gapped = sweep_transfer(None, f_values, t_final=1.0)
    assert len(gapped.failures) == 30
    assert gapped.period.period is None


@pytest.fixture
def recording_pool(monkeypatch):
    """Pool sizes the sweep requests; a stub executor runs every point in this process."""
    requested = []

    class RecordingExecutor:
        def __init__(self, max_workers, initializer, initargs):
            requested.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(quench, "_WORKER_CTX", ())
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    return requested


def test_sweep_starts_at_most_one_worker_per_grid_point(small_workspace, recording_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    f_values = [-0.2, -0.19, -0.18]
    pooled = sweep_transfer(small_workspace, f_values, t_final=5.0, workers=5000)
    assert recording_pool == [3]
    serial = sweep_transfer(small_workspace, f_values, t_final=5.0, workers=1)
    assert np.array_equal(pooled.transfer, serial.transfer)
    sweep_transfer(small_workspace, [-0.2], t_final=5.0, workers=5000)
    assert recording_pool == [3, 1, 1]  # one grid point runs on one worker


@pytest.mark.parametrize("cpus, expected", [(3, [3]), (None, [1])], ids=["3-cpus", "unknown"])
def test_sweep_starts_at_most_one_worker_per_cpu(small_workspace, recording_pool, monkeypatch, cpus, expected):
    # an unknown CPU count counts as one CPU, so the sweep runs on one worker
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    f_values = -0.20 + 0.01 * np.arange(5)
    pooled = sweep_transfer(small_workspace, f_values, t_final=5.0, workers=100_000)
    assert recording_pool == expected
    serial = sweep_transfer(small_workspace, f_values, t_final=5.0, workers=1)
    assert np.array_equal(pooled.transfer, serial.transfer)


class StrictAtOneField(ChebyshevPropagator):
    """The sweep's propagator, with a tolerance it cannot reach for the Hamiltonian whose diagonal is ``failing``."""

    failing = np.empty(0)

    def __init__(self, h):
        super().__init__(h, tol=1e-20 if np.array_equal(h.diagonal(), self.failing) else 1e-12)


def test_sweep_failures_cross_the_pool_intact(small_workspace, monkeypatch):
    f_values = [-0.2, -0.19, -0.18, -0.17]
    monkeypatch.setattr(StrictAtOneField, "failing", small_workspace.hamiltonian(-0.18).diagonal())
    monkeypatch.setattr(quench, "ChebyshevPropagator", StrictAtOneField)
    serial = sweep_transfer(small_workspace, f_values, t_final=5.0, workers=1)
    pooled = sweep_transfer(small_workspace, f_values, t_final=5.0, workers=2)
    assert np.array_equal(serial.transfer, pooled.transfer, equal_nan=True)
    assert serial.failures == pooled.failures
    [(field_value, message)] = serial.failures
    assert field_value == -0.18 and message.startswith("Chebyshev series did not decay below tolerance (achieved ")
    assert np.isfinite(np.delete(serial.transfer, 2)).all()


@pytest.mark.parametrize("error", [PropagationAccuracyError, IncompleteBandError, SingularParameterError])
def test_errors_survive_a_pickle_round_trip(error):
    copy = pickle.loads(pickle.dumps(error("a message")))
    assert type(copy) is error and str(copy) == "a message"


def test_serial_sweep_keeps_no_reference_to_the_workspace():
    params = ModelParams(15, kappa=1.0, u=-6.24, v=-6.24)
    packet = WavePacketSpec(center_momentum=-0.9 * np.pi, width=0.35, center_site=8)
    workspace = QuenchWorkspace.prepare(params, packet)
    sweep_transfer(workspace, [-0.2, -0.19], t_final=5.0, workers=1)
    psi0 = weakref.ref(workspace.psi0)
    del workspace
    gc.collect()
    assert psi0() is None


@pytest.mark.parametrize("backend", [SpectralPropagator, ChebyshevPropagator], ids=["spectral", "chebyshev"])
@pytest.mark.parametrize("quenched", [True, False])
def test_total_energy_is_expectation_of_the_hamiltonian(small_workspace, backend, quenched):
    ws = small_workspace
    h = ws.hamiltonian(-0.21) if quenched else ws.h0
    times = np.arange(0.0, 12.0)
    traj = evolve(backend(h), ws, times)
    states = np.vstack(list(backend(h).samples(ws.psi0, times)))
    direct = [np.real(np.vdot(psi, stencil_product(h, psi))) for psi in states]
    assert np.max(np.abs(traj.total_energy - direct)) < 1e-12


def test_chebyshev_transfer_converges_in_tol():
    params = ModelParams(31, kappa=1.0, u=-6.24, v=-6.24)
    packet = WavePacketSpec(center_momentum=-0.9 * np.pi, width=0.35, center_site=10)
    ws = QuenchWorkspace.prepare(params, packet)
    times = np.arange(0.0, 101.0)
    h = ws.hamiltonian(-0.2)
    exact = spectral_quench(ws, -0.2, times).transfer
    errors = [
        np.max(np.abs(evolve(ChebyshevPropagator(h, tol=tol), ws, times).transfer - exact))
        for tol in (1e-6, 1e-9, 1e-12)
    ]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 1e-10
