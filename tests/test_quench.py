import concurrent.futures
import gc
import os
import weakref

import numpy as np
import pytest

from pairquench import (
    ChebyshevPropagator,
    IncompleteBandError,
    ModelParams,
    QuenchWorkspace,
    SpectralPropagator,
    WavePacketSpec,
    band_scan,
    build_basis,
    estimate_period,
    evolve,
    prepare_wavepacket,
    run_quench,
    solve_bound_states,
    sweep_transfer,
    transfer_rate,
)
from pairquench import quench
from pairquench.model import separations

from oracles import bound_state_realspace, dense_bound_weight, energy_distribution


@pytest.fixture(scope="module")
def small_workspace():
    params = ModelParams(15, kappa=1.0, u=-6.24, v=-6.24)
    packet = WavePacketSpec(center_momentum=-0.9 * np.pi, width=0.35, center_site=8)
    return QuenchWorkspace.prepare(params, packet)


@pytest.fixture(scope="module")
def small_band():
    return band_scan(1.0, -6.24, 15)


def evolve_workspace(ws, propagator, times):
    """``evolve`` of the workspace packet under ``propagator``."""
    return evolve(propagator, ws.psi0, times, h0=ws.h0, bound=ws.bound, basis=ws.basis)


def spectral_quench(ws, field_value, times):
    """The exact reference of ``run_quench``: the same evolution on the dense spectrum."""
    return evolve_workspace(ws, SpectralPropagator(ws.hamiltonian(field_value)), times)


def test_packet_is_normalized_bound_superposition(ref_psi0, ref_bound):
    assert np.linalg.norm(ref_psi0) == pytest.approx(1.0, abs=1e-12)
    assert transfer_rate(ref_psi0, ref_bound) == pytest.approx(1.0, abs=1e-6)


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
    assert transfer_rate(psi, ref_bound) == pytest.approx(1.0, abs=1e-6)


def test_transfer_rate_of_distant_unpaired_state(ref_bound, ref_basis):
    psi = ref_basis.unit_state(1, 56)
    assert transfer_rate(psi, ref_bound) < 1e-3


def test_trajectory_invariants(small_workspace):
    times = np.arange(0.0, 40.5, 0.5)
    traj = spectral_quench(small_workspace, -0.21, times)
    assert np.max(np.abs(traj.norm - 1.0)) < 1e-8
    assert np.max(np.abs(traj.total_energy - traj.total_energy[0])) < 1e-8
    assert np.all(traj.transfer >= 0.0) and np.all(traj.transfer <= 1.0 + 1e-8)
    assert np.all(traj.distance >= 0.0) and np.all(traj.distance <= 14.0)
    # the first sample reproduces the initial observables exactly
    ws = small_workspace
    assert traj.transfer[0] == pytest.approx(transfer_rate(ws.psi0, ws.bound), abs=1e-12)
    assert traj.distance[0] == pytest.approx(separations(ws.basis) @ np.abs(ws.psi0) ** 2, abs=1e-12)
    assert traj.energy[0] == pytest.approx(np.vdot(ws.psi0, ws.h0 @ ws.psi0).real, abs=1e-10)


def test_backends_agree_on_small_quench():
    # run_quench is the Chebyshev engine on the Gershgorin interval at every size, and
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


@pytest.mark.parametrize("backend", [SpectralPropagator, ChebyshevPropagator], ids=["spectral", "chebyshev"])
@pytest.mark.parametrize("samples", [1, 7, 8, 9, 17])
def test_blocked_transfer_matches_per_sample_projection(small_workspace, small_band, backend, samples):
    # evolve projects each block of samples at once; cover full and partial blocks
    ws = small_workspace
    times = np.arange(float(samples))
    h = ws.hamiltonian(-0.21)
    traj = evolve_workspace(ws, backend(h), times)
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
    released = evolve(
        SpectralPropagator(small_workspace.h0),
        traj.final_state,
        np.arange(0.0, 20.0, 1.0),
        h0=small_workspace.h0,
        bound=small_workspace.bound,
        basis=small_workspace.basis,
    )
    assert np.max(np.abs(released.energy - released.energy[0])) < 1e-8


def test_evolve_validates_time_grid(small_workspace):
    ws = small_workspace
    prop = ChebyshevPropagator(ws.hamiltonian(-0.2))
    for bad in ([], [1.0, 2.0], [0.0, 2.0, 1.0]):
        with pytest.raises(ValueError):
            evolve_workspace(ws, prop, bad)


def test_evolve_rejects_a_non_diagonal_quench(small_workspace):
    # the total energy adds only the diagonal of hamiltonian - h0
    ws = small_workspace
    with pytest.raises(ValueError, match="diagonal only"):
        evolve_workspace(ws, ChebyshevPropagator(ws.h0.scaled(0.0, 2.0)), [0.0, 1.0])


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
    assert recording_pool == [3]  # one grid point runs serially


@pytest.mark.parametrize("cpus, expected", [(3, [3]), (None, [])], ids=["3-cpus", "unknown"])
def test_sweep_starts_at_most_one_worker_per_cpu(small_workspace, recording_pool, monkeypatch, cpus, expected):
    # an unknown CPU count counts as one CPU, so the sweep runs serially
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    f_values = -0.20 + 0.01 * np.arange(5)
    pooled = sweep_transfer(small_workspace, f_values, t_final=5.0, workers=100_000)
    assert recording_pool == expected
    serial = sweep_transfer(small_workspace, f_values, t_final=5.0, workers=1)
    assert np.array_equal(pooled.transfer, serial.transfer)


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
    traj = evolve_workspace(ws, backend(h), times)
    states = np.vstack(list(backend(h).samples(ws.psi0, times)))
    direct = [np.real(np.vdot(psi, h @ psi)) for psi in states]
    assert np.max(np.abs(traj.total_energy - direct)) < 1e-12


def test_chebyshev_transfer_converges_in_tol():
    params = ModelParams(31, kappa=1.0, u=-6.24, v=-6.24)
    packet = WavePacketSpec(center_momentum=-0.9 * np.pi, width=0.35, center_site=10)
    ws = QuenchWorkspace.prepare(params, packet)
    times = np.arange(0.0, 101.0)
    h = ws.hamiltonian(-0.2)
    exact = spectral_quench(ws, -0.2, times).transfer
    errors = [
        np.max(np.abs(evolve_workspace(ws, ChebyshevPropagator(h, tol=tol), times).transfer - exact))
        for tol in (1e-6, 1e-9, 1e-12)
    ]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 1e-10
