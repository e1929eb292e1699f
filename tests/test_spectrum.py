import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from pairquench import ModelParams, build_basis, build_h0, spectrum
from pairquench.model import build_stark
from pairquench.spectrum import (
    SpectrumSlice,
    classify_levels,
    detect_avoided_crossings,
    spectrum_vs_field,
)

from oracles import free_scattering_state, loop_avoided_crossings, stencil_product

THREE_SITE = ModelParams(3, kappa=0.4, u=-6.0, v=-6.0)


def test_slice_has_full_spectrum():
    slices = spectrum_vs_field([-3.0], THREE_SITE, None)
    assert len(slices) == 1
    assert slices[0].energies.shape == (6,)
    assert np.all(np.diff(slices[0].energies) >= 0)
    assert np.all((slices[0].correlations >= 0) & (slices[0].correlations <= 2))


def test_zero_hopping_levels_are_linear_with_integer_slopes():
    params = ModelParams(3, kappa=0.0, u=-6.0, v=-6.0)
    basis = build_basis(3)
    f_a, f_b = -4.0, -3.9
    slice_a, slice_b = spectrum_vs_field([f_a, f_b], params, None)
    # diagonal Hamiltonian: each configuration (i, j) is an eigenstate with
    # slope i + j and separation j - i, which identify it
    found = []
    for level_id, e_a, rbar in zip(slice_a.level_ids, slice_a.energies, slice_a.correlations):
        e_b = slice_b.energies[list(slice_b.level_ids).index(level_id)]
        slope = (e_b - e_a) / (f_b - f_a)
        assert slope == pytest.approx(round(slope), abs=1e-9)
        assert rbar == pytest.approx(round(rbar), abs=1e-12)
        found.append((round(slope), round(rbar)))
    assert sorted(found) == sorted(zip((basis.i + basis.j).tolist(), (basis.j - basis.i).tolist()))


def test_classify_pair_dominated_level():
    slc = spectrum_vs_field([-4.0], THREE_SITE, None)[0]
    labels = classify_levels(slc, 1.0)
    assert labels[-1] == "correlated"  # topmost level at F=-4 is the site-1 pair
    assert labels[-2] == "uncorrelated"


def test_classify_extended_scattering_state():
    n = 12
    basis = build_basis(n)
    psi, energy = free_scattering_state(basis, 3, 7)
    params = ModelParams(n, kappa=1.0, u=0.0, v=0.0)
    # oracle state is an exact eigenstate of the free chain
    res = np.linalg.norm(stencil_product(build_h0(params, basis), psi) - energy * psi)
    assert res < 1e-9
    rbar = float((basis.j - basis.i) @ np.abs(psi) ** 2)
    slc = SpectrumSlice(
        field=0.0,
        energies=np.array([energy]),
        correlations=np.array([rbar]),
        level_ids=np.array([0]),
        ambiguous=(),
    )
    assert classify_levels(slc, 1.0) == ["uncorrelated"]
    assert 2.0 < rbar < n / 2


def test_single_avoided_crossing_of_top_levels():
    fields = np.arange(-5.0, -1.0 + 1e-9, 0.05)
    slices = spectrum_vs_field(fields, THREE_SITE, None)
    scan = detect_avoided_crossings(slices, r_threshold=1.0)
    assert scan.ambiguous == []
    assert scan.true_crossings == []

    top_pairs = []
    for event in scan.avoided:
        idx = int(np.argmin(np.abs(fields - event.f_center)))
        ids = slices[idx].level_ids
        order = np.argsort(slices[idx].energies)
        top_two = {int(ids[order[-1]]), int(ids[order[-2]])}
        if set(event.level_pair) == top_two:
            top_pairs.append(event)
    assert len(top_pairs) == 1
    event = top_pairs[0]
    assert event.f_center == pytest.approx(-3.0, abs=0.2)
    assert event.gap == pytest.approx(0.1462, abs=0.01)
    assert sorted(event.classification) == ["correlated", "uncorrelated"]


def test_zero_hopping_exact_crossing_reported():
    params = ModelParams(3, kappa=0.0, u=-6.0, v=-6.0)
    fields = np.arange(-3.5, -2.5 + 1e-9, 0.05)
    scan = detect_avoided_crossings(spectrum_vs_field(fields, params, None), r_threshold=1.0)
    assert len(scan.true_crossings) == 1
    event = scan.true_crossings[0]
    assert event.f_center == pytest.approx(-3.0, abs=1e-12)
    assert event.gap < 1e-12


def test_tracked_level_swaps_character_through_crossing():
    fields = np.arange(-4.0, -2.0 + 1e-9, 0.05)
    slices = spectrum_vs_field(fields, THREE_SITE, None)
    first_ids, last_ids = slices[0].level_ids, slices[-1].level_ids
    top_track = int(first_ids[np.argmax(slices[0].energies)])
    r_start = slices[0].correlations[list(first_ids).index(top_track)]
    r_end = slices[-1].correlations[list(last_ids).index(top_track)]
    assert abs(r_end - r_start) > 1.0


def test_windowed_scan_matches_dense(monkeypatch):
    # large-dimension shift-invert path against the dense oracle
    params = ModelParams(65, kappa=1.0, u=-6.24, v=-6.24)
    window = (-14.0, -11.0)
    field = -0.12
    dense = spectrum_vs_field([field], params, window)[0]
    monkeypatch.setattr(spectrum, "MAX_DENSE_STATES", 64)
    windowed = spectrum_vs_field([field], params, window)[0]
    assert windowed.energies.size == dense.energies.size > 0
    assert np.allclose(windowed.energies, dense.energies, atol=1e-8)
    assert np.allclose(windowed.correlations, dense.correlations, atol=1e-8)


@pytest.mark.parametrize("ends", [(-1.0, 2.0), (-48.0, -47.0)], ids=["lowest-levels", "below-spectrum"])
def test_window_at_a_spectral_end_takes_one_shift_invert_solve(monkeypatch, ends):
    # a window at an end of the spectrum never has levels on both sides of it, so
    # k doubled to dim - 2 (8 solves at n = 65, 100 s per field)
    params = ModelParams(20, kappa=0.4, u=-6.0, v=-6.0)
    basis = build_basis(params.n_sites)
    levels = np.linalg.eigvalsh(build_h0(params, basis).add_diagonal(build_stark(-1.0, basis)).toarray())
    window = (levels[0] + ends[0], levels[0] + ends[1])
    solves = []

    def recorded(*args, **kwargs):
        solves.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spectrum, "MAX_DENSE_STATES", 64)
    monkeypatch.setattr(spectrum, "eigsh", recorded)
    windowed = spectrum_vs_field([-1.0], params, window)[0]
    assert solves == [spectrum.K_START]
    inside = levels[(levels >= window[0]) & (levels <= window[1])]
    assert windowed.energies.size == inside.size
    assert np.allclose(windowed.energies, inside, rtol=0.0, atol=1e-9)


# unwindowed scans, one with 30 true crossings at kappa = 0, and windowed scans whose
# levels come and go, one with 10 ambiguous tracking steps
@pytest.mark.parametrize(
    "params, fields, window",
    [
        (ModelParams(4, kappa=0.5, u=-4.0, v=-1.0), np.linspace(-6.0, -0.5, 121), None),
        (ModelParams(6, kappa=0.3, u=-6.0, v=-6.0), np.linspace(-5.0, -1.0, 41), (-20.0, -5.0)),
        (ModelParams(5, kappa=0.0, u=-6.0, v=-6.0), np.linspace(-5.0, -1.0, 21), None),
        (ModelParams(7, kappa=0.8, u=3.0, v=1.0), np.linspace(-3.0, 3.0, 61), (-2.0, 2.0)),
    ],
    ids=["n4", "n6-window", "n5-kappa0", "n7-ambiguous"],
)
def test_detection_matches_the_per_slice_loop(params, fields, window):
    slices = spectrum_vs_field(fields, params, window)
    for r_threshold in (1.0, 2.5):
        scan = detect_avoided_crossings(slices, r_threshold=r_threshold)
        assert scan == loop_avoided_crossings(slices, r_threshold)
    assert scan.avoided


def test_detection_needs_three_slices():
    with pytest.raises(ValueError):
        detect_avoided_crossings(spectrum_vs_field([-3.0, -2.9], THREE_SITE, None), r_threshold=1.0)


def test_unwindowed_scan_keeps_two_slices_of_eigenvectors():
    # levels are tracked while the grid is solved, so more fields add only
    # their eigenvalues, not one dim x dim eigenvector matrix each
    params = ModelParams(24, kappa=1.0, u=-6.24, v=-6.24)
    dim = build_basis(params.n_sites).dim
    peaks = {}
    for f_count in (3, 21):
        tracemalloc.start()
        try:
            spectrum_vs_field(np.linspace(-0.3, -0.1, f_count), params, None)
            peaks[f_count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the eigenvalues, correlations and ids of 18 more fields are about a fifth of one matrix
    matrix = dim * dim * 8
    assert peaks[21] < peaks[3] + matrix / 2, (peaks, matrix)
