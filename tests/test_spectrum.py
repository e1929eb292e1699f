import numpy as np
import pytest

from pairquench import ModelParams, build_basis, build_h0
from pairquench.spectrum import (
    SpectrumSlice,
    classify_levels,
    detect_avoided_crossings,
    spectrum_vs_field,
)

from oracles import free_scattering_state

THREE_SITE = ModelParams(3, kappa=0.4, u=-6.0, v=-6.0)


def test_slice_has_full_spectrum():
    slices = spectrum_vs_field([-3.0], THREE_SITE)
    assert len(slices) == 1
    assert slices[0].energies.shape == (6,)
    assert np.all(np.diff(slices[0].energies) >= 0)
    assert np.all((slices[0].correlations >= 0) & (slices[0].correlations <= 2))


def test_zero_hopping_levels_are_linear_with_integer_slopes():
    params = ModelParams(3, kappa=0.0, u=-6.0, v=-6.0)
    basis = build_basis(3)
    f_a, f_b = -4.0, -3.9
    slice_a, slice_b = spectrum_vs_field([f_a, f_b], params)
    # diagonal Hamiltonian: each configuration is an eigenstate with slope i+j
    for idx, (i, j) in enumerate(zip(basis.i, basis.j)):
        e_a = slice_a.energies[np.argmax(np.abs(slice_a.vectors[idx, :]))]
        e_b = slice_b.energies[np.argmax(np.abs(slice_b.vectors[idx, :]))]
        slope = (e_b - e_a) / (f_b - f_a)
        assert slope == pytest.approx(i + j, abs=1e-9)


def test_classify_pair_dominated_level():
    slc = spectrum_vs_field([-4.0], THREE_SITE)[0]
    labels = classify_levels(slc)
    assert labels[-1] == "correlated"  # topmost level at F=-4 is the site-1 pair
    assert labels[-2] == "uncorrelated"


def test_classify_extended_scattering_state():
    n = 12
    basis = build_basis(n)
    psi, energy = free_scattering_state(basis, 3, 7)
    params = ModelParams(n, kappa=1.0, u=0.0, v=0.0)
    # oracle state is an exact eigenstate of the free chain
    res = np.linalg.norm(build_h0(params, basis) @ psi - energy * psi)
    assert res < 1e-9
    rbar = float((basis.j - basis.i) @ np.abs(psi) ** 2)
    slc = SpectrumSlice(
        field=0.0,
        energies=np.array([energy]),
        correlations=np.array([rbar]),
        vectors=psi[:, np.newaxis],
    )
    assert classify_levels(slc) == ["uncorrelated"]
    assert 2.0 < rbar < n / 2


def test_single_avoided_crossing_of_top_levels():
    fields = np.arange(-5.0, -1.0 + 1e-9, 0.05)
    slices = spectrum_vs_field(fields, THREE_SITE)
    scan = detect_avoided_crossings(slices)
    assert scan.ambiguous == []
    assert scan.true_crossings == []

    top_pairs = []
    for event in scan.avoided:
        idx = int(np.argmin(np.abs(fields - event.f_center)))
        ids = scan.track_ids[idx]
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
    scan = detect_avoided_crossings(spectrum_vs_field(fields, params))
    assert len(scan.true_crossings) == 1
    event = scan.true_crossings[0]
    assert event.f_center == pytest.approx(-3.0, abs=1e-12)
    assert event.gap < 1e-12


def test_tracked_level_swaps_character_through_crossing():
    fields = np.arange(-4.0, -2.0 + 1e-9, 0.05)
    slices = spectrum_vs_field(fields, THREE_SITE)
    scan = detect_avoided_crossings(slices)
    first_ids, last_ids = scan.track_ids[0], scan.track_ids[-1]
    top_track = int(first_ids[np.argmax(slices[0].energies)])
    r_start = slices[0].correlations[list(first_ids).index(top_track)]
    r_end = slices[-1].correlations[list(last_ids).index(top_track)]
    assert abs(r_end - r_start) > 1.0


def test_windowed_scan_matches_dense():
    # large-dimension shift-invert path against the dense oracle
    params = ModelParams(65, kappa=1.0, u=-6.24, v=-6.24)
    window = (-14.0, -11.0)
    field = -0.12
    windowed = spectrum_vs_field([field], params, window, dense_limit=64)[0]
    dense = spectrum_vs_field([field], params, window)[0]
    assert windowed.energies.size == dense.energies.size > 0
    assert np.allclose(windowed.energies, dense.energies, atol=1e-8)
    assert np.allclose(windowed.correlations, dense.correlations, atol=1e-8)


def test_detection_needs_three_slices():
    with pytest.raises(ValueError):
        detect_avoided_crossings(spectrum_vs_field([-3.0, -2.9], THREE_SITE))
