import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import lambertw

from pairquench import (
    ModelParams,
    band_scan,
    build_basis,
    build_h0,
    momentum_grid,
    solve_bound_states,
)
from pairquench.bound_band import _decay_roots, decay_cutoff
from pairquench.reporting import write_band_csv

from oracles import (
    all_states,
    bound_columns,
    bound_state_realspace,
    build_heq,
    chain_checked_roots,
    chain_isolated_energies,
    dense_bound_weight,
    dense_superpose,
    eigen_decay_roots,
    loop_bound_state_realspace,
)


def test_momentum_grid_excludes_zone_edge():
    grid = momentum_grid(5)
    assert np.allclose(grid, 2 * np.pi * np.array([-2, -1, 0, 1, 2]) / 5)
    with pytest.raises(ValueError):
        momentum_grid(6)


def test_closed_form_decay_roots_match_the_eigenvalue_oracle():
    # a dense grid of reduced interactions, the branch threshold |u| = 3 (a root at |y| = 1)
    # and the points next to it, the double roots at |u| 0.2381 and 2.9696 (both at |y| > 1),
    # and the large |u| of sectors next to K = pi, where two roots lie near -1/u
    threshold = [3.0, 3.0 - 1e-9, 3.0 + 1e-9, 3.0 - 1e-12, 3.0 + 1e-12, 2.9696, 0.2381, 0.0]
    grid = np.concatenate([np.linspace(0.0, 40.0, 8_001), np.geomspace(1e-6, 1e5, 1_001), threshold])
    counts = set()
    for u in np.concatenate([grid, -grid]):
        closed, oracle = _decay_roots(u), eigen_decay_roots(u)
        assert len(closed) == len(oracle), u
        assert all(abs(a - b) <= 1e-14 for a, b in zip(closed, oracle)), u
        counts.add(len(closed))
    assert counts == {0, 1, 2}
    # the upper branch appears past the threshold: one root at u = -3 (the other at y = 1), two beyond
    assert len(_decay_roots(-3.0)) == 1 and len(_decay_roots(-3.0 - 1e-9)) == 2


def test_momentum_sector_relations():
    # J_K = 2 kappa cos(K/2) and u = U / J_K on every solution of the sector
    states = solve_bound_states(0.4 * np.pi, 1.0, -6.24)
    assert states
    for state in states:
        assert state.hop == pytest.approx(2.0 * np.cos(0.2 * np.pi), abs=1e-12)
        assert state.reduced_u * state.hop == pytest.approx(-6.24, abs=1e-12)


def test_heq_small_chain_matrix():
    # kappa and momentum chosen so the sector hopping is exactly 1
    h = build_heq(0.0, kappa=0.5, interaction=0.0, length=2).toarray()
    root2 = np.sqrt(2.0)
    assert np.allclose(h, [[0, -root2, 0], [-root2, 0, -1], [0, -1, 0]], atol=1e-14)
    assert np.allclose(np.linalg.eigvalsh(h), [-np.sqrt(3), 0.0, np.sqrt(3)], atol=1e-12)


def test_heq_interaction_sites():
    h = build_heq(0.0, kappa=1.0, interaction=-6.24, length=50).toarray()
    assert h[0, 0] == pytest.approx(-6.24)
    assert h[1, 1] == pytest.approx(-6.24)
    assert h[2, 2] == 0.0
    assert np.max(np.abs(h - h.T)) == 0.0


def test_band_center_energies_match_chain():
    states = solve_bound_states(0.0, kappa=1.0, interaction=-6.24)
    assert [s.branch for s in states] == ["-", "+"]
    reference = chain_isolated_energies(2.0, -6.24, 400)
    assert len(states) == len(reference) == 2
    for s, ref in zip(states, np.sort(reference)):
        assert abs(s.energy - ref) < 1e-8
    # frozen values from the truncated-chain diagonalization
    assert states[0].energy == pytest.approx(-9.3033886137, abs=1e-9)
    assert states[1].energy == pytest.approx(-4.1003719372, abs=1e-9)


def test_no_bound_states_for_free_particles():
    assert solve_bound_states(0.1, kappa=1.0, interaction=0.0) == []


def test_flat_sector_is_empty():
    assert solve_bound_states(np.pi, kappa=1.0, interaction=-6.24) == []


def test_deep_binding_asymptotics():
    # strongly reduced sector: the two levels straddle the interaction energy
    # symmetrically, mean shifted by J^2/(2U), split by 2*sqrt(2)*J
    momentum = 2.0 * np.pi * 54 / 111
    states = solve_bound_states(momentum, kappa=1.0, interaction=-6.24)
    assert len(states) == 2
    hop = states[0].hop
    assert abs(states[0].reduced_u) > 50
    reference = np.sort(chain_isolated_energies(hop, -6.24, 400))
    for s, ref in zip(states, reference):
        assert abs(s.energy - ref) < 1e-8
    mean = 0.5 * (states[0].energy + states[1].energy)
    assert abs(mean - (-6.24 + hop**2 / (2 * -6.24))) < hop**2 / (10 * 6.24)
    split = states[1].energy - states[0].energy
    assert abs(split - 2.0 * np.sqrt(2.0) * hop) < 0.01 * hop


def test_cubic_residual_and_band_gap():
    for group in band_scan(1.0, -6.24, 111).states:
        for s in group:
            # the decay-ratio cubic, scaled by its largest monomial (the raw value at
            # large exp(beta) is dominated by round-off of huge terms)
            u, y = s.reduced_u, s.decay_ratio
            terms = np.array([u * y**3, (u * u - 1.0) * y**2, 2.0 * u * y, 1.0])
            assert abs(terms.sum()) / np.max(np.abs(terms)) < 1e-10
            assert s.beta > 0
            assert abs(s.energy) > 2.0 * abs(s.hop)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=55))
def test_momentum_reflection_symmetry(m):
    k = 2.0 * np.pi * m / 111
    plus = solve_bound_states(k, 1.0, -6.24)
    minus = solve_bound_states(-k, 1.0, -6.24)
    assert len(plus) == len(minus)
    for a, b in zip(plus, minus):
        assert a.beta == pytest.approx(b.beta, abs=1e-12)
        assert a.energy == pytest.approx(b.energy, abs=1e-12)


def test_truncation_convergence():
    for m in (0, 20, 40):
        k = 2.0 * np.pi * m / 111
        hop = 2.0 * np.cos(k / 2.0)
        short = np.sort(chain_isolated_energies(hop, -6.24, 200))
        long = np.sort(chain_isolated_energies(hop, -6.24, 400))
        assert short.shape == long.shape
        assert np.max(np.abs(short - long)) < 1e-10


# the truncated-chain check drops exactly these roots on the grid below:
# (U, m) with K = 2 pi m / 201, two slow roots per |U| = 6
CHAIN_DROPPED = {(u, m) for u in (-6.0, 6.0) for m in (-2, -1, 1, 2)}


def test_decay_cutoff_reproduces_chain_check():
    # 125 interactions times the 201-site grid: 25,125 sectors
    interactions = np.linspace(-12.0, 12.0, 125)
    momenta = momentum_grid(201)
    cutoff = decay_cutoff(400, 1e-6)
    dropped, kept = {}, []
    for u in interactions:
        for m, k in enumerate(momenta, start=-100):
            matched, unmatched = chain_checked_roots(k, 1.0, u)
            states = solve_bound_states(k, 1.0, u)
            assert sorted((s.beta, s.energy) for s in states) == matched
            if unmatched:
                dropped[(round(float(u), 9), m)] = unmatched
            kept.extend(beta for beta, _ in matched)
    assert set(dropped) == CHAIN_DROPPED
    slowest_dropped = max(beta for roots in dropped.values() for beta, _ in roots)
    assert slowest_dropped < cutoff < min(kept)
    assert 0.00435 < cutoff < 0.00965


def test_decay_cutoff_limits():
    sites = 401
    beta = decay_cutoff(400, 1e-6)
    assert beta == pytest.approx(0.0063305, rel=1e-4)
    # the cutoff solves 4 beta^2 exp(-2 beta M) = match_tol on the falling side
    assert 4.0 * beta**2 * np.exp(-2.0 * beta * sites) == pytest.approx(1e-6, rel=1e-9)
    assert beta > 1.0 / sites
    # a looser tolerance or a longer chain keeps slower roots
    assert decay_cutoff(400, 1e-4) < beta
    assert decay_cutoff(800, 1e-6) < beta
    # no root of the shift equation: only the existence bound beta > 1/M is left
    assert decay_cutoff(400, 1e-3) == 1.0 / sites


@pytest.mark.parametrize("chain_length", [10, 100, 400, 800, 5000])
def test_decay_cutoff_matches_lambert_w(chain_length):
    # the Newton solve against scipy's lower Lambert-W branch; the grid holds
    # tolerances on both sides of the 1/M branch
    sites = chain_length + 1
    branches = set()
    for match_tol in 10.0 ** -np.arange(1.0, 17.0):
        scale = 0.5 * sites * np.sqrt(match_tol)
        branches.add(bool(scale >= np.exp(-1.0)))
        want = 1.0 / sites if scale >= np.exp(-1.0) else -lambertw(-scale, k=-1).real / sites
        assert decay_cutoff(chain_length, match_tol) == pytest.approx(want, rel=1e-14, abs=0.0)
    assert branches == {True, False}


def test_truncation_shift_matches_leading_order():
    # the chain level of a slow root sits 4 |J| beta^2 exp(-2 beta M) away
    # from the semi-infinite energy, the estimate behind decay_cutoff
    sites = 401
    checked = 0
    for u in (-6.0, 6.0, -6.1, 5.9):
        for k in momentum_grid(201):
            hop = 2.0 * np.cos(k / 2.0)
            for s in solve_bound_states(k, 1.0, u):
                shift = 4.0 * abs(hop) * s.beta**2 * np.exp(-2.0 * s.beta * sites)
                if shift < 1e-9:
                    continue
                levels = chain_isolated_energies(hop, u, 400)
                measured = np.min(np.abs(levels - s.energy))
                assert 0.8 < measured / shift < 1.25
                checked += 1
    assert checked == 10


def test_realspace_reconstruction(ref_basis, ref_h0_ring):
    states = solve_bound_states(2.0 * np.pi * (-50) / 111, 1.0, -6.24)
    vecs = [bound_state_realspace(s, ref_basis) for s in states]
    for s, v in zip(states, vecs):
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(ref_h0_ring @ v - s.energy * v) < 1e-6
    assert abs(np.vdot(vecs[0], vecs[1])) < 1e-6


def test_bound_matrix_matches_loop_reference(ref_band, ref_basis):
    columns = 0
    for state, column in bound_columns(ref_band, ref_basis):
        assert np.max(np.abs(column - loop_bound_state_realspace(state, 111))) <= 1e-15
        columns += 1
    assert columns == len(all_states(ref_band)) == 222


@pytest.mark.parametrize(
    "n_sites, interaction",
    # at n = 3, 5 and 7 every row of the folded grid but row 0 holds a wrapped pair
    [(3, -6.24), (5, -6.24), (7, -6.24), (15, -6.24), (15, -5.5), (111, -6.24), (201, -6.24)],
)
def test_projection_matches_dense_oracle(n_sites, interaction):
    band = band_scan(1.0, interaction, n_sites)
    basis = build_basis(n_sites)
    if interaction == -5.5:
        assert band.select("+").count(None) == 3  # the table keeps zero columns there
    bound = band.bound_matrix(basis)
    assert bound.table.shape == (n_sites, (n_sites + 1) // 2, 2)
    rng = np.random.default_rng(n_sites)
    block = rng.standard_normal((8, basis.dim)) + 1j * rng.standard_normal((8, basis.dim))
    block /= np.linalg.norm(block, axis=1)[:, np.newaxis]
    # rows with weight of order one: bound states, a superposition of two of them,
    # and pairs at the chain ends, which are neighbours on the ring (wrapped separations)
    states = all_states(band)
    block[0] = bound_state_realspace(states[0], basis)
    block[1] = bound_state_realspace(states[-1], basis)
    block[2] = (block[0] + 1j * bound_state_realspace(states[len(states) // 2], basis)) / np.sqrt(2)
    block[3:5] = 0.0
    block[3, basis.rank(1, n_sites)] = block[4, basis.rank(2, n_sites)] = 1.0
    # and the adjoint: every bound state superposed with random coefficients
    coef = rng.standard_normal((n_sites, 2)) + 1j * rng.standard_normal((n_sites, 2))
    coef /= np.linalg.norm(coef)
    block[5] = bound.superpose(coef)
    assert np.max(np.abs(block[5] - dense_superpose(coef, band, basis))) < 1e-13
    reference = dense_bound_weight(block, band, basis)
    if n_sites >= 7:  # on smaller rings the bound states overlap, by up to 0.098 at n = 3
        assert reference[0] == pytest.approx(1.0, abs=1e-12)
    assert reference[3] > 0.1
    assert np.max(np.abs(bound.weights(block) - reference)) < 1e-14
    for row, expected in zip(block[[0, 3, 5]], reference[[0, 3, 5]]):
        assert bound.weights(row[np.newaxis]).shape == (1,)  # a block of one
        assert abs(bound.weights(row[np.newaxis])[0] - expected) < 1e-14
    # the same overlaps gathered straight from the packed layout S psi, 1 / S in the table
    h = build_h0(ModelParams(n_sites, 1.0, interaction, interaction), basis)
    packed = bound.on_layout(h)
    assert np.max(np.abs(packed.weights(h.pack(block)) - reference)) < 1e-14
    assert abs(packed.weights(h.pack(block[:1]))[0] - reference[0]) < 1e-14


def test_projection_rejects_mismatched_basis():
    with pytest.raises(ValueError):
        band_scan(1.0, -6.24, 15).bound_matrix(build_basis(17))


def test_realspace_rejects_off_grid_momentum():
    state = solve_bound_states(momentum_grid(111)[3], 1.0, -6.24)[0]
    with pytest.raises(ValueError):
        bound_state_realspace(state, build_basis(109))


def test_completeness_threshold():
    complete = band_scan(1.0, -6.24, 111)
    assert None not in complete.select("-")
    assert None not in complete.select("+")

    partial = band_scan(1.0, -5.0, 111)
    assert None not in partial.select("-")
    assert None in partial.select("+")
    # the upper branch disappears around the band center
    missing = [k for k, state in zip(partial.momenta, partial.select("+")) if state is None]
    assert np.max(np.abs(missing)) < 1.3


def test_strong_coupling_band_detached():
    band = band_scan(0.4, -6.0, 111)
    assert None not in band.select("-") + band.select("+")
    # the scattering continuum of sector K spans [-2 |J_K|, 2 |J_K|]
    margin = min(abs(s.energy) - 2.0 * abs(s.hop) for s in all_states(band))
    assert margin > 0


def test_band_csv_columns(tmp_path):
    band = band_scan(1.0, -6.24, 11)
    path = tmp_path / "band.csv"
    write_band_csv(path, band)
    lines = path.read_text().splitlines()
    assert lines[0] == "K,branch,beta,energy"
    assert len(lines) == 1 + len(all_states(band))


def test_heq_rejects_zero_length():
    with pytest.raises(ValueError):
        build_heq(0.0, 1.0, -6.24, 0)
