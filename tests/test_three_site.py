import numpy as np
import pytest

from pairquench import (
    ModelParams,
    SingularParameterError,
    build_basis,
    build_hamiltonian,
    exact_pair_dynamics,
    rabi_constants,
    transfer_probability,
)
from pairquench.model import separations

from oracles import SpectralPropagator, pair_unpair_hamiltonian

KAPPA = 0.4
U = -6.0
CHAIN = ModelParams(3, kappa=KAPPA, u=U, v=U)


def hump_times(times, values, height_frac=0.6, min_sep=10.0):
    """Centers of the dominant maxima of an oscillating series."""
    t = np.asarray(times)
    v = np.asarray(values)
    floor = height_frac * v.max()
    groups = []
    for i in range(1, len(v) - 1):
        if v[i] >= v[i - 1] and v[i] >= v[i + 1] and v[i] >= floor:
            if groups and t[i] - groups[-1][-1][0] < min_sep:
                groups[-1].append((t[i], v[i]))
            else:
                groups.append([(t[i], v[i])])
    return [max(g, key=lambda p: p[1])[0] for g in groups]


def test_resonant_constants_closed_forms():
    c = rabi_constants(U / 2, U, KAPPA)
    assert c.c1 == pytest.approx(-4 * KAPPA**2 / (3 * U), rel=1e-12)
    assert c.omega == pytest.approx(np.sqrt(76) * KAPPA**2 / (3 * abs(U)), rel=1e-12)
    assert np.tan(c.theta) == pytest.approx(3 * np.sqrt(2), rel=1e-12)
    assert np.sin(c.theta) ** 2 == pytest.approx(18 / 19, rel=1e-12)
    # mean level energy (a pure evolution phase): 2U - 4k^2/(3U) - 2k^2/U
    assert c.c0 == pytest.approx(2 * U - 4 * KAPPA**2 / (3 * U) - 2 * KAPPA**2 / U, rel=1e-12)


def test_rabi_frequency_value():
    c = rabi_constants(-3.0, -6.0, 0.4)
    assert c.omega == pytest.approx(0.077492, abs=1e-6)


def test_detuned_regime_reduces_to_two_level_detuning():
    c = rabi_constants(-1.0, U, KAPPA)
    assert c.c1 == pytest.approx(U - 2 * (-1.0), rel=0.1)
    assert 2 * c.omega == pytest.approx(abs(c.c1), rel=0.1)
    assert np.sin(c.theta) == pytest.approx(np.tan(c.theta), abs=1e-3)


def test_singular_parameters_rejected():
    for field in (0.0, U, -U):
        with pytest.raises(SingularParameterError):
            rabi_constants(field, U, KAPPA)
    with pytest.raises(SingularParameterError):
        pair_unpair_hamiltonian(-6.0, U, -6.0, KAPPA)  # field == v


def test_effective_hamiltonian_structure():
    h = pair_unpair_hamiltonian(-3.0, U, U, KAPPA)
    assert h.shape == (2, 2)
    assert h[0, 1] == h[1, 0]
    coupling = U * np.sqrt(2) * KAPPA**2 / (2 * ((-3.0) ** 2 - (-3.0) * U))
    assert h[0, 1] == pytest.approx(coupling, rel=1e-12)
    frozen = pair_unpair_hamiltonian(-3.0, U, U, 0.0)
    assert np.allclose(frozen, np.diag([4 * -3.0, U + 2 * -3.0]), atol=1e-14)


def test_effective_eigenvalues_are_rabi_constants():
    field = -2.4
    h = pair_unpair_hamiltonian(field, U, U, KAPPA)
    c = rabi_constants(field, U, KAPPA)
    assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [c.c0 - c.omega, c.c0 + c.omega], atol=1e-12)


def test_transfer_probability_series():
    c = rabi_constants(U / 2, U, KAPPA)
    assert transfer_probability(0.0, c) == 0.0
    ts = np.linspace(0.0, 120.0, 600)
    p = transfer_probability(ts, c)
    assert np.all((0.0 <= p) & (p <= 1.0))
    expected = (18 / 19) * np.sin(np.sqrt(76) * KAPPA**2 * ts / (3 * abs(U))) ** 2
    assert np.allclose(p, expected, atol=1e-12)
    # revival period of the pair population
    assert np.pi / c.omega == pytest.approx(3 * abs(U) * np.pi / (np.sqrt(76) * KAPPA**2), rel=1e-12)


def test_detuned_analytic_transfer_is_negligible():
    c = rabi_constants(-1.0, U, KAPPA)
    assert np.sin(c.theta) ** 2 < 0.01


def test_exact_resonant_oscillation_matches_two_level_model():
    times = np.arange(0.0, 100.0, 0.01)
    pair_loss, _ = exact_pair_dynamics(CHAIN, -3.0, times)
    amplitude = pair_loss.max()
    assert amplitude == pytest.approx(18 / 19, rel=0.1)
    humps = hump_times(times, pair_loss)
    assert len(humps) >= 2
    period = humps[1] - humps[0]
    assert period == pytest.approx(3 * abs(U) * np.pi / (np.sqrt(76) * KAPPA**2), rel=0.1)


def test_exact_detuned_pair_stays_paired():
    times = np.arange(0.0, 200.0, 0.01)
    _, unpair_weight = exact_pair_dynamics(CHAIN, -1.0, times)
    assert unpair_weight.max() < 0.01


@pytest.mark.parametrize("field", [-3.0, -1.0])
def test_closed_form_matches_spectral_propagator(field):
    basis = build_basis(3)
    times = np.arange(0.0, 100.0 + 0.025, 0.05)
    prop = SpectralPropagator(build_hamiltonian(CHAIN, field, basis))
    psi0 = np.zeros(basis.dim, dtype=complex)
    psi0[basis.rank(1, 1)] = 1.0
    psi_t = prop.h.unpack(np.vstack(list(prop.samples(psi0, times))))
    pair_loss, unpair_weight = exact_pair_dynamics(CHAIN, field, times)
    assert np.max(np.abs(pair_loss - (1.0 - np.abs(psi_t[:, basis.rank(1, 1)]) ** 2))) < 1e-14
    assert np.max(np.abs(unpair_weight - np.abs(psi_t[:, basis.rank(1, 3)]) ** 2)) < 1e-14


def test_exact_dynamics_requires_three_sites():
    with pytest.raises(ValueError):
        exact_pair_dynamics(ModelParams(4, kappa=KAPPA, u=U, v=U), -3.0, [0.0, 1.0])


def test_top_gap_minimum_near_half_interaction():
    basis = build_basis(3)
    fields = np.arange(-5.0, -1.0, 0.01)
    gaps = []
    for f in fields:
        h = build_hamiltonian(CHAIN, f, basis).toarray()
        vals = np.linalg.eigvalsh(h)
        gaps.append(vals[-1] - vals[-2])
    assert fields[int(np.argmin(gaps))] == pytest.approx(U / 2, abs=0.2)


def test_top_levels_exchange_pair_character():
    basis = build_basis(3)

    def top_two_rbar(field):
        h = build_hamiltonian(CHAIN, field, basis)
        vals, vecs = np.linalg.eigh(h.toarray())
        return list(separations(basis) @ np.abs(vecs[:, [-1, -2]]) ** 2)

    before = top_two_rbar(-4.0)
    after = top_two_rbar(-2.0)
    assert before[0] < 0.5 and before[1] > 1.5
    assert after[0] > 1.5 and after[1] < 0.5
    assert abs(after[0] - before[0]) > 1.0 and abs(after[1] - before[1]) > 1.0
