import numpy as np
import pytest
from scipy.special import jv

from oracles import MatrixOperator, loop_chebyshev_advance
from pairquench import (
    ChebyshevPropagator,
    ModelParams,
    PropagationAccuracyError,
    SpectralPropagator,
    build_basis,
    build_h0,
    build_hamiltonian,
    build_stark,
)
from pairquench.propagation import SAMPLE_BLOCK, _bessel_j, spectral_bounds
from pairquench.spectrum import _csr

from conftest import F_BLOCH


@pytest.fixture(scope="module")
def random_hamiltonian():
    rng = np.random.default_rng(7)
    dense = rng.standard_normal((60, 60))
    dense = 0.5 * (dense + dense.T)
    return MatrixOperator(dense)


@pytest.fixture(scope="module")
def exact_bounds(random_hamiltonian):
    # the exact extremes padded by 5 % of the width: the Gershgorin interval of this
    # dense matrix, [-42.5, 39.4] around an exact [-10.3, 10.4], would make every step
    # of the window-policy tests long
    vals = np.linalg.eigvalsh(random_hamiltonian.toarray())
    pad = 0.05 * (vals[-1] - vals[0])
    return vals[0] - pad, vals[-1] + pad


@pytest.fixture(scope="module")
def random_state():
    rng = np.random.default_rng(11)
    psi = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    return psi / np.linalg.norm(psi)


def test_backends_agree(random_hamiltonian, random_state):
    exact = SpectralPropagator(random_hamiltonian)
    cheb = ChebyshevPropagator(random_hamiltonian, tol=1e-12)
    times = [0.5, 3.0, 20.0]
    states = np.vstack(list(exact.samples(random_state, times)))
    for t, state in zip(times, states):
        assert np.linalg.norm(state - cheb.advance(random_state, t)) < 1e-9


def test_stepping_matches_single_jump(random_hamiltonian, random_state):
    cheb = ChebyshevPropagator(random_hamiltonian, tol=1e-12)
    stepped = random_state
    for _ in range(10):
        stepped = cheb.advance(stepped, 1.5)
    assert np.linalg.norm(stepped - cheb.advance(random_state, 15.0)) < 1e-9


def test_unitarity_and_energy_conservation(random_hamiltonian, random_state):
    cheb = ChebyshevPropagator(random_hamiltonian, tol=1e-12)
    e0 = np.real(np.vdot(random_state, random_hamiltonian @ random_state))
    for psi in np.vstack(list(cheb.samples(random_state, np.arange(0.0, 30.0, 1.0)))):
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-10
        assert abs(np.real(np.vdot(psi, random_hamiltonian @ psi)) - e0) < 1e-9


def test_first_sample_is_initial_state(random_hamiltonian, random_state):
    for prop in (SpectralPropagator(random_hamiltonian), ChebyshevPropagator(random_hamiltonian)):
        first = next(iter(prop.samples(random_state, [0.0])))
        assert first.shape == (1, random_state.size)
        assert np.linalg.norm(first[0] - random_state) < 1e-14


def test_underestimated_bounds_raise(random_hamiltonian, random_state):
    cheb = ChebyshevPropagator(random_hamiltonian, bounds=(-0.5, 0.5))
    with pytest.raises(PropagationAccuracyError):
        cheb.advance(random_state, 5.0)


def test_series_that_cannot_reach_tol_raises(random_hamiltonian, random_state):
    # the coefficients stop at 1e-16, far above a 1e-20 target
    cheb = ChebyshevPropagator(random_hamiltonian, tol=1e-20)
    with pytest.raises(PropagationAccuracyError, match="did not decay"):
        cheb.advance(random_state, 1.0)


@pytest.mark.parametrize("z", [1e-300, 1e-9, 0.5, 17.9, 143.0, 14302.0])
def test_chebyshev_coefficients_match_scipy_bessel(z):
    # Miller's recurrence against scipy's jv over every order the series may
    # keep; at 1e-300 the recurrence would overflow and is not run.  14302 is
    # one t = 800 step at n = 111, where jv's own error is about 1.3e-13
    n_max = int(z + 45.0 * (z + 1.0) ** (1.0 / 3.0) + 40.0)
    orders = np.arange(n_max + 1)
    values = _bessel_j(n_max, z)
    assert np.max(np.abs(values - jv(orders, z))) < 2e-13
    assert abs(values[0] + 2.0 * values[2::2].sum() - 1.0) <= 1e-15
    residual = values[:-2] + values[2:] - 2.0 * orders[1:-1] / z * values[1:-1]
    assert np.max(np.abs(residual)) <= 1e-15
    # the interval [-1, 1] makes dt the Bessel argument and the centre phase 1
    coef = ChebyshevPropagator(MatrixOperator(np.eye(2)), bounds=(-1.0, 1.0))._coefficients(z)
    kept = orders[: coef.size]
    assert np.max(np.abs(coef - np.where(kept == 0, 1.0, 2.0) * (-1j) ** kept * jv(kept, z))) < 4e-13


@pytest.fixture(scope="module")
def chain31():
    basis = build_basis(31)
    params = ModelParams(31, 1.0, -6.24, -6.24)
    h = build_h0(params, basis).add_diagonal(build_stark(-0.2, basis))
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return h, psi / np.linalg.norm(psi)


@pytest.mark.parametrize(
    "params",
    [
        ModelParams(15, 1.0, -6.24, -6.24, field=-0.21),  # the quenched 15-site chain
        ModelParams(15, 1.0, -6.24, -6.24, boundary="ring"),
        ModelParams(31, 1.0, -6.24, -6.24, field=-0.2),  # chain31
    ],
)
def test_bounds_contain_dense_spectrum(params):
    h = build_hamiltonian(params, build_basis(params.n_sites))
    vals = np.linalg.eigvalsh(h.toarray())
    lo, hi = spectral_bounds(h)
    assert lo <= vals[0] and vals[-1] <= hi


def test_small_dense_matrix_gets_its_gershgorin_interval(random_hamiltonian, exact_bounds):
    # at every size, even 60 dense states, where it is about four times as wide as the spectrum
    dense = random_hamiltonian.toarray()
    radius = np.abs(dense).sum(axis=1) - np.abs(np.diag(dense))
    lo, hi = spectral_bounds(random_hamiltonian)
    assert lo == pytest.approx(np.min(np.diag(dense) - radius), abs=1e-12)
    assert hi == pytest.approx(np.max(np.diag(dense) + radius), abs=1e-12)
    assert lo < exact_bounds[0] and exact_bounds[1] < hi


def test_diagonal_bounds_are_attained_and_advance_exactly():
    rng = np.random.default_rng(5)
    d = rng.uniform(-3.0, 2.0, 100)
    h = MatrixOperator(np.diag(d))
    assert spectral_bounds(h) == (d.min(), d.max())
    psi = rng.standard_normal(d.size) + 1j * rng.standard_normal(d.size)
    psi /= np.linalg.norm(psi)
    cheb = ChebyshevPropagator(h)
    for t in (0.3, 7.0, 120.0):
        assert np.max(np.abs(cheb.advance(psi, t) - np.exp(-1j * d * t) * psi)) < 1e-12


def test_identity_multiple_gets_a_nonzero_width():
    # a Gershgorin interval of zero width would divide by zero in the rescaling
    h = MatrixOperator(2.5 * np.eye(100))
    lo, hi = spectral_bounds(h)
    assert lo == 2.5 and hi - lo == pytest.approx(1e-9)
    psi = np.full(100, 0.1, dtype=complex)
    for t in (0.3, 7.0, 120.0):
        assert np.max(np.abs(ChebyshevPropagator(h).advance(psi, t) - np.exp(-2.5j * t) * psi)) < 1e-12


@pytest.mark.parametrize("dt", [1.0, 50.0])
def test_advance_matches_real_operator_recursion(chain31, dt):
    # same terms as the real-operator recursion; the buffered products only
    # change the order in which the terms are summed
    h, psi = chain31
    cheb = ChebyshevPropagator(h)
    assert cheb.h is h
    assert np.max(np.abs(cheb.advance(psi, dt) - loop_chebyshev_advance(cheb, psi, dt))) <= 1e-15


def test_advance_rows_match_separate_recursions(chain31):
    h, psi = chain31
    cheb = ChebyshevPropagator(h)
    earlier = [0.5, 1.0, 2.5, 3.0, 7.0]
    rows = cheb.advance(psi, 8.0, earlier)
    assert rows.shape == (len(earlier) + 1, psi.size)
    for row, offset in zip(rows, earlier + [8.0]):
        assert np.max(np.abs(row - loop_chebyshev_advance(cheb, psi, offset))) <= 1e-15


@pytest.mark.parametrize("earlier", [[2.0, 1.0], [0.0, 1.0], [1.0, 8.0], [1.0, 1.0]])
def test_advance_rejects_misplaced_offsets(chain31, earlier):
    h, psi = chain31
    with pytest.raises(ValueError):
        ChebyshevPropagator(h).advance(psi, 8.0, earlier)


def _record_recursions(cheb):
    """Make ``cheb.advance`` log the number of earlier offsets of every call."""
    calls = []
    advance = cheb.advance

    def logged(psi, dt, earlier=()):
        calls.append(len(earlier))
        return advance(psi, dt, earlier)

    cheb.advance = logged
    return calls


@pytest.mark.parametrize("count", [1, 7, 8, 9, 17])
def test_windowed_samples_match_spectral(random_hamiltonian, exact_bounds, random_state, count):
    rng = np.random.default_rng(count)
    times = 0.7 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.5, count - 1))])
    cheb = ChebyshevPropagator(random_hamiltonian, tol=1e-12, bounds=exact_bounds)
    recursions = _record_recursions(cheb)
    got = np.vstack(list(cheb.samples(random_state, times)))
    want = np.vstack(list(SpectralPropagator(random_hamiltonian).samples(random_state, times)))
    assert len(got) == count
    assert len(recursions) == -(-count // SAMPLE_BLOCK)
    assert max(np.max(np.abs(a - b)) for a, b in zip(got, want)) < 1e-10


def test_long_steps_are_not_windowed(random_hamiltonian, exact_bounds, random_state):
    cheb = ChebyshevPropagator(random_hamiltonian, tol=1e-12, bounds=exact_bounds)
    assert cheb._is_short(1.0) and not cheb._is_short(50.0)
    recursions = _record_recursions(cheb)
    blocks = list(cheb.samples(random_state, [0.0, 50.0, 100.0, 101.0, 102.0]))
    assert recursions == [0, 0, 1]
    assert [len(block) for block in blocks] == [1, 1, 1, 2]


@pytest.mark.parametrize("backend", [SpectralPropagator, ChebyshevPropagator])
def test_samples_reject_unsorted_times(random_hamiltonian, random_state, backend):
    prop = backend(random_hamiltonian)
    for times in ([1.0, 1.0], [2.0, 1.0], [-1.0, 1.0]):
        with pytest.raises(ValueError):
            list(prop.samples(random_state, times))


def test_underestimated_bounds_raise_from_samples(random_hamiltonian, random_state):
    cheb = ChebyshevPropagator(random_hamiltonian, bounds=(-0.5, 0.5))
    assert cheb._is_short(1.0)
    with pytest.raises(PropagationAccuracyError):
        list(cheb.samples(random_state, np.arange(0.0, 9.0)))


def test_headline_operator_keeps_the_benchmark_probe_contract(ref_workspace):
    # a traced benchmark run reads these of the propagator's operator and calls advance(psi, dt)
    h = ref_workspace.hamiltonian(F_BLOCH)
    prop = ChebyshevPropagator(h)
    assert prop.h is h and h.shape == (6216, 6216)
    assert h.nnz == 30_636 == _csr(h).nnz
    assert h.data.itemsize == 8 and h.indices.itemsize == 8
    dt = 0.5
    psi = prop.advance(ref_workspace.psi0, dt)
    assert psi.shape == ref_workspace.psi0.shape
    assert len(prop._coefficients(dt)) > 1
