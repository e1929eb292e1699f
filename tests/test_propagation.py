import warnings

import numpy as np
import pytest
from scipy.special import jv

from oracles import MatrixOperator, SpectralPropagator, loop_chebyshev_advance
from pairquench import (
    ChebyshevPropagator,
    ModelParams,
    PropagationAccuracyError,
    build_basis,
    build_h0,
    build_hamiltonian,
    build_stark,
    propagation,
)
from pairquench.propagation import (
    SAMPLE_BLOCK,
    TERM_BUFFER,
    _bessel_j,
    _interval,
    _power_weights,
    spectral_bounds,
)
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
    # the exact extremes padded by 5 % of the width: the interval of this dense matrix,
    # [-34.0, 33.6] (Gershgorin's [-42.5, 39.4]) around an exact [-10.3, 10.4], would make
    # every step of the window-policy tests long
    vals = np.linalg.eigvalsh(random_hamiltonian.toarray())
    pad = 0.05 * (vals[-1] - vals[0])
    return vals[0] - pad, vals[-1] + pad


@pytest.fixture
def fixed_bounds(monkeypatch):
    """``fix(lo, hi)``: every propagator built after it takes the interval ``[lo, hi]``, named ``"given"``."""

    def fix(lo, hi):
        monkeypatch.setattr(propagation, "spectral_bounds", lambda h: (lo, hi, "given"))

    return fix


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


def test_underestimated_bounds_raise(random_hamiltonian, random_state, fixed_bounds):
    fixed_bounds(-0.5, 0.5)
    cheb = ChebyshevPropagator(random_hamiltonian)
    with pytest.raises(PropagationAccuracyError):
        cheb.advance(random_state, 5.0)


def test_series_that_cannot_reach_tol_raises(random_hamiltonian, random_state):
    # the coefficients stop at 1e-16, far above a 1e-20 target
    cheb = ChebyshevPropagator(random_hamiltonian, tol=1e-20)
    with pytest.raises(PropagationAccuracyError, match="did not decay"):
        cheb.advance(random_state, 1.0)


@pytest.mark.parametrize("z", [1e-300, 1e-9, 0.5, 17.9, 143.0, 14302.0])
def test_chebyshev_coefficients_match_scipy_bessel(z, fixed_bounds):
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
    # the interval [-1, 1] makes dt the Bessel argument; the terms carry (-i)^k and
    # advance the centre phase, so the coefficients are the real J_0, 2 J_1, 2 J_2, ...
    fixed_bounds(-1.0, 1.0)
    coef = ChebyshevPropagator(MatrixOperator(np.eye(2)))._coefficients(z)
    kept = orders[: coef.size]
    assert coef.dtype == np.float64
    assert np.max(np.abs(coef - np.where(kept == 0, 1.0, 2.0) * jv(kept, z))) < 4e-13


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
        ModelParams(15, 1.0, -6.24, -6.24),  # the field-free 15-site chain
        ModelParams(31, 1.0, -6.24, -6.24, field=-0.2),  # chain31
        ModelParams(5, 0.8, -6.0, -2.0, field=-0.37),
        ModelParams(43, 1.0, -6.24, -6.24, field=-0.21),
        ModelParams(43, 0.6, 2.5, -1.0, field=1.3),
    ],
)
def test_bounds_contain_dense_spectrum(params):
    h = build_hamiltonian(params, build_basis(params.n_sites))
    vals = np.linalg.eigvalsh(h.toarray())
    lo, hi, source = spectral_bounds(h)
    assert lo <= vals[0] and vals[-1] <= hi
    assert source == "collatz-wielandt"
    # the Collatz–Wielandt interval is narrower than Gershgorin's at both ends
    ones = np.ones(vals.size)
    gershgorin = _interval(h, ones, ones)
    assert gershgorin[0] < lo and hi < gershgorin[1]
    # the theorem holds for any positive weights, not only the power iterates
    rng = np.random.default_rng(params.n_sites)
    for _ in range(5):
        lo, hi = _interval(h, *rng.uniform(1e-3, 1.0, (2, vals.size)))
        assert lo <= vals[0] and vals[-1] <= hi


@pytest.mark.parametrize(
    "params, interval",
    [
        (ModelParams(111, 1.0, -6.24, -6.24, field=-0.09712), (-32.33770712474619, 3.41728)),
        (ModelParams(43, 1.0, -6.24, -6.24, field=-0.21), (-28.498427124746193, 2.74)),
        (ModelParams(15, 0.8, -6.0, -2.0, field=-0.37), (-18.62274169979695, 0.9800000000000004)),
        (ModelParams(6, 0.8, -6.0, -2.0, field=-0.37), (-11.962741699796952, 0.9800000000000004)),
        (ModelParams(2, 0.8, -6.0, -2.0, field=-0.37), (-8.611370849898476, -0.8472583002030474)),
    ],
)
def test_unit_weights_give_the_gershgorin_interval_bit_for_bit(params, interval):
    # min(h_ii - R_i) and max(h_ii + R_i) of the Gershgorin radii R the operator computed before weights
    h = build_hamiltonian(params, build_basis(params.n_sites))
    ones = np.ones(h.shape[0])
    assert _interval(h, ones, ones) == interval


def test_underflowing_weights_fall_back_to_gershgorin():
    # a hopping of 1e-300 feeds the far entries of the iterates too little: one underflows to 0
    h = build_hamiltonian(ModelParams(5, 1e-300, -6.24, -6.24, field=-1.0), build_basis(5))
    ones = np.ones(h.shape[0])
    lo, hi = _interval(h, ones, ones)
    assert np.any(_power_weights(h.bounding()[1].scaled(lo, 1.0)) == 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no weighted radius divides by the zero
        assert spectral_bounds(h) == (lo, hi, "gershgorin")


def test_small_dense_matrix_gets_an_interval_inside_gershgorin(random_hamiltonian):
    # a general matrix takes the one Collatz–Wielandt path of the bounding pair, at every
    # size, even 60 dense states, where Gershgorin's is about four times as wide as the spectrum
    dense = random_hamiltonian.toarray()
    radius = np.abs(dense).sum(axis=1) - np.abs(np.diag(dense))
    vals = np.linalg.eigvalsh(dense)
    lo, hi, source = spectral_bounds(random_hamiltonian)
    assert source == "collatz-wielandt"
    assert np.min(np.diag(dense) - radius) - 1e-12 <= lo <= vals[0]
    assert vals[-1] <= hi <= np.max(np.diag(dense) + radius) + 1e-12


def test_diagonal_bounds_are_attained_and_advance_exactly():
    rng = np.random.default_rng(5)
    d = rng.uniform(-3.0, 2.0, 100)
    h = MatrixOperator(np.diag(d))
    assert spectral_bounds(h) == (d.min(), d.max(), "gershgorin")
    psi = rng.standard_normal(d.size) + 1j * rng.standard_normal(d.size)
    psi /= np.linalg.norm(psi)
    cheb = ChebyshevPropagator(h)
    for t in (0.3, 7.0, 120.0):
        assert np.max(np.abs(cheb.advance(psi, t) - np.exp(-1j * d * t) * psi)) < 1e-12


def test_identity_multiple_gets_a_nonzero_width():
    # a Gershgorin interval of zero width would divide by zero in the rescaling
    h = MatrixOperator(2.5 * np.eye(100))
    lo, hi, _ = spectral_bounds(h)
    assert lo == 2.5 and hi - lo == pytest.approx(1e-9)
    psi = np.full(100, 0.1, dtype=complex)
    for t in (0.3, 7.0, 120.0):
        assert np.max(np.abs(ChebyshevPropagator(h).advance(psi, t) - np.exp(-2.5j * t) * psi)) < 1e-12


@pytest.mark.parametrize("dt", [1.0, 50.0])
def test_advance_matches_real_operator_recursion(chain31, dt):
    # the terms of -2i A are (-i)^k times those of the real-operator recursion, which
    # applies (-i)^k and the centre phase itself; the buffered real products only
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


def _step_of_length(cheb, n_terms: int) -> float:
    """The smallest step (to 1e-12) whose series has ``n_terms`` terms, by bisection on the term count."""
    lo, hi = 0.0, 1.0
    while cheb._coefficients(hi).size < n_terms:
        hi *= 2.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if cheb._coefficients(mid).size < n_terms else (lo, mid)
    assert cheb._coefficients(hi).size == n_terms
    return hi


def test_term_buffer_holds_the_two_terms_before_each_new_one():
    # each kernel forms terms[s] from terms[s - 1] and terms[s - 2]; with 2 rows
    # terms[s - 2] would be terms[s] itself, read while it is written
    assert TERM_BUFFER >= 3


@pytest.mark.parametrize("n_terms", [TERM_BUFFER - 1, TERM_BUFFER, TERM_BUFFER + 1, 2 * TERM_BUFFER + 1])
@pytest.mark.parametrize("rows", [1, 8])
def test_series_around_the_term_buffer_match_real_operator_recursion(chain31, n_terms, rows):
    # series that end just before, on and just after a full buffer, and one term into a
    # third buffer, in one row and in eight rows that end in different buffers
    h, psi = chain31
    cheb = ChebyshevPropagator(h)
    dt = _step_of_length(cheb, n_terms)
    offsets = dt * np.arange(1, rows + 1) / rows
    got = cheb.advance(psi, dt, offsets[:-1]).reshape(rows, -1)
    for row, offset in zip(got, offsets):
        assert np.max(np.abs(row - loop_chebyshev_advance(cheb, psi, offset))) <= 1e-15
    assert (cheb.recursions, cheb.matvecs) == (1, n_terms - 1)


def test_propagator_records_its_interval_and_work(chain31, random_hamiltonian, random_state, fixed_bounds):
    h, psi = chain31
    cheb = ChebyshevPropagator(h)
    assert (cheb.interval, cheb.recursions, cheb.matvecs) == ("collatz-wielandt", 0, 0)
    cheb.advance(psi, 2.0, [0.5, 1.0])
    cheb.advance(psi, 3.0)
    terms = len(cheb._coefficients(2.0)) + len(cheb._coefficients(3.0))
    assert cheb.stats() == {
        "interval": "collatz-wielandt",
        "halfwidth": cheb.halfwidth,
        "recursions": 2,
        "matvecs": terms - 2,
    }
    assert ChebyshevPropagator(MatrixOperator(np.eye(3))).interval == "gershgorin"
    fixed_bounds(-50.0, 50.0)
    given = ChebyshevPropagator(random_hamiltonian)
    assert (given.interval, given.halfwidth) == ("given", 50.0)
    list(given.samples(random_state, [0.0, 0.5, 1.0]))  # t = 0 is no recursion
    assert given.recursions == 1


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
def test_windowed_samples_match_spectral(random_hamiltonian, exact_bounds, fixed_bounds, random_state, count):
    rng = np.random.default_rng(count)
    times = 0.7 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.5, count - 1))])
    fixed_bounds(*exact_bounds)
    cheb = ChebyshevPropagator(random_hamiltonian, tol=1e-12)
    recursions = _record_recursions(cheb)
    got = np.vstack(list(cheb.samples(random_state, times)))
    want = np.vstack(list(SpectralPropagator(random_hamiltonian).samples(random_state, times)))
    assert len(got) == count
    assert len(recursions) == -(-count // SAMPLE_BLOCK)
    assert max(np.max(np.abs(a - b)) for a, b in zip(got, want)) < 1e-10


def test_long_steps_are_not_windowed(random_hamiltonian, exact_bounds, fixed_bounds, random_state):
    fixed_bounds(*exact_bounds)
    cheb = ChebyshevPropagator(random_hamiltonian, tol=1e-12)
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


def test_underestimated_bounds_raise_from_samples(random_hamiltonian, random_state, fixed_bounds):
    fixed_bounds(-0.5, 0.5)
    cheb = ChebyshevPropagator(random_hamiltonian)
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
    # the probe counts len(_coefficients(dt)) - 1 matvecs per advance: one kernel call per term after the first
    calls = []
    bind = prop._b.bind

    def counted(*args):
        kernel = bind(*args)

        def call():
            calls.append(1)
            return kernel()

        return call

    prop._b.bind = counted
    dt = 0.5
    psi = prop.advance(ref_workspace.psi0, dt)
    assert psi.shape == ref_workspace.psi0.shape
    assert len(calls) == len(prop._coefficients(dt)) - 1 > 1
