import numpy as np
import pytest
from scipy import sparse

from oracles import loop_chebyshev_advance
from pairquench import (
    ChebyshevPropagator,
    ModelParams,
    PropagationAccuracyError,
    SpectralPropagator,
    build_basis,
    build_h0,
    build_stark,
    make_propagator,
)


@pytest.fixture(scope="module")
def random_hamiltonian():
    rng = np.random.default_rng(7)
    dense = rng.standard_normal((60, 60))
    dense = 0.5 * (dense + dense.T)
    return sparse.csr_array(dense)


@pytest.fixture(scope="module")
def random_state():
    rng = np.random.default_rng(11)
    psi = rng.standard_normal(60) + 1j * rng.standard_normal(60)
    return psi / np.linalg.norm(psi)


def test_backends_agree(random_hamiltonian, random_state):
    exact = SpectralPropagator(random_hamiltonian)
    cheb = ChebyshevPropagator(random_hamiltonian, tol=1e-12)
    for t in (0.5, 3.0, 20.0):
        delta = np.linalg.norm(exact.at(random_state, t) - cheb.at(random_state, t))
        assert delta < 1e-9


def test_stepping_matches_single_jump(random_hamiltonian, random_state):
    cheb = ChebyshevPropagator(random_hamiltonian, tol=1e-12)
    stepped = random_state
    for _ in range(10):
        stepped = cheb.advance(stepped, 1.5)
    assert np.linalg.norm(stepped - cheb.at(random_state, 15.0)) < 1e-9


def test_unitarity_and_energy_conservation(random_hamiltonian, random_state):
    cheb = ChebyshevPropagator(random_hamiltonian, tol=1e-12)
    e0 = np.real(np.vdot(random_state, random_hamiltonian @ random_state))
    for psi in cheb.samples(random_state, np.arange(0.0, 30.0, 1.0)):
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-10
        assert abs(np.real(np.vdot(psi, random_hamiltonian @ psi)) - e0) < 1e-9


def test_first_sample_is_initial_state(random_hamiltonian, random_state):
    for prop in (SpectralPropagator(random_hamiltonian), ChebyshevPropagator(random_hamiltonian)):
        first = next(iter(prop.samples(random_state, [0.0])))
        assert np.linalg.norm(first - random_state) < 1e-14


def test_underestimated_bounds_raise(random_hamiltonian, random_state):
    cheb = ChebyshevPropagator(random_hamiltonian, bounds=(-0.5, 0.5))
    with pytest.raises(PropagationAccuracyError):
        cheb.advance(random_state, 5.0)


def test_auto_backend_selection(random_hamiltonian):
    assert isinstance(make_propagator(random_hamiltonian, method="auto"), SpectralPropagator)
    with pytest.raises(ValueError):
        make_propagator(random_hamiltonian, method="magic")


@pytest.mark.parametrize("dt", [1.0, 50.0])
def test_advance_matches_real_operator_recursion(dt):
    # the complex operator and the in-place recursion change no arithmetic
    basis = build_basis(31)
    params = ModelParams(31, 1.0, -6.24, -6.24)
    h = (build_h0(params, basis) + build_stark(31, -0.2, basis)).tocsr()
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    psi /= np.linalg.norm(psi)
    cheb = ChebyshevPropagator(h)
    assert cheb.h.dtype == np.float64
    assert np.array_equal(cheb.advance(psi, dt), loop_chebyshev_advance(cheb, psi, dt))
