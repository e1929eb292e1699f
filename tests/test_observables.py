import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pairquench import ModelParams, build_basis, build_h0, expectation, mean_distance

from oracles import fock_operators


@pytest.fixture(scope="module")
def basis3():
    return build_basis(3)


def test_same_site_pair_distance(basis3):
    assert mean_distance(basis3, basis3.unit_state(1, 1)) == 0.0


def test_separated_pair_distance(basis3):
    assert mean_distance(basis3, basis3.unit_state(1, 3)) == pytest.approx(2.0)


def test_distance_is_linear_in_probability(basis3):
    psi = (basis3.unit_state(1, 1) + basis3.unit_state(1, 3)) / np.sqrt(2)
    assert mean_distance(basis3, psi) == pytest.approx(1.0)


def test_unnormalized_state_rejected(basis3):
    with pytest.raises(ValueError):
        mean_distance(basis3, 0.5 * basis3.unit_state(1, 1))


def test_expectation_diagonal_terms(basis3):
    h = build_h0(ModelParams(3, kappa=0.4, u=-6.0, v=-6.0), basis3)
    assert expectation(h, basis3.unit_state(1, 1)) == pytest.approx(-6.0)
    assert expectation(h, basis3.unit_state(1, 2)) == pytest.approx(-6.0)
    assert expectation(np.eye(6), basis3.unit_state(2, 3)) == pytest.approx(1.0)


def test_expectation_dimension_mismatch(basis3):
    with pytest.raises(ValueError):
        expectation(np.eye(5), basis3.unit_state(1, 1))


def test_expectation_rejects_nonreal_quadratic_form():
    op = np.array([[0.0, 1.0], [0.0, 0.0]])
    psi = np.array([1.0, 1j]) / np.sqrt(2)
    with pytest.raises(ValueError):
        expectation(op, psi)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_probability_sum_rule(seed):
    # off-site pair probability plus same-site pair probability exhausts any
    # normalized two-boson state; evaluated through literal number operators
    n = 5
    basis = build_basis(n)
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    psi /= np.linalg.norm(psi)

    ops = fock_operators(n)
    num = [op.conj().T @ op for op in ops]
    fock_dim = num[0].shape[0]
    embed = np.zeros(fock_dim, dtype=complex)
    for amp, i, j in zip(psi, basis.i, basis.j):
        occ = [0] * n
        occ[i - 1] += 1
        occ[j - 1] += 1
        idx = 0
        for o in occ:
            idx = idx * 3 + o
        embed[idx] = amp

    total = 0.0
    for i in range(n):
        for r in range(1, n - i):
            total += np.real(np.vdot(embed, (num[i] @ num[i + r]) @ embed))
    for i in range(n):
        total += 0.5 * np.real(np.vdot(embed, (num[i] @ num[i] - num[i]) @ embed))
    assert abs(total - 1.0) < 1e-10
