import numpy as np
import pytest

from pairquench import ModelParams, build_basis, build_h0, build_hamiltonian, build_stark

from oracles import fock_two_boson_matrix, loop_build_h0


def test_two_site_free_spectrum():
    params = ModelParams(2, kappa=1.0, u=0.0, v=0.0)
    h = build_h0(params, build_basis(2)).toarray()
    # single sqrt(2)-enhanced bond on each side of (1,2)
    expected = np.array([[0, -np.sqrt(2), 0], [-np.sqrt(2), 0, -np.sqrt(2)], [0, -np.sqrt(2), 0]])
    assert np.allclose(h, expected, atol=1e-14)
    assert np.allclose(np.linalg.eigvalsh(h), [-2.0, 0.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("boundary", ["open", "ring"])
@pytest.mark.parametrize("n", [3, 4, 15, 111])
def test_array_assembly_matches_loop_reference(n, boundary):
    params = ModelParams(n, kappa=1.3, u=-6.24, v=-2.5, boundary=boundary)
    h, ref = build_h0(params, build_basis(n)), loop_build_h0(params)
    assert np.array_equal(h.indptr, ref.indptr)
    assert np.array_equal(h.indices, ref.indices)
    assert np.array_equal(h.data, ref.data)


def test_interaction_diagonal():
    basis = build_basis(3)
    h = build_h0(ModelParams(3, kappa=0.4, u=-6.0, v=-6.0), basis)
    assert h[basis.rank(1, 1), basis.rank(1, 1)] == pytest.approx(-6.0)
    assert h[basis.rank(1, 2), basis.rank(1, 2)] == pytest.approx(-6.0)
    assert h[basis.rank(1, 3), basis.rank(1, 3)] == pytest.approx(0.0)


def test_stark_diagonal():
    basis = build_basis(3)
    stark = build_stark(-3.0, basis)
    assert stark[basis.rank(1, 1), basis.rank(1, 1)] == pytest.approx(-6.0)
    assert stark[basis.rank(1, 3), basis.rank(1, 3)] == pytest.approx(-12.0)
    assert np.count_nonzero(build_stark(0.0, basis).toarray()) == 0


def test_ring_field_rejected():
    with pytest.raises(ValueError):
        ModelParams(5, kappa=1.0, u=-1.0, field=-0.1, boundary="ring")
    with pytest.raises(ValueError):
        ModelParams(2, kappa=1.0, u=-1.0, boundary="ring")


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize(
    "kwargs",
    [
        {"u": -6.0, "v": -6.0, "field": -3.0},
        {"u": 4.0, "v": -1.5, "field": 0.7},
        {"u": -6.24, "v": -6.24},
    ],
)
def test_matches_fock_construction_open(n, kwargs):
    params = ModelParams(n, kappa=0.8, **kwargs)
    basis = build_basis(n)
    ours = build_hamiltonian(params, basis).toarray()
    reference = fock_two_boson_matrix(params, basis)
    assert np.max(np.abs(ours - reference)) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_matches_fock_construction_ring(n):
    params = ModelParams(n, kappa=0.8, u=-6.0, v=-2.0, boundary="ring")
    basis = build_basis(n)
    ours = build_h0(params, basis).toarray()
    reference = fock_two_boson_matrix(params, basis)
    assert np.max(np.abs(ours - reference)) < 1e-12


def test_exactly_symmetric_and_sparse():
    params = ModelParams(9, kappa=1.3, u=-2.0, v=-0.5, field=-0.3)
    h = build_hamiltonian(params, build_basis(9))
    asym = (h - h.T).toarray()
    assert np.max(np.abs(asym)) == 0.0
    nnz_per_row = np.diff(h.tocsr().indptr)
    assert nnz_per_row.max() <= 5


def test_ring_free_spectrum_momentum_pairs():
    # non-interacting ring: spectrum is every symmetric pair of single-particle momenta
    for n in (3, 5, 7, 8):
        params = ModelParams(n, kappa=1.0, u=0.0, v=0.0, boundary="ring")
        vals = np.linalg.eigvalsh(build_h0(params, build_basis(n)).toarray())
        singles = -2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
        expected = np.sort([singles[a] + singles[b] for a in range(n) for b in range(a, n)])
        assert np.allclose(vals, expected, atol=1e-10)


def test_three_site_levels_match_dense_oracle():
    params = ModelParams(3, kappa=0.4, u=-6.0, v=-6.0)
    basis = build_basis(3)
    ours = np.linalg.eigvalsh(build_h0(params, basis).toarray())
    reference = np.linalg.eigvalsh(fock_two_boson_matrix(params, basis))
    assert ours.shape == (6,)
    assert np.allclose(ours, reference, atol=1e-12)
