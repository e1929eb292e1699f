import numpy as np
import pytest
from hypothesis import given, strategies as st

from pairquench import build_basis

from oracles import loop_pairs


def test_dimension_small():
    assert build_basis(3).dim == 6


def test_dimension_reference_size():
    assert build_basis(111).dim == 6216


def test_two_site_pairs_exhaustive():
    basis = build_basis(2)
    assert list(zip(basis.i.tolist(), basis.j.tolist())) == [(1, 1), (1, 2), (2, 2)]


def test_rejects_single_site():
    with pytest.raises(ValueError):
        build_basis(1)


@given(st.integers(min_value=2, max_value=40))
def test_rank_unrank_roundtrip(n):
    basis = build_basis(n)
    assert basis.dim == n * (n + 1) // 2
    for k in range(basis.dim):
        i, j = int(basis.i[k]), int(basis.j[k])
        assert 1 <= i <= j <= n
        assert basis.rank(i, j) == k
    assert np.array_equal(basis.rank(basis.i, basis.j), np.arange(basis.dim))


@given(st.integers(min_value=2, max_value=40))
def test_lexicographic_order(n):
    basis = build_basis(n)
    assert list(zip(basis.i.tolist(), basis.j.tolist())) == loop_pairs(n)


def test_arrays_are_read_only():
    basis = build_basis(4)
    with pytest.raises(ValueError):
        basis.i[0] = 2


@pytest.mark.parametrize("i, j", [(0, 1), (2, 1), (1, 6), (6, 6), (-1, 3)])
def test_rank_rejects_non_configurations(i, j):
    # the closed form alone would map these onto some valid index
    basis = build_basis(5)
    with pytest.raises(ValueError):
        basis.rank(i, j)
    with pytest.raises(ValueError):
        basis.rank([1, i], [1, j])
