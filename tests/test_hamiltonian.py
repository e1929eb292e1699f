import numpy as np
import pytest
from scipy import sparse

from pairquench import ChebyshevPropagator, ModelParams, build_basis, build_h0, build_hamiltonian, build_stark
from pairquench.model import CACHE_LINE, SQRT2, PairHamiltonian, aligned_array
from pairquench.propagation import _ends, spectral_bounds
from pairquench.spectrum import _csr

from oracles import fock_sector_matrix, fock_two_boson_matrix, loop_build_h0, loop_pairs, stencil_product


def test_two_site_free_spectrum():
    params = ModelParams(2, kappa=1.0, u=0.0, v=0.0)
    h = build_h0(params, build_basis(2)).toarray()
    # single sqrt(2)-enhanced bond on each side of (1,2)
    expected = np.array([[0, -np.sqrt(2), 0], [-np.sqrt(2), 0, -np.sqrt(2)], [0, -np.sqrt(2), 0]])
    assert np.allclose(h, expected, atol=1e-14)
    assert np.allclose(np.linalg.eigvalsh(h), [-2.0, 0.0, 2.0], atol=1e-12)


def _closing_bond(params, basis):
    """The bond between sites n and 1 that closes the chain into a ring: its hop and its v."""
    n = params.n_sites
    rows, cols, vals = [basis.rank(1, n)], [basis.rank(1, n)], [params.v]
    for x in range(1, n + 1):
        # the particle on site 1 of (1, x) hops to n, landing on (x, n), and back
        a, b = basis.rank(1, x), basis.rank(x, n)
        amp = -params.kappa * (SQRT2 if x in (1, n) else 1.0)
        rows += [a, b]
        cols += [b, a]
        vals += [amp, amp]
    return sparse.csr_array((vals, (rows, cols)), shape=(basis.dim, basis.dim))


@pytest.mark.parametrize("boundary", ["open", "ring"])
@pytest.mark.parametrize("n", [3, 4, 15, 111])
def test_array_assembly_matches_loop_reference(n, boundary):
    # the CSR matrix that spectrum builds from the operator's element list; the
    # package builds the open chain only, so the ring closes it with the n-1 bond
    params = ModelParams(n, kappa=1.3, u=-6.24, v=-2.5)
    basis = build_basis(n)
    h, ref = _csr(build_h0(params, basis)), loop_build_h0(params, ring=boundary == "ring")
    if boundary == "ring":
        h = h + _closing_bond(params, basis)
        h.eliminate_zeros()
        ref.eliminate_zeros()
    assert np.array_equal(h.indptr, ref.indptr)
    assert np.array_equal(h.indices, ref.indices)
    assert np.array_equal(h.data, ref.data)


def test_interaction_diagonal():
    basis = build_basis(3)
    h = build_h0(ModelParams(3, kappa=0.4, u=-6.0, v=-6.0), basis).toarray()
    assert h[basis.rank(1, 1), basis.rank(1, 1)] == pytest.approx(-6.0)
    assert h[basis.rank(1, 2), basis.rank(1, 2)] == pytest.approx(-6.0)
    assert h[basis.rank(1, 3), basis.rank(1, 3)] == pytest.approx(0.0)


def test_stark_diagonal():
    basis = build_basis(3)
    stark = build_stark(-3.0, basis)
    assert stark[basis.rank(1, 1)] == pytest.approx(-6.0)
    assert stark[basis.rank(1, 3)] == pytest.approx(-12.0)
    assert np.count_nonzero(build_stark(0.0, basis)) == 0
    h0 = build_h0(ModelParams(3, kappa=0.4, u=-6.0, v=-6.0), basis)
    assert np.array_equal(h0.add_diagonal(stark).toarray() - h0.toarray(), np.diag(stark))


def test_ring_field_rejected():
    # only the oracles build the ring; they refuse a linear field on it and a ring of two sites
    with pytest.raises(ValueError):
        loop_build_h0(ModelParams(5, kappa=1.0, u=-1.0, field=-0.1), ring=True)
    with pytest.raises(ValueError):
        fock_sector_matrix(ModelParams(5, kappa=1.0, u=-1.0, field=-0.1), ring=True)
    with pytest.raises(ValueError):
        fock_two_boson_matrix(ModelParams(2, kappa=1.0, u=-1.0), build_basis(2), ring=True)


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
    # the loop-built ring that the bound-band tests use, against the second-quantized ring
    params = ModelParams(n, kappa=0.8, u=-6.0, v=-2.0)
    loop = loop_build_h0(params, ring=True).toarray()
    reference = fock_two_boson_matrix(params, build_basis(n), ring=True)
    assert np.max(np.abs(loop - reference)) < 1e-12


def test_exactly_symmetric_and_sparse():
    params = ModelParams(9, kappa=1.3, u=-2.0, v=-0.5, field=-0.3)
    h = build_hamiltonian(params, build_basis(9))
    dense = h.toarray()
    assert np.max(np.abs(dense - dense.T)) == 0.0
    _, (rows, _) = h.coo()
    assert np.bincount(rows).max() <= 5
    assert h.nnz == rows.size == np.count_nonzero(dense)


def test_ring_free_spectrum_momentum_pairs():
    # non-interacting ring: spectrum is every symmetric pair of single-particle momenta
    for n in (3, 5, 7, 8):
        vals = np.linalg.eigvalsh(loop_build_h0(ModelParams(n, kappa=1.0, u=0.0, v=0.0), ring=True).toarray())
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


OPERATOR_CASES = [ModelParams(n, kappa=0.8, u=-6.0, v=-2.0, field=-0.37) for n in (2, 3, 4, 5, 6, 15)]


def _case_id(params):
    return f"open-{params.n_sites}"


@pytest.mark.parametrize("n, boundary", [(n, "open") for n in (2, 3, 4, 5)] + [(n, "ring") for n in (3, 4, 5)])
def test_sector_oracle_matches_the_product_space_oracle(n, boundary):
    ring = boundary == "ring"
    params = ModelParams(n, kappa=0.8, u=-6.0, v=-2.0, field=0.0 if ring else -0.37)
    reference = fock_two_boson_matrix(params, build_basis(n), ring=ring)
    assert np.max(np.abs(fock_sector_matrix(params, ring=ring) - reference)) < 1e-14


@pytest.mark.parametrize("params", OPERATOR_CASES, ids=_case_id)
def test_operator_products_match_fock_oracle(params):
    # 1-D states and 2-D row blocks, through the packed stencil and back
    basis = build_basis(params.n_sites)
    h, reference = build_hamiltonian(params, basis), fock_sector_matrix(params)
    rng = np.random.default_rng(params.n_sites)
    block = rng.standard_normal((5, basis.dim)) + 1j * rng.standard_normal((5, basis.dim))
    block /= np.linalg.norm(block, axis=1, keepdims=True)
    assert np.max(np.abs(stencil_product(h, block) - block @ reference)) < 1e-14
    for psi in block:
        assert np.max(np.abs(stencil_product(h, psi) - reference @ psi)) < 1e-14
    assert np.max(np.abs(h.toarray() - reference)) < 1e-14


@pytest.mark.parametrize("params", OPERATOR_CASES, ids=_case_id)
def test_packed_norms_and_cell_weights_match_basis_order(params):
    # |phi|^2 / S^2 summed over the slots of every row of a block; the halo cells weigh nothing
    basis = build_basis(params.n_sites)
    h = build_hamiltonian(params, basis)
    rng = np.random.default_rng(params.n_sites)
    block = rng.standard_normal((5, basis.dim)) + 1j * rng.standard_normal((5, basis.dim))
    packed = h.pack(block)
    norms = np.sqrt(np.square(packed.view(float)) @ h.cell_weights(np.ones(basis.dim)))  # as quench.evolve reads them
    assert np.max(np.abs(norms - np.linalg.norm(block, axis=1))) < 1e-13
    columns = rng.standard_normal((basis.dim, 3))
    sums = np.square(packed.view(float)) @ h.cell_weights(columns)
    assert np.max(np.abs(sums - np.abs(block) ** 2 @ columns)) < 1e-12


@pytest.mark.parametrize("params", OPERATOR_CASES, ids=_case_id)
def test_expectations_match_fock_oracle(params):
    # Re <psi|H|psi> on the packed layout: the halo cells carry values but weigh nothing
    basis = build_basis(params.n_sites)
    h, reference = build_hamiltonian(params, basis), fock_sector_matrix(params)
    rng = np.random.default_rng(params.n_sites)
    block = rng.standard_normal((5, basis.dim)) + 1j * rng.standard_normal((5, basis.dim))
    block /= np.linalg.norm(block, axis=1, keepdims=True)
    expected = np.einsum("ij,jk,ik->i", block.conj(), reference, block).real
    assert np.max(np.abs(h.expectations(h.pack(block)) - expected)) < 1e-13


@pytest.mark.parametrize("params", OPERATOR_CASES, ids=_case_id)
def test_spectral_bounds_are_the_dense_row_sum_interval(params):
    # the interval of the row sums weighted by unit (Gershgorin's) and by random positive
    # weights, against the dense matrix; spectral_bounds lies inside Gershgorin's
    reference = fock_sector_matrix(params)
    diag = np.diag(reference)
    offdiag = np.abs(reference - np.diag(diag))
    h = build_hamiltonian(params, build_basis(params.n_sites))
    ones = np.ones(diag.size)
    below, above = np.random.default_rng(params.n_sites).uniform(0.1, 1.0, (2, diag.size))
    for d_lo, d_hi in [(ones, ones), (below, above)]:
        lo, hi = _ends(*h.bounding(), d_lo, d_hi)
        assert lo == pytest.approx(np.min(diag - offdiag @ d_lo / d_lo), abs=1e-13)
        assert hi == pytest.approx(np.max(diag + offdiag @ d_hi / d_hi), abs=1e-13)
    lo, hi = _ends(*h.bounding(), ones, ones)
    tight_lo, tight_hi, _ = spectral_bounds(h)
    assert lo <= tight_lo and tight_hi <= hi


@pytest.mark.parametrize("params", OPERATOR_CASES, ids=_case_id)
def test_spectrum_csr_matches_fock_oracle(params):
    csr = _csr(build_hamiltonian(params, build_basis(params.n_sites)))
    assert isinstance(csr, sparse.csr_array)
    assert np.max(np.abs(csr.toarray() - fock_sector_matrix(params))) < 1e-14


def test_operator_keeps_the_ghosts_of_packed_states_zero():
    # odd and even lattices fold the rows of separation d and n - d on different seams
    for params in (ModelParams(n, kappa=1.0, u=-6.0, v=-6.0, field=-0.2) for n in (2, 3, 6, 15)):
        n = params.n_sites
        basis = build_basis(n)
        h = build_hamiltonian(params, basis)
        hop = h._hopping
        d = basis.j - basis.i
        fold = d > n // 2
        rows, cols = np.where(fold, n - d, d) + 1, np.where(fold, n + 1 - basis.i, basis.i - 1)
        assert hop.stride >= n + 2 and hop.stride % 4 == 0  # whole cache lines of complex cells
        assert np.array_equal(hop.slots, rows * hop.stride + cols)
        rng = np.random.default_rng(n)
        x, prev = (h.pack(rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)) for _ in range(2))
        assert x.size == (n // 2 + 3) * hop.stride
        inputs = x.copy(), prev.copy()
        out = h.bind(x, prev, np.full_like(x, np.nan))()
        zero = np.ones(x.size, dtype=bool)
        zero[hop.slots] = zero[hop.halo] = False
        assert np.all(out[zero] == 0.0), params  # gaps, ghost columns, the ghost row, the rest of the halo row
        assert np.array_equal(out[hop.halo], out[hop.mirror]), params
        assert np.array_equal(x, inputs[0]) and np.array_equal(prev, inputs[1])
        assert np.max(np.abs(h.unpack(out) - (stencil_product(h, h.unpack(x)) + h.unpack(prev)))) < 1e-14


@pytest.mark.parametrize("n", [6, 15, 111])
def test_bound_kernels_match_fresh_steps_bitwise(n):
    # a recursion on a ring of 4 buffers, each bound once (ghost rows zeroed once), against
    # a step into a fresh buffer per term
    basis = build_basis(n)
    b = build_hamiltonian(ModelParams(n, kappa=1.0, u=-6.24, v=-6.24, field=-0.09712), basis).scaled(-14.0, -0.12j)
    rng = np.random.default_rng(n)
    first, second = (b.pack(rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)) for _ in range(2))
    ring = b.empty_packed(4)
    ring[:] = np.nan
    kernels = [b.bind(ring[slot - 1], ring[slot - 2], ring[slot]) for slot in range(4)]
    ring[0], ring[1] = first, second
    fresh = [first, second]
    for k in range(2, 11):
        kernels[k % 4]()
        fresh.append(b.bind(fresh[-1], fresh[-2], np.full_like(first, np.nan))())
        assert ring[k % 4].tobytes() == fresh[-1].tobytes()


def _on_cache_lines(*blocks) -> bool:
    return all(row.ctypes.data % CACHE_LINE == 0 for block in blocks for row in np.atleast_2d(block))


@pytest.mark.parametrize("n", [6, 15, 111])
def test_packed_buffers_start_on_cache_lines(n, monkeypatch):
    basis = build_basis(n)
    h = build_hamiltonian(ModelParams(n, kappa=1.0, u=-6.24, v=-6.24, field=-0.09712), basis)
    rng = np.random.default_rng(n)
    psi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    psi /= np.linalg.norm(psi)
    assert _on_cache_lines(h.pack(psi), h.pack(np.stack([psi, 2 * psi, 3 * psi])), h._scratch, *h._packed_terms)

    # every buffer of the recursion comes from the operator, row by row on cache lines
    prop = ChebyshevPropagator(h)
    assert _on_cache_lines(prop._b._scratch, *prop._b._packed_terms)
    made = []

    def recorded(rows=None):
        made.append(PairHamiltonian.empty_packed(prop._b, rows))
        return made[-1]

    monkeypatch.setattr(prop._b, "empty_packed", recorded)
    prop.advance(h.pack(psi), 2.0, [0.5, 1.0])
    assert len(made) == 3 and _on_cache_lines(*made)  # the kept block products, the sums, the terms

    # alignment changes only the speed: a step on copies 16 bytes past a cache line is bitwise the same
    def off_line(packed):
        copy = aligned_array(packed.size + 1)[1:]
        copy[:] = packed
        return copy

    x, prev = h.pack(psi), h.pack(psi[::-1].copy())
    aligned = h.bind(x, prev, h.empty_packed())().copy()
    shifted = h.bind(off_line(x), off_line(prev), off_line(np.full_like(x, np.nan)))()
    assert shifted.ctypes.data % CACHE_LINE == 16
    assert shifted.tobytes() == aligned.tobytes()


@pytest.mark.parametrize("n", [111, 112])
def test_headline_size_products_match_loop_reference(n):
    params = ModelParams(n, kappa=1.0, u=-6.24, v=-6.24, field=-0.09712)
    h = build_hamiltonian(params, build_basis(n))
    stark = params.field * np.array(loop_pairs(n)).sum(axis=1)
    reference = loop_build_h0(params) + sparse.diags_array(stark)
    rng = np.random.default_rng(n)
    block = rng.standard_normal((5, h.shape[0])) + 1j * rng.standard_normal((5, h.shape[0]))
    block /= np.linalg.norm(block, axis=1, keepdims=True)
    assert np.max(np.abs(stencil_product(h, block) - (reference @ block.T).T)) < 1e-13
