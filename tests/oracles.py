"""Independent reference constructions used to cross-check the package.

The Fock-space builder assembles the Hamiltonian from literal site operators
on the full (0, 1, 2)-occupancy product space and projects onto two-particle
configurations, sharing no code with the pair-basis assembly under test.
The sector builder applies the same site operators to the occupation tuples
of the two-particle sector alone, so it reaches lattices whose product space
is out of reach.  The loop builders enumerate configurations one at a time
into a dict index and keep the element-by-element arithmetic the array code
must reproduce; ``loop_avoided_crossings`` walks every slice per level pair,
as crossing detection did before its level table.  ``MatrixOperator`` puts
any matrix behind the operator interface of the propagators, and
``SpectralPropagator`` is the exact dense reference the tests pass to
``evolve`` in place of the Chebyshev engine.  ``eigen_decay_roots`` finds the
bound-pair decay roots with an eigenvalue solver, the reference of their
closed form.

The Hamiltonian builders take ``ring=True`` for the field-free ring, which
the package does not build: it closes the chain with the bond between sites
``n`` and 1, and is the operator whose eigenstates the bound band describes.
"""

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal

from pairquench.bound_band import BandStructure, BoundState, _decay_roots, _on_site_amplitude
from pairquench.propagation import SAMPLE_BLOCK, ChebyshevPropagator, _sample_times
from pairquench.model import SQRT2, ModelParams, TwoBosonBasis
from pairquench.spectrum import TRUE_CROSSING_TOL, AvoidedCrossing, CrossingScan, _label
from pairquench.three_site import _guard

_GRID_ATOL = 1e-9


def loop_pairs(n_sites: int) -> list[tuple[int, int]]:
    """Configurations (i, j), 1 <= i <= j <= n_sites, in lexicographic order."""
    return [(i, j) for i in range(1, n_sites + 1) for j in range(i, n_sites + 1)]


def _loop_index(n_sites: int) -> dict[tuple[int, int], int]:
    return {p: k for k, p in enumerate(loop_pairs(n_sites))}


def _check_ring(params: ModelParams, ring: bool) -> None:
    """A ring needs 3 sites for two distinct neighbours, and a linear field has no meaning on it."""
    if ring and params.field != 0.0:
        raise ValueError("a linear field is incompatible with ring boundary conditions")
    if ring and params.n_sites < 3:
        raise ValueError("ring boundary needs at least 3 sites")


def _bonds(params: ModelParams, ring: bool) -> list[tuple[int, int]]:
    """Zero-based nearest-neighbour bonds, closed by ``(n - 1, 0)`` on the ring."""
    _check_ring(params, ring)
    n = params.n_sites
    return [(x, x + 1) for x in range(n - 1)] + ([(n - 1, 0)] if ring else [])


def _neighbours(site: int, n_sites: int, ring: bool) -> list[int]:
    if ring:
        return [((site - 2) % n_sites) + 1, (site % n_sites) + 1]
    out = []
    if site > 1:
        out.append(site - 1)
    if site < n_sites:
        out.append(site + 1)
    return out


def loop_build_h0(params: ModelParams, *, ring: bool = False) -> sparse.csr_array:
    """Field-free Hamiltonian of the open chain, or of the ring, assembled configuration by configuration."""
    _check_ring(params, ring)
    n = params.n_sites
    index = _loop_index(n)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for a, (i, j) in enumerate(loop_pairs(n)):
        adjacent = (j - i == 1) or (ring and (i, j) == (1, n))
        diag = (params.u if i == j else 0.0) + (params.v if adjacent else 0.0)
        rows.append(a)
        cols.append(a)
        vals.append(diag)
        moves = [(i, j)] if i == j else [(i, j), (j, i)]
        for src, other in moves:
            for dst in _neighbours(src, n, ring):
                new = (dst, other) if dst <= other else (other, dst)
                amp = SQRT2 if (i == j or new[0] == new[1]) else 1.0
                rows.append(index[new])
                cols.append(a)
                vals.append(-params.kappa * amp)
    mat = sparse.coo_array((vals, (rows, cols)), shape=(len(index), len(index)))
    return mat.tocsr()


def loop_bound_state_realspace(state: BoundState, n_sites: int) -> np.ndarray:
    """Normalized ring vector of a bound state, one configuration at a time."""
    index = _loop_index(n_sites)
    y = state.decay_ratio
    psi0 = SQRT2 * state.hop * y / (state.interaction - state.energy)
    reach = (n_sites - 1) // 2
    k = state.momentum
    site_phase = np.exp(1j * k * np.arange(1, n_sites + 1))

    amp = np.zeros(len(index), dtype=complex)
    for j in range(1, n_sites + 1):
        amp[index[(j, j)]] += psi0 * site_phase[j - 1]
    for r in range(1, reach + 1):
        pref = (y**r) * np.exp(1j * k * r / 2.0)
        for j in range(1, n_sites + 1):
            other = ((j + r - 1) % n_sites) + 1
            key = (j, other) if j <= other else (other, j)
            amp[index[key]] += pref * site_phase[j - 1]
    return amp / np.linalg.norm(amp)


def bound_state_realspace(state: BoundState, basis: TwoBosonBasis) -> np.ndarray:
    """Normalized two-boson vector of a bound state on the ring of ``basis``.

    The relative amplitudes are ``psi_0`` fixed by the first row of the chain
    eigenproblem and ``psi_r = y**r`` up to the maximal ring separation
    (n-1)/2; each separation is spread over the ring with phases
    ``exp(i K (j + r/2))``.  The array build of ``loop_bound_state_realspace``.
    """
    n_sites = basis.n_sites
    if n_sites % 2 == 0:
        raise ValueError("real-space reconstruction needs an odd ring")
    steps = state.momentum * n_sites / (2.0 * np.pi)
    if abs(steps - round(steps)) > _GRID_ATOL:
        raise ValueError(
            f"momentum {state.momentum} is not on the {n_sites}-site grid"
        )

    y = state.decay_ratio
    psi0 = _on_site_amplitude(state)
    k = state.momentum
    sites = np.arange(1, n_sites + 1)
    site_phase = np.exp(1j * k * sites)
    reach = (n_sites - 1) // 2
    r = np.arange(1, reach + 1)[:, np.newaxis]
    # scalar powers and products formed from real and imaginary parts: numpy's
    # vectorised power and complex multiply can round differently in the last
    # bit, and the vectors stay bitwise equal to an element-by-element build
    decay = np.array([[y**p] for p in range(1, reach + 1)])
    half = np.exp(1j * k * r / 2.0)
    pref_re, pref_im = decay * half.real, decay * half.imag
    # every (separation r, left site j) pair of the ring is one configuration
    other = (sites + r - 1) % n_sites + 1
    pairs = basis.rank(np.minimum(sites, other), np.maximum(sites, other))
    diagonal = basis.rank(sites, sites)
    amp = np.zeros(basis.dim, dtype=complex)
    amp.real[diagonal] = psi0 * site_phase.real
    amp.imag[diagonal] = psi0 * site_phase.imag
    amp.real[pairs] = pref_re * site_phase.real - pref_im * site_phase.imag
    amp.imag[pairs] = pref_re * site_phase.imag + pref_im * site_phase.real
    return amp / np.linalg.norm(amp)


def all_states(band: BandStructure) -> list[BoundState]:
    """Every bound state of ``band``, sector by sector."""
    return [s for group in band.states for s in group]


def bound_columns(band: BandStructure, basis: TwoBosonBasis):
    """``(state, vector)`` of every bound state of ``band``, one at a time.

    The vectors are the columns of the dense dim x states bound-state matrix
    that the table projection of ``BandStructure.bound_matrix`` replaces.
    """
    for state in all_states(band):
        yield state, bound_state_realspace(state, basis)


def dense_bound_weight(states: np.ndarray, band: BandStructure, basis: TwoBosonBasis) -> np.ndarray:
    """Bound-band weight of a state, or of every row of a block, column by column."""
    total = 0.0
    for _, column in bound_columns(band, basis):
        total = total + np.abs(states.conj() @ column) ** 2
    return total


def dense_superpose(coef: np.ndarray, band: BandStructure, basis: TwoBosonBasis) -> np.ndarray:
    """``sum coef[g, slot]`` times the bound state ``slot`` of the sector ``band.momenta[g]``,
    column by column: the reference of ``BoundProjector.superpose``."""
    psi = np.zeros(basis.dim, dtype=complex)
    for row, group in zip(coef, band.states):
        for slot, state in enumerate(group):
            psi += row[slot] * bound_state_realspace(state, basis)
    return psi


def eigen_decay_roots(reduced_u: float) -> list[float]:
    """Real roots of the decay cubic ``u y^3 + (u^2 - 1) y^2 + 2u y + 1`` with 0 < |y| < 1, by ``np.roots``.

    The eigenvalues of the companion matrix (LAPACK ``dgeev``) with an imaginary
    part below 1e-9 of their size, then the same four Newton steps as
    ``bound_band._decay_roots``: the reference of its closed form.
    """
    u = reduced_u
    out = []
    for y in np.roots([u, u * u - 1.0, 2.0 * u, 1.0]):
        if abs(y.imag) > 1e-9 * max(1.0, abs(y.real)):
            continue
        y = float(y.real)
        if not 1e-14 < abs(y) < 1.0 - 1e-12:
            continue
        for _ in range(4):
            p = u * y**3 + (u * u - 1.0) * y**2 + 2.0 * u * y + 1.0
            dp = 3.0 * u * y**2 + 2.0 * (u * u - 1.0) * y + 2.0 * u
            y -= p / dp
        out.append(y)
    return sorted(set(out))


def chain_bands(hop: float, interaction: float, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the truncated relative chain r = 0 .. length."""
    diag = np.zeros(length + 1)
    diag[:2] = interaction
    off = -hop * np.ones(length)
    off[0] *= SQRT2
    return diag, off


def build_heq(momentum: float, kappa: float, interaction: float, length: int) -> sparse.csr_array:
    """Truncated relative-motion chain of the K sector, dimension ``length + 1``.

    Sites are relative separations r = 0 .. length; the 0-1 link carries
    ``-sqrt(2) J_K``, every further link ``-J_K``, and the interaction sits
    on r = 0 and r = 1.
    """
    if length < 1:
        raise ValueError("chain length must be at least 1")
    hop = 2.0 * kappa * np.cos(momentum / 2.0)
    diag, off = chain_bands(hop, interaction, length)
    return sparse.diags_array([off, diag, off], offsets=[-1, 0, 1]).tocsr()


def chain_isolated_energies(hop: float, interaction: float, length: int) -> np.ndarray:
    """Eigenvalues of the truncated chain lying outside the scattering band.

    Bisection over the two outer intervals only: the same levels as a full
    ``eigh_tridiagonal`` at a fraction of its cost on a 401-site chain.
    """
    diag, off = chain_bands(hop, interaction, length)
    edge = 2.0 * abs(hop) + 1e-12
    reach = abs(interaction) + (1.0 + SQRT2) * abs(hop) + 1.0  # Gershgorin bound
    return np.concatenate([
        eigh_tridiagonal(diag, off, eigvals_only=True, select="v", select_range=limits)
        for limits in ((-reach, -edge), (edge, reach))
    ])


def chain_checked_roots(
    momentum: float, kappa: float, interaction: float, length: int = 400, match_tol: float = 1e-6
) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """``(beta, energy)`` of every decay root, split into the roots an isolated
    level of the truncated chain matches to ``match_tol`` and the rest.

    This is the truncated-chain check that the analytic decay cutoff of
    ``solve_bound_states`` replaces.
    """
    hop = 2.0 * kappa * np.cos(momentum / 2.0)
    if abs(hop) < 1e-12 or interaction == 0.0:
        return [], []
    roots = sorted(
        (float(-np.log(abs(y))), float(-hop * (y + 1.0 / y)))
        for y in _decay_roots(interaction / hop)
    )
    if not roots:
        return [], []
    levels = chain_isolated_energies(hop, interaction, length)
    matched = [
        levels.size > 0 and np.min(np.abs(levels - energy)) < match_tol for _, energy in roots
    ]
    return (
        [r for r, ok in zip(roots, matched) if ok],
        [r for r, ok in zip(roots, matched) if not ok],
    )


def stencil_product(h, states: np.ndarray) -> np.ndarray:
    """``H psi`` of a basis-order state, or of every row of a block, through ``h.pack``, ``h.bind`` and ``h.unpack``."""
    packed = np.atleast_2d(h.pack(np.asarray(states)))
    out = np.empty_like(packed)
    for x, result in zip(packed, out):
        h.bind(x, None, result)()
    return h.unpack(out).reshape(np.shape(states))


class MatrixOperator:
    """A dense or sparse matrix behind the operator interface of the propagators.

    The packed layout is the basis order itself, and every product is a CSR
    product, so the propagators run on an arbitrary real-symmetric matrix.
    """

    def __init__(self, matrix):
        self.matrix = sparse.csr_array(matrix)
        self.shape = self.matrix.shape

    def bounding(self) -> tuple["MatrixOperator", "MatrixOperator"]:
        """``(D - |O|, D + |O|)`` for the diagonal ``D`` and the off-diagonal part ``O``."""
        diagonal = sparse.diags(self.matrix.diagonal())
        off = abs(self.matrix - diagonal)
        return MatrixOperator(diagonal - off), MatrixOperator(diagonal + off)

    def scaled(self, shift: float, factor: float | complex) -> "MatrixOperator":
        return MatrixOperator((self.matrix - sparse.identity(self.shape[0]) * shift) * factor)

    def empty_packed(self, rows: int | None = None) -> np.ndarray:
        return np.empty(self.shape[0] if rows is None else (rows, self.shape[0]), dtype=complex)

    def pack(self, states: np.ndarray) -> np.ndarray:
        return states.astype(complex)

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        return packed

    def bind(self, x: np.ndarray, prev, out: np.ndarray):
        def kernel() -> np.ndarray:
            out[:] = self.matrix @ x if prev is None else self.matrix @ x + prev
            return out

        return kernel

    def __matmul__(self, states: np.ndarray) -> np.ndarray:
        return (self.matrix @ np.asarray(states).T).T

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()


class SpectralPropagator:
    """Exact evolution through a dense eigendecomposition of ``h``, which it keeps.

    ``h`` has ``toarray()`` and ``pack()``: like the Chebyshev engine, it
    yields its states on ``h``'s packed layout.
    """

    def __init__(self, h):
        self.h = h
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(h.toarray())

    def samples(self, psi0: np.ndarray, times):
        """Packed states at strictly increasing ``times`` >= 0, ``SAMPLE_BLOCK`` rows per block."""
        times = _sample_times(times)
        coef = self.eigenvectors.T @ psi0
        for start in range(0, times.size, SAMPLE_BLOCK):
            phases = np.exp(-1j * np.outer(times[start : start + SAMPLE_BLOCK], self.eigenvalues))
            yield self.h.pack((phases * coef) @ self.eigenvectors.T)


def loop_chebyshev_advance(prop: ChebyshevPropagator, psi: np.ndarray, dt: float) -> np.ndarray:
    """One Chebyshev step as the recursion on the real rescaled operator.

    Rebuilds the real operator as a CSR matrix from the dense matrix of
    ``prop.h`` and ``prop``'s bounds, forms each term as a fresh
    ``2 A cur - prev`` and applies the term phase ``(-i)^k`` and the phase
    ``exp(-i center dt)`` itself; shares only the real coefficients ``2 J_k``.
    """
    dim = prop.h.shape[0]
    matrix = sparse.csr_array(prop.h.toarray())
    scaled = (matrix - sparse.identity(dim, format="csr") * prop.center) * (1.0 / prop.halfwidth)
    coef = prop._coefficients(dt)
    prev = psi.astype(complex, copy=True)
    cur = scaled @ prev
    acc = coef[0] * prev + coef[1] * -1j * cur
    for k, c in enumerate(coef[2:], start=2):
        prev, cur = cur, 2.0 * (scaled @ cur) - prev
        acc += c * (-1j) ** (k % 4) * cur
    return acc * np.exp(-1j * prop.center * dt)


def _lowering(n_max: int = 2) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)


def fock_operators(n_sites: int, n_max: int = 2) -> list[sparse.csr_array]:
    """Annihilation operator per site on the occupancy product space."""
    a = sparse.csr_array(_lowering(n_max))
    eye = sparse.identity(n_max + 1, format="csr")
    ops = []
    for site in range(n_sites):
        mat = None
        for k in range(n_sites):
            factor = a if k == site else eye
            mat = factor if mat is None else sparse.kron(mat, factor, format="csr")
        ops.append(mat.tocsr())
    return ops


def fock_hamiltonian(params: ModelParams, n_max: int = 2, *, ring: bool = False) -> sparse.csr_array:
    bonds = _bonds(params, ring)
    ops = fock_operators(params.n_sites, n_max)
    n = params.n_sites
    num = [op.conj().T @ op for op in ops]
    h = None
    for x, y in bonds:
        term = -params.kappa * (ops[x].conj().T @ ops[y] + ops[y].conj().T @ ops[x])
        h = term if h is None else h + term
    for j in range(n):
        h = h + 0.5 * params.u * (num[j] @ num[j] - num[j])
    for x, y in bonds:
        h = h + params.v * (num[x] @ num[y])
    for j in range(n):
        h = h + params.field * (j + 1) * num[j]
    return h.tocsr()


def fock_index(occupation: tuple[int, ...], n_max: int = 2) -> int:
    idx = 0
    for occ in occupation:
        idx = idx * (n_max + 1) + occ
    return idx


def fock_two_boson_matrix(params: ModelParams, basis: TwoBosonBasis, *, ring: bool = False) -> np.ndarray:
    """Pair-basis matrix of the Fock Hamiltonian (configurations map to single
    Fock basis vectors, so projection is a row/column selection)."""
    h = fock_hamiltonian(params, ring=ring).toarray()
    indices = []
    for i, j in loop_pairs(basis.n_sites):
        occ = [0] * params.n_sites
        occ[i - 1] += 1
        occ[j - 1] += 1
        indices.append(fock_index(tuple(occ)))
    sel = np.asarray(indices)
    return h[np.ix_(sel, sel)]


def fock_sector_matrix(params: ModelParams, *, ring: bool = False) -> np.ndarray:
    """Dense Hamiltonian on the two-particle sector, configurations in lexicographic order.

    Each basis vector is an occupation tuple with two bosons; ``b_x^dag b_y``
    acts on it by the literal rule ``sqrt(n_y) sqrt(n_x + 1)``, the
    interactions are ``u n (n - 1) / 2`` per site and ``v n_x n_y`` per bond,
    and the field is ``field * x * n_x``.  Shares only the site and bond
    lists with ``fock_hamiltonian``.
    """
    n = params.n_sites
    pairs = loop_pairs(n)
    states = []
    for i, j in pairs:
        occ = [0] * n
        occ[i - 1] += 1
        occ[j - 1] += 1
        states.append(tuple(occ))
    index = {occ: k for k, occ in enumerate(states)}
    bonds = _bonds(params, ring)
    h = np.zeros((len(states), len(states)))
    for col, occ in enumerate(states):
        h[col, col] = sum(0.5 * params.u * m * (m - 1) + params.field * (x + 1) * m for x, m in enumerate(occ))
        h[col, col] += sum(params.v * occ[x] * occ[y] for x, y in bonds)
        for x, y in bonds:
            for to, frm in ((x, y), (y, x)):
                if occ[frm] == 0:
                    continue
                new = list(occ)
                amp = np.sqrt(new[frm])
                new[frm] -= 1
                amp *= np.sqrt(new[to] + 1)
                new[to] += 1
                h[index[tuple(new)], col] += -params.kappa * amp
    return h


def free_scattering_state(basis: TwoBosonBasis, k1: int, k2: int) -> tuple[np.ndarray, float]:
    """Exact two-boson eigenstate of the free open chain from symmetrized sine modes."""
    n = basis.n_sites
    modes = np.sin(np.pi * np.outer((k1, k2), np.arange(1, n + 1)) / (n + 1))
    f, g = modes
    amp = np.zeros(basis.dim)
    for a, (i, j) in enumerate(loop_pairs(n)):
        if i == j:
            amp[a] = np.sqrt(2.0) * f[i - 1] * g[i - 1]
        else:
            amp[a] = f[i - 1] * g[j - 1] + f[j - 1] * g[i - 1]
    amp = amp / np.linalg.norm(amp)
    energy = -2.0 * (np.cos(np.pi * k1 / (n + 1)) + np.cos(np.pi * k2 / (n + 1)))
    return amp.astype(complex), float(energy)


def energy_distribution(psi0: np.ndarray, h, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Smallest set of eigenpairs carrying at least ``mass`` of the state.

    ``h`` may be a dense/sparse matrix or a precomputed ``(eigenvalues,
    eigenvectors)`` pair.  Returns ``(energies, weights)`` sorted by energy.
    """
    if not 0.0 < mass <= 1.0:
        raise ValueError(f"mass must lie in (0, 1], got {mass}")
    if isinstance(h, tuple):
        vals, vecs = h
    else:
        vals, vecs = np.linalg.eigh(h.toarray())
    weights = np.abs(vecs.conj().T @ psi0) ** 2
    order = np.argsort(weights)[::-1]
    cumulative = np.cumsum(weights[order])
    count = int(np.searchsorted(cumulative, mass * (1.0 - 1e-12)) + 1)
    count = min(count, weights.size)
    chosen = order[:count]
    by_energy = chosen[np.argsort(vals[chosen])]
    return vals[by_energy], weights[by_energy]


def pair_unpair_hamiltonian(field: float, u: float, v: float, kappa: float) -> np.ndarray:
    """Effective 2x2 Hamiltonian of the three-site chain over (unpaired, paired).

    The diagonal carries the field energies of the two configurations plus
    second-order shifts; the off-diagonal is the pair-breaking coupling.
    Valid deep in the strong-interaction regime; its eigenvalues are the
    reference for ``rabi_constants``.
    """
    scale = max(abs(field), abs(u), abs(v))
    _guard(u - field - v, "u - field - v", scale)
    _guard(field - v, "field - v", scale)
    _guard(field**2 - v**2, "field^2 - v^2", scale)
    k2 = np.sqrt(2.0) * kappa**2
    coupling = 0.5 * (k2 / (u - field - v) + k2 / (field - v))
    e_unpair = 4.0 * field + 2.0 * kappa**2 * v / (field**2 - v**2)
    e_pair = u + 2.0 * field + 2.0 * kappa**2 / (u - v - field)
    return np.array([[e_unpair, coupling], [coupling, e_pair]])


def loop_avoided_crossings(slices, r_threshold: float = 1.0) -> CrossingScan:
    """``detect_avoided_crossings`` by per-slice dicts and a walk over every slice per level pair."""
    energy_of = [dict(zip(s.level_ids.tolist(), s.energies.tolist())) for s in slices]
    corr_of = [dict(zip(s.level_ids.tolist(), s.correlations.tolist())) for s in slices]
    pairs = set()
    for slc in slices:
        sorted_ids = slc.level_ids[np.argsort(slc.energies)]
        for x, y in zip(sorted_ids[:-1].tolist(), sorted_ids[1:].tolist()):
            pairs.add((min(x, y), max(x, y)))
    avoided, exact = [], []
    for a, b in sorted(pairs):
        gaps = [abs(e[a] - e[b]) if a in e and b in e else None for e in energy_of]
        for s in range(1, len(slices) - 1):
            trio = gaps[s - 1 : s + 2]
            if None in trio or not (trio[1] <= trio[0] and trio[1] <= trio[2]):
                continue
            early = corr_of[s - 1]
            event = AvoidedCrossing(
                slices[s].field, trio[1], (a, b), (_label(early[a], r_threshold), _label(early[b], r_threshold))
            )
            scale = max(1.0, abs(energy_of[s][a]), abs(energy_of[s][b]))
            (exact if trio[1] <= TRUE_CROSSING_TOL * scale else avoided).append(event)
    return CrossingScan(avoided, exact, [segment for slc in slices for segment in slc.ambiguous])
