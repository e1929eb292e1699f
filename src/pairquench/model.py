"""Two-boson basis and Hamiltonian assembly for a driven extended Bose-Hubbard chain.

Everything works in the symmetric two-particle sector spanned by the
configurations ``(i, j)`` with ``1 <= i <= j <= n_sites``.  Hamiltonians are
real-symmetric sparse matrices in that basis; states are plain complex numpy
vectors of matching dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import sparse

SQRT2 = float(np.sqrt(2.0))


class Boundary(str, Enum):
    OPEN = "open"
    RING = "ring"


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the chain.

    ``kappa`` is the hopping amplitude, ``u`` the on-site interaction, ``v``
    the nearest-neighbour interaction and ``field`` the strength of the
    linear potential ``field * sum_j j n_j`` (site labels start at 1).  A
    linear potential has no consistent meaning on a ring, so ``field`` must
    vanish for ring boundary conditions.
    """

    n_sites: int
    kappa: float
    u: float
    v: float = 0.0
    field: float = 0.0
    boundary: Boundary = Boundary.OPEN

    def __post_init__(self):
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        if self.n_sites < 2:
            raise ValueError(f"need at least 2 sites, got {self.n_sites}")
        if self.kappa < 0:
            raise ValueError(f"hopping amplitude must be non-negative, got {self.kappa}")
        if self.boundary is Boundary.RING:
            if self.field != 0.0:
                raise ValueError("a linear field is incompatible with ring boundary conditions")
            if self.n_sites < 3:
                raise ValueError("ring boundary needs at least 3 sites")


@dataclass(frozen=True, eq=False)
class TwoBosonBasis:
    """Lexicographically ordered configurations (i, j), 1 <= i <= j <= n_sites.

    ``i`` and ``j`` are read-only integer arrays: configuration ``k`` is
    ``(i[k], j[k])``.
    """

    n_sites: int
    i: np.ndarray = field(repr=False)
    j: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.i.size

    def rank(self, i, j):
        """Position of configuration (i, j); integers or integer arrays."""
        i, j = np.asarray(i), np.asarray(j)
        if np.any((i < 1) | (i > j) | (j > self.n_sites)):
            raise ValueError(f"not a configuration 1 <= i <= j <= {self.n_sites}: ({i}, {j})")
        k = (i - 1) * (2 * self.n_sites + 2 - i) // 2 + (j - i)
        return int(k) if k.ndim == 0 else k

    def unit_state(self, i: int, j: int) -> np.ndarray:
        """State vector of the single configuration (i, j)."""
        psi = np.zeros(self.dim, dtype=complex)
        psi[self.rank(i, j)] = 1.0
        return psi


def build_basis(n_sites: int) -> TwoBosonBasis:
    """Enumerate all two-boson configurations on ``n_sites`` sites."""
    if n_sites < 2:
        raise ValueError(f"need at least 2 sites, got {n_sites}")
    i, j = np.triu_indices(n_sites)
    i += 1
    j += 1
    i.flags.writeable = False
    j.flags.writeable = False
    return TwoBosonBasis(n_sites=n_sites, i=i, j=j)


def build_h0(params: ModelParams, basis: TwoBosonBasis) -> sparse.csr_array:
    """Field-free Hamiltonian: hopping plus on-site and nearest-neighbour interaction.

    Bosonic enhancement applies whenever a hop connects a doubly occupied
    site to a singly occupied pair: those elements carry ``sqrt(2) * kappa``.
    """
    n = params.n_sites
    ring = params.boundary is Boundary.RING
    i, j = basis.i, basis.j
    same = i == j
    adjacent = j - i == 1
    if ring:
        adjacent |= (i == 1) & (j == n)
    configs = np.arange(basis.dim)
    rows = [configs]
    cols = [configs]
    vals = [np.where(same, params.u, 0.0) + np.where(adjacent, params.v, 0.0)]
    # hops of the particle on i and, when i < j, of the particle on j
    start = np.concatenate([configs, configs[~same]])
    src = np.concatenate([i, j[~same]])
    other = np.concatenate([j, i[~same]])
    for step in (-1, 1):
        dst = src + step
        if ring:
            dst = (dst - 1) % n + 1
            keep = slice(None)
        else:
            keep = (dst >= 1) & (dst <= n)
        lo = np.minimum(dst[keep], other[keep])
        hi = np.maximum(dst[keep], other[keep])
        rows.append(basis.rank(lo, hi))
        cols.append(start[keep])
        vals.append(-params.kappa * np.where(same[start[keep]] | (lo == hi), SQRT2, 1.0))
    mat = sparse.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.dim, basis.dim),
    )
    return mat.tocsr()


def build_stark(field: float, basis: TwoBosonBasis) -> sparse.csr_array:
    """Linear-potential term: diagonal ``field * (i + j)`` per configuration."""
    diag = field * site_sums(basis)
    return sparse.dia_array((diag[np.newaxis, :], [0]), shape=(basis.dim, basis.dim)).tocsr()


def build_hamiltonian(params: ModelParams, basis: TwoBosonBasis) -> sparse.csr_array:
    """Full Hamiltonian including the linear field (open boundary enforced by params)."""
    h = build_h0(params, basis)
    if params.field != 0.0:
        h = h + build_stark(params.field, basis)
    return h.tocsr()


def separations(basis: TwoBosonBasis) -> np.ndarray:
    """Particle separation j - i per configuration (0 for a same-site pair)."""
    return (basis.j - basis.i).astype(float)


def site_sums(basis: TwoBosonBasis) -> np.ndarray:
    """Sum of occupied site labels i + j per configuration."""
    return (basis.i + basis.j).astype(float)
