"""Two-boson basis and Hamiltonian for a driven extended Bose-Hubbard chain.

Everything works in the symmetric two-particle sector spanned by the
configurations ``(i, j)`` with ``1 <= i <= j <= n_sites``; states are plain
complex numpy vectors of matching dimension, in that lexicographic order.
The Hamiltonian is a ``PairHamiltonian``: a diagonal plus the hopping,
applied matrix-free as a stencil.  Its product is numpy slicing and one
gather on a padded copy of the state, so no run that only propagates
loads ``scipy``; ``coo`` lists its elements for a sparse or dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

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


@dataclass(frozen=True, eq=False)
class _Hopping:
    """Where every hop of one particle lands, on the padded layout of ``PairHamiltonian``.

    ``slots`` is the padded position of every configuration; ``gather`` the
    positions of ``(i + 1, j)`` and ``(i - 1, j)`` for every position, the
    zero ghost 0 where the hop leaves the basis; ``wrap`` pairs ``(1, j)``
    with ``(j, n)``, which the ring bond joins (empty on the open chain);
    ``scale`` is ``S``, sqrt(2) on ``(i, i)`` and 1 elsewhere, in basis order;
    ``weight`` is ``S**2`` on the padded layout, 0 on the ghosts.
    """

    n_sites: int
    ring: bool
    slots: np.ndarray
    gather: np.ndarray
    wrap: np.ndarray
    scale: np.ndarray
    weight: np.ndarray

    @classmethod
    def build(cls, basis: TwoBosonBasis, ring: bool) -> "_Hopping":
        n, i, j = basis.n_sites, basis.i, basis.j
        # one zero ghost before the first i-row and after every i-row
        slots = np.arange(basis.dim) + i

        def slot(a, b):
            return basis.rank(a, b) + a

        gather = np.zeros((2, basis.dim + n + 1), dtype=np.intp)
        up, down = i < j, i > 1
        gather[0, slots[up]] = slot(i[up] + 1, j[up])
        gather[1, slots[down]] = slot(i[down] - 1, j[down])
        sites = np.arange(1, n + 1)
        wrap = np.stack([slot(1, sites), slot(sites, n)]) if ring else np.empty((2, 0), dtype=np.intp)
        scale = np.where(i == j, SQRT2, 1.0)
        weight = np.zeros(gather.shape[1])
        weight[slots] = np.where(i == j, 2.0, 1.0)
        return cls(n_sites=n, ring=ring, slots=slots, gather=gather, wrap=wrap, scale=scale, weight=weight)

    def neighbour_sum(self, x: np.ndarray, taken: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Sum of a padded state ``x`` over the one-hop neighbours of every position.

        Second-particle hops are the slices one position up and down, the
        ghosts standing in for the end of a row; first-particle hops are one
        gather into ``taken`` (shape ``gather.shape``).  Ghost positions of
        ``out`` hold sums of no meaning.
        """
        # every index is valid, and the clipping gather is about twice as fast as the checked one
        np.take(x, self.gather, out=taken, mode="clip")
        np.add(taken[0], taken[1], out=out)
        out[1:] += x[:-1]
        out[:-1] += x[1:]
        if self.ring:
            out[self.wrap[0]] += x[self.wrap[1]]
            out[self.wrap[1]] += x[self.wrap[0]]
        return out


class PairHamiltonian:
    """``diag(diagonal)`` plus the hopping ``-kappa`` between configurations one hop apart.

    Bosonic enhancement puts ``-sqrt(2) kappa`` on every hop between a doubly
    occupied site ``(i, i)`` and a singly occupied pair, that is
    ``-kappa S_a S_b`` for ``S = sqrt(2)`` on ``(i, i)``.  The operator is
    applied in the similar form ``S H S^-1`` on ``phi = S psi``, whose hops are
    ``-kappa`` times 2 into ``(i, i)`` and 1 elsewhere, on a padded layout:
    the configurations in basis order with one zero ghost before the first
    ``i``-row and after every ``i``-row, ``dim + n_sites + 1`` positions.  So
    a hop of the second particle is a shift by one position, one of the
    first particle a gather, and the ring bond one more gather.  ``pack`` and
    ``unpack`` convert basis-order states; ``step`` works on packed states.

    Operators from ``add_diagonal`` and ``scaled`` share the hopping tables.
    ``nnz`` counts the elements of the matrix, ``data`` is the diagonal and
    ``indices`` the gather table of the first particle's hops.
    """

    def __init__(self, hopping: _Hopping, kappa: float, diagonal: np.ndarray):
        self._hopping = hopping
        self.kappa = float(kappa)
        self._diagonal = np.array(diagonal, dtype=float)
        self._diagonal.flags.writeable = False
        dim = self._diagonal.size
        self.shape = (dim, dim)

    @property
    def n_sites(self) -> int:
        return self._hopping.n_sites

    @property
    def ring(self) -> bool:
        return self._hopping.ring

    @property
    def data(self) -> np.ndarray:
        return self._diagonal

    @property
    def indices(self) -> np.ndarray:
        return self._hopping.gather

    @property
    def nnz(self) -> int:
        return self._coo_hops()[0].size + self.shape[0]

    def diagonal(self) -> np.ndarray:
        """The diagonal in basis order (read-only)."""
        return self._diagonal

    def add_diagonal(self, values: np.ndarray) -> "PairHamiltonian":
        """This operator plus ``diag(values)``."""
        return PairHamiltonian(self._hopping, self.kappa, self._diagonal + values)

    def scaled(self, shift: float, factor: float) -> "PairHamiltonian":
        """The operator ``factor * (self - shift)``."""
        return PairHamiltonian(self._hopping, self.kappa * factor, (self._diagonal - shift) * factor)

    def radii(self) -> np.ndarray:
        """Gershgorin radii: the off-diagonal absolute row sums, in basis order."""
        hop = self._hopping
        ones = np.zeros(hop.weight.size)
        ones[hop.slots] = hop.scale
        sums = hop.neighbour_sum(ones, np.empty(hop.gather.shape), np.empty(hop.weight.size))
        return abs(self.kappa) * hop.scale * sums[hop.slots]

    def pack(self, states: np.ndarray) -> np.ndarray:
        """``S psi`` on the padded layout, for a state or every row of a block."""
        hop = self._hopping
        packed = np.zeros(states.shape[:-1] + (hop.weight.size,), dtype=complex)
        packed[..., hop.slots] = states * hop.scale
        return packed

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """The basis-order states of packed ones, the inverse of ``pack``."""
        hop = self._hopping
        states = packed[..., hop.slots]
        states /= hop.scale
        return states

    @cached_property
    def _packed_terms(self) -> tuple[np.ndarray, np.ndarray]:
        # complex, so neither product of ``step`` casts an operand
        hop = self._hopping
        diagonal = np.zeros(hop.weight.size, dtype=complex)
        diagonal[hop.slots] = self._diagonal
        return diagonal, (-self.kappa * hop.weight).astype(complex)

    @cached_property
    def _scratch(self) -> tuple[np.ndarray, np.ndarray]:
        size = self._hopping.weight.size
        return np.empty((2, size), dtype=complex), np.empty(size, dtype=complex)

    def step(self, x: np.ndarray, prev: np.ndarray | None, out: np.ndarray) -> np.ndarray:
        """``out = H x - prev`` (``H x`` without ``prev``) for one packed state.

        The ghosts of ``out`` are zero when those of ``x`` and ``prev`` are.
        Not reentrant: the gather buffers are the operator's own.
        """
        diagonal, hops = self._packed_terms
        sums = self._hopping.neighbour_sum(x, *self._scratch)
        np.multiply(sums, hops, out=sums)
        np.multiply(x, diagonal, out=out)
        out += sums
        if prev is not None:
            out -= prev
        return out

    def __matmul__(self, states: np.ndarray) -> np.ndarray:
        """``H psi`` of a basis-order state, or of every row of a block, one ``step`` per row."""
        packed = self.pack(np.asarray(states))
        out = np.empty_like(packed)
        rows = packed.reshape(-1, packed.shape[-1])
        for x, result in zip(rows, out.reshape(rows.shape)):
            self.step(x, None, result)
        return self.unpack(out)

    def _coo_hops(self) -> tuple[np.ndarray, np.ndarray]:
        """Basis-order ``(rows, cols)`` of every hop, read off the padded tables."""
        hop = self._hopping
        owner = np.full(hop.weight.size, -1)
        owner[hop.slots] = np.arange(self.shape[0])
        starts = [hop.slots] * 4 + [hop.wrap[0], hop.wrap[1]]
        lands = [hop.slots - 1, hop.slots + 1, *hop.gather[:, hop.slots], hop.wrap[1], hop.wrap[0]]
        rows, cols = owner[np.concatenate(starts)], owner[np.concatenate(lands)]
        kept = cols >= 0  # a landing ghost is a hop off the basis
        return rows[kept], cols[kept]

    def coo(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """``(values, (rows, cols))`` of every element, the diagonal first, in basis order.

        The input ``scipy.sparse.csr_array`` takes; no element repeats.
        """
        rows, cols = self._coo_hops()
        scale = self._hopping.scale
        configs = np.arange(self.shape[0])
        values = np.concatenate([self._diagonal, -self.kappa * scale[rows] * scale[cols]])
        return values, (np.concatenate([configs, rows]), np.concatenate([configs, cols]))

    def toarray(self) -> np.ndarray:
        """The dense matrix."""
        values, index = self.coo()
        dense = np.zeros(self.shape)
        dense[index] = values
        return dense


def build_h0(params: ModelParams, basis: TwoBosonBasis) -> PairHamiltonian:
    """Field-free Hamiltonian: hopping plus on-site and nearest-neighbour interaction."""
    ring = params.boundary is Boundary.RING
    i, j = basis.i, basis.j
    adjacent = j - i == 1
    if ring:
        adjacent |= (i == 1) & (j == params.n_sites)
    diagonal = np.where(i == j, params.u, 0.0) + np.where(adjacent, params.v, 0.0)
    return PairHamiltonian(_Hopping.build(basis, ring), params.kappa, diagonal)


def build_stark(field: float, basis: TwoBosonBasis) -> np.ndarray:
    """Linear-potential term: the diagonal ``field * (i + j)`` per configuration."""
    return field * site_sums(basis)


def build_hamiltonian(params: ModelParams, basis: TwoBosonBasis) -> PairHamiltonian:
    """Full Hamiltonian including the linear field (open boundary enforced by params)."""
    h = build_h0(params, basis)
    if params.field != 0.0:
        h = h.add_diagonal(build_stark(params.field, basis))
    return h


def separations(basis: TwoBosonBasis) -> np.ndarray:
    """Particle separation j - i per configuration (0 for a same-site pair)."""
    return (basis.j - basis.i).astype(float)


def site_sums(basis: TwoBosonBasis) -> np.ndarray:
    """Sum of occupied site labels i + j per configuration."""
    return (basis.i + basis.j).astype(float)
