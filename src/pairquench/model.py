"""Two-boson basis and Hamiltonian for a driven extended Bose-Hubbard chain.

Everything works in the symmetric two-particle sector spanned by the
configurations ``(i, j)`` with ``1 <= i <= j <= n_sites``; states are plain
complex numpy vectors of matching dimension, in that lexicographic order.
The Hamiltonian is a ``PairHamiltonian``: a diagonal plus the hopping,
applied matrix-free as a stencil.  Its product is two passes over
constant-offset slices of a folded copy of the state, on buffers that start
on a cache line, so no run that only propagates loads ``scipy``; ``coo``
lists its elements for a sparse or dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

SQRT2 = float(np.sqrt(2.0))

#: bytes of one cache line: every packed buffer, and every row of the folded layout, starts on one
CACHE_LINE = 64


def aligned_array(shape, alloc=np.empty) -> np.ndarray:
    """A complex array from ``alloc`` (``np.empty`` or ``np.zeros``) whose data starts on a cache line.

    Over-allocates by one ``CACHE_LINE`` and slices, so the result is a view;
    numpy alone aligns only to 16 bytes, which leaves to the allocator whether
    a stencil's stores straddle cache lines.
    """
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    nbytes = math.prod(shape) * np.dtype(complex).itemsize
    raw = alloc(nbytes + CACHE_LINE, dtype=np.uint8)
    start = -raw.ctypes.data % CACHE_LINE
    return raw[start : start + nbytes].view(complex).reshape(shape)


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
    """Where every hop of one configuration lands, on the folded layout of ``PairHamiltonian``.

    ``(i, d = j - i)`` sits in row ``d`` at column ``i - 1`` for ``d <= n // 2``,
    else in row ``n - d`` at column ``n + 1 - i``: a row of ``stride`` ``W``, ``n + 2``
    rounded up to whole cache lines of complex cells, holds separation ``d``, a
    zero gap, separation ``n - d`` reversed and zero ghost columns, below a
    zero ghost row and above a halo row.  The four hops of every cell are the
    ``shifts`` ``±(W - 1)`` and ``±W``, two pairs of adjacent cells; a hop off the basis
    lands on a zero cell, and one across the fold seam on a ``halo`` cell that
    carries the value of its ``mirror`` (the halo row, and for even ``n`` the
    back of row ``n // 2``).  ``slots`` is the cell of every configuration;
    ``wrap`` pairs ``(1, j)`` with ``(j, n)``, joined by the ring bond (empty on
    the open chain); ``scale`` is ``S``, sqrt(2) on ``(i, i)`` and 1 elsewhere,
    in basis order; ``weight`` is ``S**2`` on the layout, 0 off the slots.
    """

    n_sites: int
    ring: bool
    stride: int
    shifts: tuple[int, int, int, int]
    slots: np.ndarray
    halo: np.ndarray
    mirror: np.ndarray
    wrap: np.ndarray
    scale: np.ndarray
    weight: np.ndarray

    @classmethod
    def build(cls, basis: TwoBosonBasis, ring: bool) -> "_Hopping":
        n, i, d = basis.n_sites, basis.i, basis.j - basis.i
        line = CACHE_LINE // np.dtype(complex).itemsize
        w = -(-(n + 2) // line) * line

        def cell(i, d, fold):
            return np.where(fold, (n + 1 - d) * w + n + 1 - i, (d + 1) * w + i - 1)

        slots = cell(i, d, d > n // 2)
        # a hop within the basis that lands off its configuration's cell makes a halo cell
        halo, mirror = [], []
        for hop_i, hop_d in ((i, d + 1), (i, d - 1), (i - 1, d + 1), (i + 1, d - 1)):
            inside = (hop_i >= 1) & (hop_d >= 0) & (hop_i + hop_d <= n)
            lands = cell(hop_i, hop_d, d > n // 2)[inside]
            homes = cell(hop_i, hop_d, hop_d > n // 2)[inside]
            halo.append(lands[lands != homes])
            mirror.append(homes[lands != homes])
        halo, once = np.unique(np.concatenate(halo), return_index=True)
        mirror = np.concatenate(mirror)[once]
        sites = np.arange(1, n + 1)
        wrap = slots[np.stack([basis.rank(1, sites), basis.rank(sites, n)])] if ring else np.empty((2, 0), int)
        scale = np.where(d == 0, SQRT2, 1.0)
        weight = np.zeros((n // 2 + 3) * w)
        weight[slots] = np.where(d == 0, 2.0, 1.0)
        return cls(n, ring, w, (1 - w, w - 1, -w, w), slots, halo, mirror, wrap, scale, weight)

    def neighbour_sum(self, x: np.ndarray, out: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        """Sum of a packed state ``x`` over the one-hop neighbours of every cell, into ``out``.

        Two passes: ``pairs[q] = x[q] + x[q + 1]`` into the scratch ``pairs``
        (of ``x``'s size), then ``pairs[p - W] + pairs[p + W - 1]`` into the
        body of ``out``, every row but the ghost and halo rows (of no meaning
        off the slots).  Returns ``out``.
        """
        w, size = self.stride, x.size
        np.add(x[:-1], x[1:], out=pairs[:-1])
        np.add(pairs[: size - 2 * w], pairs[2 * w - 1 : size - 1], out=out[w:-w])
        if self.ring:
            out[self.wrap[0]] += x[self.wrap[1]]
            out[self.wrap[1]] += x[self.wrap[0]]
        return out

    def fill_halo(self, packed: np.ndarray) -> np.ndarray:
        """Zero the ghost and halo rows of a packed state or block, then copy every mirror into its halo cell."""
        w = self.stride
        packed[..., :w] = packed[..., -w:] = 0.0
        packed.T[self.halo] = packed.T[self.mirror]  # on the last axis, twice as fast as ``[..., halo]``
        return packed


class PairHamiltonian:
    """``diag(diagonal)`` plus the hopping ``-kappa`` between configurations one hop apart.

    Bosonic enhancement puts ``-sqrt(2) kappa`` on every hop between a doubly
    occupied site ``(i, i)`` and a singly occupied pair, that is
    ``-kappa S_a S_b`` for ``S = sqrt(2)`` on ``(i, i)``.  The operator is
    applied in the similar form ``S H S^-1`` on ``phi = S psi``, whose hops are
    ``-kappa`` times 2 into ``(i, i)`` and 1 elsewhere, on the folded layout of
    ``_Hopping``: ``(n_sites // 2 + 3) * W`` cells for the padded stride
    ``W >= n_sites + 2``, in which every hop is a constant shift and the ring
    bond one gather pair.  ``pack`` and ``unpack`` convert basis-order states;
    ``step`` works on packed states, which carry the mirror of every halo
    cell; ``empty_packed`` allocates them.  Every packed buffer the operator
    allocates starts on a cache line, and so does each of its rows.

    Operators from ``add_diagonal`` and ``scaled`` share the hopping tables.
    ``nnz`` counts the elements of the matrix, ``data`` is the diagonal and
    ``indices`` the cell of every configuration.
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
        """The cell of every configuration; the benchmark probe reads its ``itemsize``."""
        return self._hopping.slots

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
        sums = hop.neighbour_sum(hop.fill_halo(ones), np.zeros_like(ones), np.empty_like(ones))
        return abs(self.kappa) * hop.scale * sums[hop.slots]

    def empty_packed(self, rows: int | None = None) -> np.ndarray:
        """An uninitialised packed state, or block of ``rows`` of them, starting on a cache line."""
        size = self._hopping.weight.size
        return aligned_array(size if rows is None else (rows, size))

    def pack(self, states: np.ndarray) -> np.ndarray:
        """``S psi`` on the folded layout, for a state or every row of a block."""
        hop = self._hopping
        packed = aligned_array(states.shape[:-1] + (hop.weight.size,), alloc=np.zeros)
        packed[..., hop.slots] = states * hop.scale
        return hop.fill_halo(packed)

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """The basis-order states of packed ones, the inverse of ``pack``."""
        hop = self._hopping
        states = np.take(packed, hop.slots, axis=-1)  # a quarter of the time of ``[..., slots]`` on a block
        states /= hop.scale
        return states

    @cached_property
    def _packed_terms(self) -> tuple[np.ndarray, np.ndarray]:
        # on the body of the layout, and complex, so neither product of ``step`` casts an operand
        hop = self._hopping
        diagonal, hops = aligned_array(hop.weight.size, alloc=np.zeros), self.empty_packed()
        diagonal[hop.slots] = self._diagonal
        hops[:] = -self.kappa * hop.weight
        body = slice(hop.stride, -hop.stride)
        return diagonal[body], hops[body]

    @cached_property
    def _scratch(self) -> np.ndarray:
        return self.empty_packed()

    def step(self, x: np.ndarray, prev: np.ndarray | None, out: np.ndarray) -> np.ndarray:
        """``out = H x - prev`` (``H x`` without ``prev``) for one packed state.

        ``out`` is a packed state, zero off the slots and halo cells, when
        ``x`` and ``prev`` are; ``x`` and ``prev`` are only read and may not
        overlap ``out``.  Not reentrant: the neighbour pairs and the diagonal
        product go into the operator's own buffer.
        """
        hop = self._hopping
        diagonal, hops = self._packed_terms
        w = hop.stride
        scratch = self._scratch
        body = hop.neighbour_sum(x, out, scratch)[w:-w]
        body *= hops
        body += np.multiply(x[w:-w], diagonal, out=scratch[w:-w])
        if prev is not None:
            body -= prev[w:-w]
        return hop.fill_halo(out)

    def __matmul__(self, states: np.ndarray) -> np.ndarray:
        """``H psi`` of a basis-order state, or of every row of a block, one ``step`` per row."""
        packed = self.pack(np.asarray(states))
        out = aligned_array(packed.shape)
        rows = packed.reshape(-1, packed.shape[-1])
        for x, result in zip(rows, out.reshape(rows.shape)):
            self.step(x, None, result)
        return self.unpack(out)

    def _coo_hops(self) -> tuple[np.ndarray, np.ndarray]:
        """Basis-order ``(rows, cols)`` of every hop, read off the shift table."""
        hop = self._hopping
        owner = np.full(hop.weight.size, -1)
        owner[hop.slots] = np.arange(self.shape[0])
        owner[hop.halo] = owner[hop.mirror]
        starts = [hop.slots] * 4 + [hop.wrap[0], hop.wrap[1]]
        lands = [hop.slots + s for s in hop.shifts] + [hop.wrap[1], hop.wrap[0]]
        rows, cols = owner[np.concatenate(starts)], owner[np.concatenate(lands)]
        kept = cols >= 0  # a hop that lands on a zero cell leaves the basis
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
