"""Two-boson basis and Hamiltonian for a driven extended Bose-Hubbard chain.

Everything works in the symmetric two-particle sector spanned by the
configurations ``(i, j)`` with ``1 <= i <= j <= n_sites``; states are plain
complex numpy vectors of matching dimension, in that lexicographic order.
The Hamiltonian is a ``PairHamiltonian``: a diagonal plus the hopping,
applied matrix-free as a stencil.  Its product is two passes over
constant-offset slices of a folded copy of the state, on buffers that start
on a cache line, so no run that only propagates loads ``scipy``; ``bind``
takes every view of one product once, so a recursion pays only the numpy
passes per term.  ``bounding`` gives the pair ``(D - |O|, D + |O|)`` whose
bound products give the spectral bounds; ``cell_weights`` and
``expectations`` read observables of blocks of packed states without
unpacking them; ``coo`` lists the elements for a sparse or dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the open chain.

    ``kappa`` is the hopping amplitude, ``u`` the on-site interaction and
    ``v`` the nearest-neighbour interaction.  The linear field is an input
    of each job, not of the chain (``build_hamiltonian(params, field, basis)``).
    """

    n_sites: int
    kappa: float
    u: float
    v: float

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"need at least 2 sites, got {self.n_sites}")
        if self.kappa < 0:
            raise ValueError(f"hopping amplitude must be non-negative, got {self.kappa}")


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
    ``scale`` is ``S``, sqrt(2) on ``(i, i)`` and 1 elsewhere, in basis order;
    ``weight`` is ``S**2`` on the layout, 0 off the slots.
    """

    n_sites: int
    stride: int
    shifts: tuple[int, int, int, int]
    slots: np.ndarray
    halo: np.ndarray
    mirror: np.ndarray
    scale: np.ndarray
    weight: np.ndarray

    @classmethod
    def build(cls, basis: TwoBosonBasis) -> "_Hopping":
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
        scale = np.where(d == 0, SQRT2, 1.0)
        weight = np.zeros((n // 2 + 3) * w)
        weight[slots] = np.where(d == 0, 2.0, 1.0)
        return cls(n, w, (1 - w, w - 1, -w, w), slots, halo, mirror, scale, weight)

    def cell_weights(self, columns: np.ndarray) -> np.ndarray:
        """``columns / scale**2`` per float64 of the layout on the slots, 0 elsewhere (``PairHamiltonian.cell_weights``)."""
        columns = np.asarray(columns, dtype=float)
        weights = np.zeros((self.weight.size,) + columns.shape[1:])
        weights[self.slots] = columns / (self.scale**2).reshape((-1,) + (1,) * (columns.ndim - 1))
        return np.repeat(weights, 2, axis=0)

    @cached_property
    def inverse_weight(self) -> np.ndarray:
        """``1 / scale**2`` per float64 of the layout on the slots, 0 elsewhere; one table for every operator on it."""
        return self.cell_weights(np.ones(self.slots.size))


class PairHamiltonian:
    """``diag(diagonal)`` plus the hopping ``-kappa`` between configurations one hop apart.

    Bosonic enhancement puts ``-sqrt(2) kappa`` on every hop between a doubly
    occupied site ``(i, i)`` and a singly occupied pair, that is
    ``-kappa S_a S_b`` for ``S = sqrt(2)`` on ``(i, i)``.  The operator is
    applied in the similar form ``S H S^-1`` on ``phi = S psi``, whose hops are
    ``-kappa`` times 2 into ``(i, i)`` and 1 elsewhere, on the folded layout of
    ``_Hopping``: ``(n_sites // 2 + 3) * W`` cells for the padded stride
    ``W >= n_sites + 2``, in which every hop is a constant shift.  ``pack``
    and ``unpack`` convert basis-order states; ``bind`` works on packed
    states, which carry the mirror of every halo cell; ``empty_packed``
    allocates them.  Every packed buffer the operator allocates starts on a
    cache line, and so does each of its rows.

    Operators from ``add_diagonal``, ``scaled`` and ``bounding`` share the
    hopping tables; ``scaled`` by a complex factor gives a complex operator,
    such as the ``-2i A`` the Chebyshev recursion runs on.
    ``nnz`` counts the elements of the matrix, ``data`` is the diagonal and
    ``indices`` the cell of every configuration.
    """

    def __init__(self, hopping: _Hopping, kappa: float | complex, diagonal: np.ndarray):
        self._hopping = hopping
        self.kappa = kappa
        self._diagonal = np.array(diagonal, dtype=np.result_type(diagonal, float))
        self._diagonal.flags.writeable = False
        dim = self._diagonal.size
        self.shape = (dim, dim)

    @property
    def n_sites(self) -> int:
        return self._hopping.n_sites

    @property
    def data(self) -> np.ndarray:
        return self._diagonal

    @property
    def indices(self) -> np.ndarray:
        """The cell of every configuration on the packed layout (the benchmark probe reads its ``itemsize``)."""
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

    def scaled(self, shift: float, factor: float | complex) -> "PairHamiltonian":
        """The operator ``factor * (self - shift)``."""
        return PairHamiltonian(self._hopping, self.kappa * factor, (self._diagonal - shift) * factor)

    def bounding(self) -> tuple["PairHamiltonian", "PairHamiltonian"]:
        """``(L, U) = (D - |O|, D + |O|)`` for the diagonal ``D`` and the hopping ``O``: hops ``-|kappa|``, then ``+|kappa|``.

        For positive basis-order weights ``x``, ``(L x)_i / x_i`` and
        ``(U x)_i / x_i`` are the ends of the Gershgorin interval of row ``i``
        of ``X^-1 H X``, ``X = diag(x)``, which is similar to ``H``.  Both
        ``c - L`` and ``U - c`` are non-negative matrices for a large enough ``c``.
        """
        hop, kappa = self._hopping, abs(self.kappa)
        return PairHamiltonian(hop, kappa, self._diagonal), PairHamiltonian(hop, -kappa, self._diagonal)

    def empty_packed(self, rows: int | None = None) -> np.ndarray:
        """An uninitialised packed state, or block of ``rows`` of them, starting on a cache line."""
        size = self._hopping.weight.size
        return aligned_array(size if rows is None else (rows, size))

    def pack(self, states: np.ndarray) -> np.ndarray:
        """``S psi`` on the folded layout, for a state or every row of a block."""
        hop = self._hopping
        packed = aligned_array(states.shape[:-1] + (hop.weight.size,), alloc=np.zeros)
        packed[..., hop.slots] = states * hop.scale
        packed.T[hop.halo] = packed.T[hop.mirror]  # on the last axis, twice as fast as ``[..., halo]``
        return packed

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

    def cell_weights(self, columns: np.ndarray) -> np.ndarray:
        """``columns / S**2`` per float64 of the packed layout on the slots, 0 elsewhere.

        ``columns`` is one basis-order column or several side by side.  The
        squared float64 view of a packed block times the result sums ``|psi|**2``
        times each column over the basis, for every row: ``|phi|**2 / S**2`` is
        ``|psi|**2`` on a slot, and the ghost and halo cells weigh 0.
        """
        return self._hopping.cell_weights(columns)

    def bind(self, x: np.ndarray, prev: np.ndarray | None, out: np.ndarray):
        """A call that sets ``out = H x + prev`` (``H x`` without ``prev``) for packed states, and returns ``out``.

        Every view and table of the product is taken here, and the ghost
        rows of ``out``, which no pass writes, are zeroed here, so each call
        is six numpy passes and the halo copy; a recursion binds each of its
        buffers once and calls the result once per term.  ``out`` is a packed
        state, zero off the slots and halo cells, when ``x`` and ``prev`` are;
        ``x`` and ``prev`` are only read and may not overlap ``out``.  Not
        reentrant: the neighbour pairs and the diagonal product go into the
        operator's own buffer.
        """
        hop = self._hopping
        diagonal, hops = self._packed_terms
        w, size, scratch = hop.stride, x.size, self._scratch
        # pairs[q] = x[q] + x[q + 1] into the scratch, then pairs[p - W] + pairs[p + W - 1]
        # into every row of out but the ghost and halo rows (of no meaning off the slots)
        x_lo, x_hi, pairs = x[:-1], x[1:], scratch[:-1]
        left, right, body = scratch[: size - 2 * w], scratch[2 * w - 1 : size - 1], out[w:-w]
        x_body, product = x[w:-w], scratch[w:-w]
        prev_body = None if prev is None else prev[w:-w]
        halo, mirror = hop.halo, hop.mirror
        add, multiply = np.add, np.multiply
        out[:w] = out[-w:] = 0.0

        def kernel() -> np.ndarray:
            add(x_lo, x_hi, out=pairs)
            add(left, right, out=body)
            multiply(body, hops, out=body)
            multiply(x_body, diagonal, out=product)
            add(body, product, out=body)
            if prev_body is not None:
                add(body, prev_body, out=body)
            out[halo] = out[mirror]
            return out

        return kernel

    def expectations(self, packed: np.ndarray) -> np.ndarray:
        """``Re <psi|H|psi>`` of every row of a block of packed states ``phi = S psi``.

        With ``S H psi`` packed (one bound product per row, into one buffer),
        the value is the sum of ``Re(conj(phi) S H psi) / S**2`` over the
        slots: one product of their float64 views by ``1 / S**2``, which is 0
        on the ghost and halo cells.
        """
        product, values = self.empty_packed(), np.empty(len(packed))
        for k, x in enumerate(packed):
            products = self.bind(x, None, product)().view(float)
            products *= x.view(float)
            values[k] = products @ self._hopping.inverse_weight
        return values

    def _coo_hops(self) -> tuple[np.ndarray, np.ndarray]:
        """Basis-order ``(rows, cols)`` of every hop, read off the shift table."""
        hop = self._hopping
        owner = np.full(hop.weight.size, -1)
        owner[hop.slots] = np.arange(self.shape[0])
        owner[hop.halo] = owner[hop.mirror]
        rows = np.tile(owner[hop.slots], 4)
        cols = owner[np.concatenate([hop.slots + s for s in hop.shifts])]
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
    d = basis.j - basis.i
    diagonal = np.where(d == 0, params.u, 0.0) + np.where(d == 1, params.v, 0.0)
    return PairHamiltonian(_Hopping.build(basis), params.kappa, diagonal)


def build_stark(field: float, basis: TwoBosonBasis) -> np.ndarray:
    """Linear-potential term: the diagonal ``field * (i + j)`` per configuration."""
    return field * (basis.i + basis.j)


def build_hamiltonian(params: ModelParams, field: float, basis: TwoBosonBasis) -> PairHamiltonian:
    """The field-free chain plus the linear potential ``field * sum_j j n_j`` (site labels start at 1)."""
    return build_h0(params, basis).add_diagonal(build_stark(field, basis))


def separations(basis: TwoBosonBasis) -> np.ndarray:
    """Particle separation j - i per configuration (0 for a same-site pair)."""
    return (basis.j - basis.i).astype(float)
