"""Two-boson basis and Hamiltonian for a driven extended Bose-Hubbard chain.

Everything works in the symmetric two-particle sector spanned by the
configurations ``(i, j)`` with ``1 <= i <= j <= n_sites``; states are plain
complex numpy vectors of matching dimension, in that lexicographic order.
The Hamiltonian is a ``PairHamiltonian``: a diagonal plus the hopping,
applied matrix-free as a stencil.  Its product is two passes over
constant-offset slices of a folded copy of the state, on buffers that start
on a cache line, so no run that only propagates loads ``scipy``; ``bind``
takes every view of one product once, so a recursion pays only the numpy
passes per term, and ``step`` is one bound product.  ``radii`` gives the row
sums weighted by any positive vector and ``gauged`` the sign-flipped hopping
of the spectral bounds; ``expectations`` the energies of a block of states
without leaving the layout; ``coo`` lists the elements for a sparse or dense
matrix.
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

    ``kappa`` is the hopping amplitude, ``u`` the on-site interaction, ``v``
    the nearest-neighbour interaction and ``field`` the strength of the
    linear potential ``field * sum_j j n_j`` (site labels start at 1).
    """

    n_sites: int
    kappa: float
    u: float
    v: float = 0.0
    field: float = 0.0

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

    def pair_passes(self, x: np.ndarray, out: np.ndarray, pairs: np.ndarray) -> tuple[tuple, tuple]:
        """The ``(left, right, sum)`` operands of the two passes of the neighbour sum of ``x`` into ``out``.

        ``pairs[q] = x[q] + x[q + 1]`` into the scratch ``pairs`` (of ``x``'s
        size), then ``pairs[p - W] + pairs[p + W - 1]`` into the body of
        ``out``, every row but the ghost and halo rows (of no meaning off the
        slots).
        """
        w, size = self.stride, x.size
        return (x[:-1], x[1:], pairs[:-1]), (pairs[: size - 2 * w], pairs[2 * w - 1 : size - 1], out[w:-w])

    def neighbour_sum(self, x: np.ndarray, out: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        """Sum of a packed state ``x`` over the one-hop neighbours of every cell, into ``out``."""
        for left, right, total in self.pair_passes(x, out, pairs):
            np.add(left, right, out=total)
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
    ``W >= n_sites + 2``, in which every hop is a constant shift.  ``pack``
    and ``unpack`` convert basis-order states; ``step`` works on packed
    states, which carry the mirror of every halo cell; ``empty_packed``
    allocates them.  Every packed buffer the operator allocates starts on a
    cache line, and so does each of its rows.

    Operators from ``add_diagonal``, ``scaled`` and ``gauged`` share the
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

    def scaled(self, shift: float, factor: float | complex) -> "PairHamiltonian":
        """The operator ``factor * (self - shift)``."""
        return PairHamiltonian(self._hopping, self.kappa * factor, (self._diagonal - shift) * factor)

    def gauged(self) -> "PairHamiltonian":
        """``G H G`` for the gauge ``G = diag((-1)**(i + j))``: every hop flips its sign, the diagonal stays.

        Every hop changes ``i + j`` by one, so with ``kappa >= 0`` both
        ``c - H`` and ``G H G - c`` are non-negative matrices for a large
        enough ``c``.
        """
        return PairHamiltonian(self._hopping, -self.kappa, self._diagonal)

    def radii(self, weights: np.ndarray) -> np.ndarray:
        """Off-diagonal absolute row sums weighted by positive basis-order ``weights`` d: ``sum_j |h_ij| d_j / d_i``.

        They are the Gershgorin radii of ``D^-1 H D`` for ``D = diag(d)``,
        which is similar to ``H``; with ``d = 1`` those of ``H`` itself.  On
        the layout ``kappa S`` times the neighbour sum of ``S d``, divided by ``d``.
        """
        hop = self._hopping
        packed = np.zeros(hop.weight.size)
        packed[hop.slots] = hop.scale * weights
        sums = hop.neighbour_sum(hop.fill_halo(packed), np.zeros_like(packed), np.empty_like(packed))
        return abs(self.kappa) * hop.scale * sums[hop.slots] / weights

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

    @cached_property
    def _inverse_weight(self) -> np.ndarray:
        # 1 / S**2 per float64 of the layout on the slots, 0 elsewhere
        hop = self._hopping
        inverse = np.zeros(hop.weight.size)
        inverse[hop.slots] = 1.0 / hop.scale**2
        return np.repeat(inverse, 2)

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
        w = hop.stride
        (x_lo, x_hi, pairs), (left, right, body) = hop.pair_passes(x, out, self._scratch)
        x_body, product = x[w:-w], self._scratch[w:-w]
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

    def step(self, x: np.ndarray, prev: np.ndarray | None, out: np.ndarray) -> np.ndarray:
        """``out = H x + prev`` (``H x`` without ``prev``) for one packed state, through ``bind``."""
        return self.bind(x, prev, out)()

    def expectations(self, states: np.ndarray) -> np.ndarray:
        """``Re <psi|H|psi>`` of a state, or of every row of a block, without leaving the layout.

        With ``phi = S psi`` and ``S H psi`` packed (one ``step`` per row), the
        value is the sum of ``Re(conj(phi) S H psi) / S**2`` over the slots: one
        product of their float64 views by ``1 / S**2``, which is 0 on the ghost
        and halo cells.
        """
        packed = self.pack(np.asarray(states))
        out = aligned_array(packed.shape)
        rows = packed.reshape(-1, packed.shape[-1])
        for x, result in zip(rows, out.reshape(rows.shape)):
            self.step(x, None, result)
        products = out.view(float)
        products *= packed.view(float)
        return products @ self._inverse_weight

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


def build_hamiltonian(params: ModelParams, basis: TwoBosonBasis) -> PairHamiltonian:
    """Full Hamiltonian including the linear field."""
    h = build_h0(params, basis)
    if params.field != 0.0:
        h = h.add_diagonal(build_stark(params.field, basis))
    return h


def separations(basis: TwoBosonBasis) -> np.ndarray:
    """Particle separation j - i per configuration (0 for a same-site pair)."""
    return (basis.j - basis.i).astype(float)
