"""Bound two-boson pairs: center-of-momentum reduction and exponentially localized states.

For total quasi-momentum ``K`` on a ring the relative motion of the pair maps
onto a semi-infinite single-particle chain with hopping ``J_K = 2 kappa
cos(K/2)`` (enhanced by ``sqrt(2)`` on the first link) and the interaction
acting on the first two sites.  A bound pair is a solution whose relative
wave function decays as ``psi_r = y**r`` with ``0 < |y| < 1``; the decay
ratio satisfies the cubic

    u * y**3 + (u**2 - 1) * y**2 + 2*u*y + 1 = 0,      u = U / J_K,

and carries energy ``eps = -J_K * (y + 1/y)``, automatically outside the
two-particle scattering continuum ``[-2 J_K, 2 J_K]``.  Written in terms of
``x = 1/|y| = exp(beta)`` and the sign ``s = sign(y)`` this is the alternating
cubic ``s x^3 + 2u x^2 + s (u^2 - 1) x + u = 0``.

For attractive interaction the cubic has one such root always (the deeply
bound branch) and a second root -- the upper branch -- exactly when
``|u| > 3``, i.e. ``|U / kappa| > 6`` at the band center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import SQRT2, PairHamiltonian, TwoBosonBasis

BRANCH_LOWER = "-"
BRANCH_UPPER = "+"

#: relative chain r = 0 .. CHAIN_LENGTH that a kept bound root must fit (``decay_cutoff``)
CHAIN_LENGTH = 400
#: largest energy error, in units of |J_K|, that truncating a kept root may cause
MATCH_TOL = 1e-6


def momentum_grid(n_sites: int) -> np.ndarray:
    """Ring momenta 2*pi*m/n for m = -(n-1)/2 .. (n-1)/2 (odd n, excludes +-pi)."""
    if n_sites % 2 == 0:
        raise ValueError("momentum grid needs an odd site count so that +-pi is excluded")
    half = (n_sites - 1) // 2
    return 2.0 * np.pi * np.arange(-half, half + 1) / n_sites


@dataclass(frozen=True)
class BoundState:
    """One bound-pair solution at momentum K.

    ``alternation`` is the sign of the decay ratio y = alternation *
    exp(-beta); ``branch`` labels the energy ordering within the sector
    ("-" lower, "+" upper).
    """

    momentum: float
    branch: str
    beta: float
    energy: float
    alternation: int
    hop: float
    reduced_u: float

    @property
    def decay_ratio(self) -> float:
        return self.alternation * np.exp(-self.beta)

    @property
    def interaction(self) -> float:
        return self.reduced_u * self.hop


def _decay_roots(reduced_u: float) -> list[float]:
    """Real roots of the decay cubic with 0 < |y| < 1, Newton-polished.

    They are the reciprocals of the roots ``x`` of the monic cubic
    ``x^3 + 2u x^2 + (u^2 - 1) x + u`` with ``|x| > 1``, taken in closed form:
    ``x = t - 2u/3`` turns it into ``t^3 + p t + q`` with ``p = -(u^2 + 3)/3 < 0``
    and ``q = u (45 - 2u^2) / 27``, so ``t = 2 r cos(theta)``, ``r = sqrt(-p/3)``,
    gives ``cos(3 theta) = -q / (2 r^3)`` (Viete's trigonometric solution).
    ``1 - cos(3 theta)^2`` is formed as one fraction, free of cancellation, and
    its sign tells three real roots (``theta`` in three branches) from one
    (``cosh`` in place of ``cos``); it vanishes only at ``|u|`` 0.2381 and
    2.9696, where the double root has ``|y| > 1``.  No eigenvalue solver runs.
    """
    u = float(reduced_u)
    s = u * u + 3.0
    radius = 2.0 * math.sqrt(s) / 3.0
    cos3 = u * (2.0 * u * u - 45.0) / (2.0 * s * math.sqrt(s))
    sin3_squared = (216.0 * u**4 - 1917.0 * u * u + 108.0) / (4.0 * s**3)
    if sin3_squared >= 0.0:
        third = math.atan2(math.sqrt(sin3_squared), cos3) / 3.0
        depressed = [radius * math.cos(third - 2.0 * math.pi * k / 3.0) for k in range(3)]
    else:
        arcosh = math.log(abs(cos3) + math.sqrt(-sin3_squared))
        depressed = [math.copysign(radius * math.cosh(arcosh / 3.0), cos3)]
    out = []
    for t in depressed:
        x = t - 2.0 * u / 3.0
        if abs(x) <= 1.0:
            continue
        y = 1.0 / x
        if not 1e-14 < abs(y) < 1.0 - 1e-12:
            continue
        for _ in range(4):
            p = u * y**3 + (u * u - 1.0) * y**2 + 2.0 * u * y + 1.0
            dp = 3.0 * u * y**2 + 2.0 * (u * u - 1.0) * y + 2.0 * u
            y -= p / dp
        out.append(y)
    return sorted(set(out))


def decay_cutoff(chain_length: int, match_tol: float) -> float:
    """Smallest decay rate a bound root may have to be kept.

    The cutoff is the decay rate below which a relative chain of
    ``chain_length + 1`` sites (r = 0 .. chain_length) no longer resolves the
    root's energy to ``match_tol`` in units of the sector hopping |J_K|.  A
    hard wall at r = M = chain_length + 1 admits ``psi_r = y**r - y**(2M - r)``,
    and to leading order in beta it shifts the bound energy by

        dE = 4 |J_K| beta**2 exp(-2 beta M),

    which falls with beta once beta > 1/M; for beta <= 1/M the truncated
    chain has, to the same order, no isolated level at all.  The cutoff is
    therefore the largest root of 4 beta**2 exp(-2 beta M) = match_tol.  With
    w = beta M and s = M sqrt(match_tol) / 2 it is the root w > 1 of
    w - ln w = L, L = -ln s, solved by Newton's method from L + ln L, which
    lies below it; the iterates then fall onto it from above.  Where s >=
    1/e that equation has no root and the cutoff is 1/M.  It depends on beta
    alone, as does the dimensionless chain H / J_K.  ``CHAIN_LENGTH`` and
    ``MATCH_TOL`` (400, 1e-6) give 0.00633.
    """
    sites = chain_length + 1
    scale = 0.5 * sites * np.sqrt(match_tol)
    if scale >= np.exp(-1.0):
        return 1.0 / sites
    big = -np.log(scale)
    w = big + np.log(big)
    for _ in range(100):  # the steps shrink quadratically, or halve next to s = 1/e
        step = (w - np.log(w) - big) / (1.0 - 1.0 / w)
        w -= step
        if abs(step) <= 1e-15 * w:
            break
    return float(w) / sites


def solve_bound_states(momentum: float, kappa: float, interaction: float) -> list[BoundState]:
    """Bound-pair solutions of one momentum sector, sorted by energy.

    Returns an empty list for a flat sector (K = +-pi) or vanishing
    interaction.  A root is kept when its decay rate exceeds
    ``decay_cutoff(CHAIN_LENGTH, MATCH_TOL)``: a root that decays more slowly
    reaches past the end of a ``CHAIN_LENGTH`` relative chain, which then
    misplaces its energy by more than ``MATCH_TOL |J_K|`` (see
    ``decay_cutoff`` for the derivation).  This equals matching every root
    against the isolated eigenvalues of that truncated chain to
    ``MATCH_TOL``: on 125 interactions in [-12, 12] times the 201-site
    momentum grid both drop the same 8 roots (beta <= 0.00435, all at
    |U| = 6 next to K = 0) and keep all others (beta >= 0.00965).
    """
    hop = 2.0 * kappa * np.cos(momentum / 2.0)
    if abs(hop) < 1e-12 or interaction == 0.0:
        return []
    reduced_u = interaction / hop
    cutoff = decay_cutoff(CHAIN_LENGTH, MATCH_TOL)
    found = []
    for y in _decay_roots(reduced_u):
        if -np.log(abs(y)) > cutoff:
            found.append((y, -hop * (y + 1.0 / y)))
    found.sort(key=lambda t: t[1])
    states = []
    for y, energy in found:
        if len(found) == 2:
            branch = BRANCH_LOWER if energy == found[0][1] else BRANCH_UPPER
        else:
            branch = BRANCH_LOWER if energy < 0 else BRANCH_UPPER
        states.append(
            BoundState(
                momentum=float(momentum),
                branch=branch,
                beta=float(-np.log(abs(y))),
                energy=float(energy),
                alternation=1 if y > 0 else -1,
                hop=float(hop),
                reduced_u=float(reduced_u),
            )
        )
    return states


def _on_site_amplitude(state: BoundState) -> float:
    """Relative amplitude ``psi_0`` of a same-site pair, with ``psi_r = y**r`` for r >= 1."""
    return SQRT2 * state.hop * state.decay_ratio / (state.interaction - state.energy)


class BoundProjector(NamedTuple):
    """Every bound state of a band, matrix-free: overlaps with it and superpositions of it.

    A ring bound state ``(K, y)`` has the amplitude ``P_d(K) exp(i K i)`` on the
    configuration ``(i, i + d)``, with ``P_0 = psi_0`` and ``P_d = y**d exp(i K d / 2)``
    for ``d <= (n-1)/2``.  A pair that wraps the ring, ``d > (n-1)/2``, is the
    pair of centre site ``j = i + d`` and separation ``n - d`` read the other way
    round, and its amplitude is that one's, ``P_{n-d}(K) exp(i K j)``.  So the
    basis folds onto a dense ``((n+1)/2, n)`` grid, a permutation of its
    n(n+1)/2 states: ``(i, i + d)`` in row ``d`` at column ``i - 1``, a wrapped
    pair in row ``n - d`` at column ``j - 1``.  ``<b|psi>`` is ``conj(P_d(K))``
    times the discrete Fourier transform of grid row ``d`` over its columns,
    summed over the rows: one transform per row, half of what the separations
    of an unfolded n x n grid would take.

    ``table[m, d, slot]`` is ``conj(P_d(K)) exp(-i K) / norm`` of the bound
    state ``slot`` of the sector ``K = 2 pi m / n``, in FFT order of ``m``
    (the phase ``exp(-i K)`` shifts the transform to start at site 1), for
    ``d = 0 .. (n-1)/2``; a sector with fewer bound states has zero columns.
    ``order`` is the basis index of every grid cell, row by row.  The bound
    state itself is ``conj(table[m, d, slot]) exp(i K c)`` on the cell of row
    ``d`` and column ``c``, one inverse transform per row.
    """

    table: np.ndarray
    order: np.ndarray

    def weights(self, block: np.ndarray) -> np.ndarray:
        """Total bound-band weight of every row of a block of states."""
        n, rows = self.table.shape[:2]
        # the folded grid of every state as one gather, one transform per (state, row)
        # in place, then every momentum's sum over rows as one batched product: (m, state, slot)
        spectra = np.take(block, self.order, axis=-1).astype(complex, copy=False).reshape(-1, rows, n)
        np.fft.fft(spectra, axis=-1, out=spectra)
        overlaps = np.matmul(spectra.transpose(2, 0, 1), self.table)
        return np.sum(np.abs(overlaps) ** 2, axis=(0, 2))

    def superpose(self, coef: np.ndarray) -> np.ndarray:
        """Basis vector ``sum coef[g, slot] |b(g, slot)>``, the adjoint of the overlaps of ``weights``.

        ``coef`` is (n, slots) in the band's momentum order, that of
        ``BandStructure.momenta``, which ``ifftshift`` puts in the FFT order of ``table``.
        """
        n = self.table.shape[0]
        coef = np.fft.ifftshift(coef, axes=0)
        # every momentum's sum over its bound states, conj(table) coef taken as
        # conj(table conj(coef)): one product over the slot axis, so no temporary
        # is as large as the table; then one inverse transform over the columns
        # of every grid row: (column, row)
        spectra = np.matmul(self.table, coef.conj()[:, :, np.newaxis])[..., 0]
        np.conjugate(spectra, out=spectra)
        grid = n * np.fft.ifft(spectra, axis=0)
        psi = np.empty(self.order.size, dtype=complex)
        psi[self.order] = grid.T.reshape(-1)
        return psi

    def on_layout(self, h: PairHamiltonian) -> "BoundProjector":
        """The projector whose ``weights`` read states on ``h``'s packed layout, ``S psi``.

        ``order`` names the cell of every grid cell's configuration, and the
        table takes ``1 / S``: ``1 / sqrt(2)`` on row ``d = 0``, the same-site
        pairs.  ``superpose`` of the result is not a basis-order state.
        """
        table = self.table.copy()
        table[:, 0] /= SQRT2
        return BoundProjector(table=table, order=h.indices[self.order])


@dataclass(frozen=True)
class BandStructure:
    """Bound-pair band over the full momentum grid of an odd ring."""

    n_sites: int
    momenta: np.ndarray
    states: tuple[tuple[BoundState, ...], ...]

    def select(self, branch: str) -> list[BoundState | None]:
        out = []
        for group in self.states:
            hit = [s for s in group if s.branch == branch]
            out.append(hit[0] if hit else None)
        return out

    def completeness(self) -> dict[str, dict]:
        """Per branch, whether every momentum has a bound state on it and the momenta that have none."""
        record = {}
        for branch in (BRANCH_LOWER, BRANCH_UPPER):
            missing = [float(k) for k, state in zip(self.momenta, self.select(branch)) if state is None]
            record[branch] = {"complete": not missing, "missing_momenta": missing}
        return record

    def bound_matrix(self, basis: TwoBosonBasis) -> BoundProjector:
        """Projector onto every bound state of the band, for states in ``basis``.

        Its table holds (n + 1) / 2 amplitudes per bound state of a sector and
        momentum, not a basis-sized vector: (n, (n + 1) // 2, 2) for a double band.
        """
        n = self.n_sites
        if basis.n_sites != n:
            raise ValueError(f"the band has {n} sites, the basis {basis.n_sites}")
        reach = (n - 1) // 2
        separation = np.arange(reach + 1)
        # the phase exp(-i K (d / 2 + 1)) of conj(P_d) exp(-i K)
        theta = 0.5 * separation + 1.0
        table = np.zeros((n, reach + 1, max(map(len, self.states))), dtype=complex)
        for row, k, group in zip(table, self.momenta, self.states):
            for slot, state in enumerate(group):
                psi0 = _on_site_amplitude(state)
                amp = state.decay_ratio**separation
                amp[0] = psi0
                norm = np.sqrt(n * (psi0**2 + np.sum(amp[1:] ** 2)))
                row[:, slot] = amp * np.exp(-1j * k * theta) / norm
        d = basis.j - basis.i
        cells = np.where(d > reach, (n - d) * n + basis.j, d * n + basis.i) - 1
        # ifftshift takes the band's momentum order to the FFT order of the transforms
        return BoundProjector(table=np.fft.ifftshift(table, axes=0), order=np.argsort(cells))


def band_scan(kappa: float, interaction: float, n_sites: int) -> BandStructure:
    """Solve every momentum sector of the ring grid."""
    momenta = momentum_grid(n_sites)
    groups = tuple(tuple(solve_bound_states(k, kappa, interaction)) for k in momenta)
    return BandStructure(n_sites=n_sites, momenta=momenta, states=groups)
