"""Time propagation backends for real-symmetric sparse Hamiltonians.

Two interchangeable engines: full spectral decomposition (exact per sample,
dense cost) and Chebyshev polynomial expansion of ``exp(-iHt)`` (sparse
matrix-vector cost, truncation controlled by ``tol``).  Both are
deterministic.  The Chebyshev spectral interval is the Gershgorin interval
above 64 states, which contains the spectrum by theorem, and the exact
interval with a ``BOUNDS_MARGIN`` padding at or below 64 states, where dense
rows would make Gershgorin loose.  The Chebyshev engine stores twice its
rescaled operator, cast to complex once, so no matvec re-casts a real matrix
and each recursion term is one product and one subtraction.  One recursion
returns the states at several offsets: the terms go into a fixed buffer of
``TERM_BUFFER`` rows that is added into every offset's row with one numpy
matrix product per buffer.  ``samples`` yields blocks of up to
``SAMPLE_BLOCK`` states, one row per sample time and one matrix product or
recursion per block; a Chebyshev block spans several times only while each
step of it is short enough that its own series is mostly overhead.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.special import jv


#: most rows of a block yielded by ``samples`` (8 states at dim 6216 are 0.8 MB)
SAMPLE_BLOCK = 8

#: Chebyshev terms added into the output rows per matrix product
#: (16 terms at dim 6216 are 1.6 MB)
TERM_BUFFER = 16

#: padding of the exact spectral interval of at most 64 states on each side,
#: relative to its width (the Gershgorin interval of larger ones needs none)
BOUNDS_MARGIN = 0.05


class PropagationAccuracyError(RuntimeError):
    """Propagation could not meet the requested tolerance."""

    def __init__(self, message: str, achieved: float, target: float):
        super().__init__(f"{message} (achieved {achieved:.3e}, target {target:.3e})")
        self.achieved = achieved
        self.target = target


def _sample_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.size and (times[0] < 0.0 or np.any(np.diff(times) <= 0.0)):
        raise ValueError("sample times must be strictly increasing and non-negative")
    return times


def _as_sparse(h) -> sparse.csr_array:
    if sparse.issparse(h):
        return h.tocsr()
    return sparse.csr_array(np.asarray(h))


class SpectralPropagator:
    """Exact evolution through a dense eigendecomposition."""

    def __init__(self, h):
        dense = h.toarray() if sparse.issparse(h) else np.asarray(h, dtype=float)
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(dense)

    def samples(self, psi0: np.ndarray, times):
        """States at strictly increasing ``times`` >= 0, ``SAMPLE_BLOCK`` rows per block."""
        times = _sample_times(times)
        coef = self.eigenvectors.T @ psi0
        for start in range(0, times.size, SAMPLE_BLOCK):
            phases = np.exp(-1j * np.outer(times[start : start + SAMPLE_BLOCK], self.eigenvalues))
            yield (phases * coef) @ self.eigenvectors.T


def spectral_bounds(h) -> tuple[float, float]:
    """Interval guaranteed to contain the spectrum of ``h``, at least 1e-9 wide.

    At most 64 states: the exact extremes padded by ``BOUNDS_MARGIN``.  More:
    the Gershgorin interval ``[min(h_ii - R_i), max(h_ii + R_i)]`` with
    ``R_i = sum_{j != i} |h_ij|``, which contains the spectrum by theorem.
    """
    h = _as_sparse(h)
    if h.shape[0] <= 64:
        vals = np.linalg.eigvalsh(h.toarray())
        lo, hi = float(vals[0]), float(vals[-1])
        pad = BOUNDS_MARGIN * max(hi - lo, 1e-9)
        return lo - pad, hi + pad
    diag = h.diagonal()
    radius = np.ravel(abs(h).sum(axis=1)) - np.abs(diag)
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    return lo, lo + max(hi - lo, 1e-9)


class ChebyshevPropagator:
    """Polynomial expansion of exp(-iHt) on the rescaled spectrum."""

    def __init__(self, h, *, tol: float = 1e-12, bounds: tuple[float, float] | None = None):
        self.h = _as_sparse(h)
        self.tol = tol
        lo, hi = bounds if bounds is not None else spectral_bounds(self.h)
        self.center = 0.5 * (hi + lo)
        self.halfwidth = 0.5 * (hi - lo)
        dim = self.h.shape[0]
        # 2 A for the rescaled operator A: T_{k+1} = (2 A) T_k - T_{k-1} needs no
        # doubling pass, and scaling by 2 is exact, so 0.5 (2 A) T_0 is A T_0 bit for bit
        self._two_a = (
            (self.h - sparse.identity(dim, format="csr") * self.center) * (2.0 / self.halfwidth)
        ).astype(complex)
        self._coeff_cache: dict[float, np.ndarray] = {}

    def _coefficients(self, dt: float) -> np.ndarray:
        key = float(dt)
        if key not in self._coeff_cache:
            z = self.halfwidth * dt
            floor = max(self.tol * 1e-3, 1e-16)
            n_max = int(z + 45.0 * (z + 1.0) ** (1.0 / 3.0) + 40.0)
            orders = np.arange(n_max + 1)
            bessel = jv(orders, z)
            keep = np.nonzero(np.abs(bessel) > floor)[0]
            if keep.size == 0:
                cut = 2
            else:
                cut = min(int(keep[-1]) + 2, n_max + 1)
            if np.abs(bessel[cut - 1]) > 10.0 * self.tol:
                raise PropagationAccuracyError(
                    "Chebyshev series did not decay below tolerance",
                    achieved=float(np.abs(bessel[cut - 1])),
                    target=self.tol,
                )
            coef = 2.0 * (-1j) ** orders[:cut] * bessel[:cut]
            coef[0] = bessel[0]
            self._coeff_cache[key] = coef * np.exp(-1j * self.center * dt)
        return self._coeff_cache[key]

    def _is_short(self, step: float) -> bool:
        """Whether most of a step's own series is overhead beyond its phase."""
        return self._coefficients(step).size >= 2.0 * self.halfwidth * step

    def _sum_series(self, psi: np.ndarray, coef: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Rows ``sum_k coef[r, k] T_k(A) psi``, where row ``r`` has ``ends[r]`` (ascending) terms.

        The terms go into a fixed buffer of ``TERM_BUFFER`` rows.  Each full
        buffer is added into the rows whose series has not ended through one
        matrix product into ``part``, allocated once per call: a new
        block-sized product per buffer would fault its pages in every time.
        """
        two_a = self._two_a
        n_terms = coef.shape[1]
        out = np.zeros((coef.shape[0], psi.size), dtype=complex)
        part = np.empty_like(out)
        terms = np.empty((min(TERM_BUFFER, n_terms), psi.size), dtype=complex)
        terms[0] = psi
        np.multiply(two_a @ terms[0], 0.5, out=terms[1])
        for k in range(n_terms):
            slot = k % TERM_BUFFER
            if k >= 2:
                np.subtract(
                    two_a @ terms[(k - 1) % TERM_BUFFER], terms[(k - 2) % TERM_BUFFER], out=terms[slot]
                )
            if slot == TERM_BUFFER - 1 or k == n_terms - 1:
                start = k - slot
                active = int(np.searchsorted(ends, start, side="right"))
                np.matmul(coef[active:, start : k + 1], terms[: slot + 1], out=part[active:])
                out[active:] += part[active:]
        return out

    def advance(self, psi: np.ndarray, dt: float, earlier=()) -> np.ndarray:
        """State after ``dt``, or with sorted offsets ``earlier`` in (0, dt) one row per offset.

        The rows are the states at ``earlier`` followed by the state at
        ``dt``, all from one recursion as long as ``dt``'s series (a shorter
        offset never needs more terms).  Every row passes the norm-drift check.
        """
        offsets = np.append(np.asarray(earlier, dtype=float), float(dt))
        if offsets.size > 1 and (offsets[0] <= 0.0 or np.any(np.diff(offsets) <= 0.0)):
            raise ValueError("earlier offsets must be sorted and lie in (0, dt)")
        series = [self._coefficients(t) for t in offsets]
        ends = np.array([c.size for c in series])
        n_terms = int(ends[-1])
        coef = np.zeros((offsets.size, n_terms), dtype=complex)
        for row, c in zip(coef, series):
            row[: c.size] = c
        out = self._sum_series(psi, coef, ends)
        drift = np.abs(np.linalg.norm(out, axis=1) - np.linalg.norm(psi))
        if drift.max() > 1e-8:
            raise PropagationAccuracyError(
                "norm drifted during a Chebyshev step; spectral bounds too tight",
                achieved=float(drift.max()),
                target=1e-8,
            )
        return out if offsets.size > 1 else out[0]

    def samples(self, psi0: np.ndarray, times):
        """States at strictly increasing ``times`` >= 0, one block per recursion.

        A block holds up to ``SAMPLE_BLOCK`` consecutive samples while every step
        in it is short (``_is_short``), otherwise one; a sample at t = 0 is its own.
        """
        times = _sample_times(times)
        block = psi0.astype(complex, copy=True).reshape(1, -1)
        base, start = 0.0, 0
        if times.size and times[0] == 0.0:
            yield block
            start = 1
        while start < times.size:
            stop = start + 1
            if self._is_short(times[start] - base):
                limit = min(start + SAMPLE_BLOCK, times.size)
                while stop < limit and self._is_short(times[stop] - times[stop - 1]):
                    stop += 1
            offsets = times[start:stop] - base
            block = self.advance(block[-1], offsets[-1], offsets[:-1]).reshape(offsets.size, -1)
            yield block
            base, start = times[stop - 1], stop


def make_propagator(h, *, method: str = "auto", tol: float = 1e-12):
    """Backend factory: 'spectral', 'chebyshev', or 'auto' (spectral for small dims)."""
    if method == "auto":
        method = "spectral" if h.shape[0] <= 1024 else "chebyshev"
    if method == "spectral":
        return SpectralPropagator(h)
    if method == "chebyshev":
        return ChebyshevPropagator(h, tol=tol)
    raise ValueError(f"unknown propagation method {method!r}")
