"""Time propagation backends for real-symmetric sparse Hamiltonians.

Two interchangeable engines: full spectral decomposition (exact per sample,
dense cost) and Chebyshev polynomial expansion of ``exp(-iHt)`` (sparse
matrix-vector cost, truncation controlled by ``tol``).  Both are
deterministic; the Chebyshev spectral bounds come from a short extremal
Lanczos run with a fixed start vector and a 5% safety margin.  The Chebyshev
engine casts its rescaled operator to complex once, so no matvec re-casts a
real matrix, and runs the three-term recursion in place: each term allocates
only the matvec result.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh
from scipy.special import jv


class PropagationAccuracyError(RuntimeError):
    """Propagation could not meet the requested tolerance."""

    def __init__(self, message: str, achieved: float, target: float):
        super().__init__(f"{message} (achieved {achieved:.3e}, target {target:.3e})")
        self.achieved = achieved
        self.target = target


def _as_sparse(h) -> sparse.csr_array:
    if sparse.issparse(h):
        return h.tocsr()
    return sparse.csr_array(np.asarray(h))


class SpectralPropagator:
    """Exact evolution through a dense eigendecomposition."""

    def __init__(self, h):
        dense = h.toarray() if sparse.issparse(h) else np.asarray(h, dtype=float)
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(dense)

    def at(self, psi0: np.ndarray, t: float) -> np.ndarray:
        coef = self.eigenvectors.T @ psi0
        return self.eigenvectors @ (np.exp(-1j * self.eigenvalues * t) * coef)

    def samples(self, psi0: np.ndarray, times):
        coef = self.eigenvectors.T @ psi0
        for t in times:
            yield self.eigenvectors @ (np.exp(-1j * self.eigenvalues * t) * coef)


def spectral_bounds(h, *, margin: float = 0.05) -> tuple[float, float]:
    """Padded interval guaranteed to contain the spectrum of ``h``."""
    h = _as_sparse(h)
    dim = h.shape[0]
    if dim <= 64:
        vals = np.linalg.eigvalsh(h.toarray())
        lo, hi = float(vals[0]), float(vals[-1])
    else:
        v0 = np.ones(dim) / np.sqrt(dim)
        lo = float(eigsh(h, k=1, which="SA", return_eigenvectors=False, tol=1e-3, v0=v0)[0])
        hi = float(eigsh(h, k=1, which="LA", return_eigenvectors=False, tol=1e-3, v0=v0)[0])
    pad = margin * max(hi - lo, 1e-9)
    return lo - pad, hi + pad


class ChebyshevPropagator:
    """Polynomial expansion of exp(-iHt) on the rescaled spectrum."""

    def __init__(self, h, *, tol: float = 1e-12, bounds: tuple[float, float] | None = None):
        self.h = _as_sparse(h)
        self.tol = tol
        lo, hi = bounds if bounds is not None else spectral_bounds(self.h)
        self.center = 0.5 * (hi + lo)
        self.halfwidth = 0.5 * (hi - lo)
        dim = self.h.shape[0]
        self._scaled = (
            (self.h - sparse.identity(dim, format="csr") * self.center) * (1.0 / self.halfwidth)
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

    def advance(self, psi: np.ndarray, dt: float) -> np.ndarray:
        coef = self._coefficients(dt)
        scaled = self._scaled
        prev = psi.astype(complex, copy=True)
        cur = scaled @ prev
        acc = coef[0] * prev + coef[1] * cur
        term = np.empty_like(acc)
        for c in coef[2:]:
            nxt = scaled @ cur
            nxt *= 2.0
            nxt -= prev
            prev, cur = cur, nxt
            np.multiply(c, cur, out=term)
            acc += term
        drift = abs(np.linalg.norm(acc) - np.linalg.norm(psi))
        if drift > 1e-8:
            raise PropagationAccuracyError(
                "norm drifted during a Chebyshev step; spectral bounds too tight",
                achieved=drift,
                target=1e-8,
            )
        return acc

    def at(self, psi0: np.ndarray, t: float) -> np.ndarray:
        return self.advance(psi0, t) if t != 0.0 else psi0.astype(complex, copy=True)

    def samples(self, psi0: np.ndarray, times):
        psi = psi0.astype(complex, copy=True)
        last = None
        for t in times:
            if last is None:
                if t != 0.0:
                    psi = self.advance(psi, t)
            elif t != last:
                psi = self.advance(psi, t - last)
            last = t
            yield psi


def make_propagator(h, *, method: str = "auto", tol: float = 1e-12):
    """Backend factory: 'spectral', 'chebyshev', or 'auto' (spectral for small dims)."""
    if method == "auto":
        method = "spectral" if h.shape[0] <= 1024 else "chebyshev"
    if method == "spectral":
        return SpectralPropagator(h)
    if method == "chebyshev":
        return ChebyshevPropagator(h, tol=tol)
    raise ValueError(f"unknown propagation method {method!r}")
