"""Time propagation for real-symmetric Hamiltonians.

Every quench and sweep point runs on one engine, the Chebyshev polynomial
expansion of ``exp(-iHt)`` (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
(1984)): one operator product per term, truncation controlled by ``tol``, on
the Gershgorin interval of ``H``, which contains the spectrum by theorem.  The
dense spectral decomposition is kept as the exact reference and for the
three-site model.  Both are deterministic.  The expansion coefficients are
the Bessel values ``J_k(z)``, computed by Miller's backward recurrence
``J_{k-1} = (2k / z) J_k - J_{k+1}`` normalised by ``J_0 + 2 sum_k J_{2k} = 1``
(Numerical Recipes, ``bessj``).

The Chebyshev engine takes an operator such as ``model.PairHamiltonian``:
``diagonal()`` and ``radii()`` give the Gershgorin interval, and
``scaled(shift, factor)`` the operator ``factor * (H - shift)``, whose
``pack``, ``step`` and ``unpack`` run the recursion on the operator's own
layout of a state, in buffers from its ``empty_packed``.  The engine keeps
twice its rescaled operator, so each recursion term is one ``step``,
``2 A T_k - T_{k-1}``.  One recursion returns the states at several offsets:
the terms go into a fixed buffer of ``TERM_BUFFER`` rows that is added into
every offset's row with one numpy matrix product per buffer, through a block
the propagator keeps; every state it returns is back in basis order.
``samples`` yields blocks of up to ``SAMPLE_BLOCK`` states, one row per
sample time and one matrix product or recursion per block; a Chebyshev block
spans several times only while each step of it is short enough that its own
series is mostly overhead.
"""

from __future__ import annotations

import numpy as np


#: most rows of a block yielded by ``samples`` (8 states at dim 6216 are 0.8 MB)
SAMPLE_BLOCK = 8

#: Chebyshev terms added into the output rows per matrix product
#: (16 terms at dim 6216 are 1.6 MB)
TERM_BUFFER = 16


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


def _bessel_j(n_max: int, z: float) -> np.ndarray:
    """``J_0(z) .. J_{n_max}(z)`` by Miller's backward recurrence.

    ``J_{k-1} = (2k / z) J_k - J_{k+1}`` runs down from ``20 + 2 sqrt(n_max)``
    orders above ``n_max``, where the true values are negligible, from the
    values 0 and 1; the minimal solution ``J`` then dominates.  Every value
    is rescaled by 1e-250 whenever one passes 1e250, and the result is
    normalised by ``J_0 + 2 sum_k J_{2k} = 1``.  ``n_max`` must lie well past
    the turning point ``|z|``, as the series length of ``_coefficients`` does.
    """
    out = np.zeros(n_max + 1)
    if abs(z) < 1e-30:  # J_0 = 1 and J_1 = z / 2 in double precision; 2k / z could overflow
        out[:2] = 1.0, 0.5 * z
        return out
    above, value = 0.0, 1.0
    for k in range(n_max + 20 + int(2.0 * np.sqrt(n_max)), 0, -1):
        above, value = value, 2.0 * k / z * value - above
        if k <= n_max + 1:
            out[k - 1] = value
        if abs(value) > 1e250:
            above *= 1e-250
            value *= 1e-250
            out[k - 1 :] *= 1e-250
    return out / (out[0] + 2.0 * out[2::2].sum())


class SpectralPropagator:
    """Exact evolution through a dense eigendecomposition of ``h``, which it keeps.

    ``h`` is an array or has ``toarray()``.
    """

    def __init__(self, h):
        self.h = h
        dense = h.toarray() if hasattr(h, "toarray") else np.asarray(h, dtype=float)
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(dense)

    def samples(self, psi0: np.ndarray, times):
        """States at strictly increasing ``times`` >= 0, ``SAMPLE_BLOCK`` rows per block."""
        times = _sample_times(times)
        coef = self.eigenvectors.T @ psi0
        for start in range(0, times.size, SAMPLE_BLOCK):
            phases = np.exp(-1j * np.outer(times[start : start + SAMPLE_BLOCK], self.eigenvalues))
            yield (phases * coef) @ self.eigenvectors.T


def spectral_bounds(h) -> tuple[float, float]:
    """Gershgorin interval of ``h``, at least 1e-9 wide.

    ``[min(h_ii - R_i), max(h_ii + R_i)]`` with ``R_i = sum_{j != i} |h_ij|``
    contains the spectrum by theorem; ``h.radii()`` gives ``R_i``.
    """
    diag, radius = h.diagonal(), h.radii()
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    return lo, lo + max(hi - lo, 1e-9)


class ChebyshevPropagator:
    """Polynomial expansion of exp(-iHt) on the rescaled spectrum."""

    def __init__(self, h, *, tol: float = 1e-12, bounds: tuple[float, float] | None = None):
        self.h = h
        self.tol = tol
        lo, hi = bounds if bounds is not None else spectral_bounds(h)
        self.center = 0.5 * (hi + lo)
        self.halfwidth = 0.5 * (hi - lo)
        # 2 A for the rescaled operator A: T_{k+1} = (2 A) T_k - T_{k-1} needs no
        # doubling pass, and scaling by 2 is exact, so 0.5 (2 A) T_0 is A T_0 bit for bit
        self._two_a = h.scaled(self.center, 2.0 / self.halfwidth)
        self._coeff_cache: dict[float, np.ndarray] = {}
        # block products of _sum_series, sized by the longest window so far
        self._part = np.empty((0, 0), dtype=complex)

    def _coefficients(self, dt: float) -> np.ndarray:
        key = float(dt)
        if key not in self._coeff_cache:
            z = self.halfwidth * dt
            floor = max(self.tol * 1e-3, 1e-16)
            n_max = int(z + 45.0 * (z + 1.0) ** (1.0 / 3.0) + 40.0)
            bessel = _bessel_j(n_max, z)
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
            coef = 2.0 * (-1j) ** np.arange(cut) * bessel[:cut]
            coef[0] = bessel[0]
            self._coeff_cache[key] = coef * np.exp(-1j * self.center * dt)
        return self._coeff_cache[key]

    def _is_short(self, step: float) -> bool:
        """Whether most of a step's own series is overhead beyond its phase."""
        return self._coefficients(step).size >= 2.0 * self.halfwidth * step

    def _sum_series(self, psi: np.ndarray, coef: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Rows ``sum_k coef[r, k] T_k(A) psi``, where row ``r`` has ``ends[r]`` (ascending) terms.

        The recursion runs on the packed layout of ``2 A``, in buffers the
        operator allocates, and the rows are unpacked once at the end.  The
        terms go into a fixed buffer of ``TERM_BUFFER`` rows.  Each full
        buffer is added into the rows whose series has not ended through one
        matrix product into ``part``, which the propagator keeps: one
        allocated per call faulted its pages in on every window.  The term
        buffer stays per call, as its pages then serve the caller's
        temporaries between windows, where a kept one would add to the peak
        memory.  The returned rows are a new array, so a caller may keep them.
        """
        two_a = self._two_a
        rows, n_terms = coef.shape
        if self._part.shape[0] < rows:
            self._part = two_a.empty_packed(rows)
        part = self._part[:rows]
        out = two_a.empty_packed(rows)
        out[:] = 0.0
        terms = two_a.empty_packed(min(TERM_BUFFER, n_terms))
        terms[0] = two_a.pack(psi)
        two_a.step(terms[0], None, out=terms[1])
        terms[1] *= 0.5
        for k in range(n_terms):
            slot = k % TERM_BUFFER
            if k >= 2:
                two_a.step(terms[(k - 1) % TERM_BUFFER], terms[(k - 2) % TERM_BUFFER], out=terms[slot])
            if slot == TERM_BUFFER - 1 or k == n_terms - 1:
                start = k - slot
                active = int(np.searchsorted(ends, start, side="right"))
                np.matmul(coef[active:, start : k + 1], terms[: slot + 1], out=part[active:])
                out[active:] += part[active:]
        return two_a.unpack(out)

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
