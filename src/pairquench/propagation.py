"""Time propagation for real-symmetric Hamiltonians.

Every quench and sweep point runs on one engine, the Chebyshev polynomial
expansion of ``exp(-iHt)`` (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
(1984)): one operator product per term, truncation controlled by ``tol``, on
a Collatz–Wielandt interval of ``H``, which contains the spectrum by theorem
and is never wider than the Gershgorin interval.  It is deterministic.  The
expansion coefficients are the Bessel values ``J_k(z)``, computed by
Miller's backward recurrence ``J_{k-1} = (2k / z) J_k - J_{k+1}`` normalised
by ``J_0 + 2 sum_k J_{2k} = 1`` (Numerical Recipes, ``bessj``).

The Chebyshev engine takes an operator such as ``model.PairHamiltonian``:
``bounding()`` gives the pair ``(D - |O|, D + |O|)`` of its diagonal ``D``
and off-diagonal part ``O``, whose bound products give the interval of every
operator alike, and ``scaled(shift, factor)`` the operator
``factor * (H - shift)``, whose ``pack``, ``bind`` and ``unpack`` run a
recursion on the operator's own layout of a state, in buffers from its
``empty_packed``.  The engine keeps
``B = -2i A`` for its rescaled operator ``A`` and runs the recursion on
``V_k = (-i)^k T_k(A) psi``: each term is one call of a kernel bound once per
buffer row, ``V_{k+1} = B V_k + V_{k-1}``, and takes the real coefficient
``2 J_k``; each returned state gets its phase ``exp(-i center t)`` once.
One recursion returns the states at several offsets: the terms go into a
fixed buffer of ``TERM_BUFFER`` rows that is added into every offset's row
with one real matrix product per buffer, on float64 views, through a block
the propagator keeps; every state it returns is back in basis order.
``samples`` yields blocks of up to ``SAMPLE_BLOCK`` states, one row per
sample time and one matrix product or recursion per block; a Chebyshev block
spans several times only while each step of it is short enough that its own
series is mostly overhead.  A propagator counts its recursions and operator
products and names the source of its interval, on the instance, for the run
record.
"""

from __future__ import annotations

import numpy as np


#: most rows of a block yielded by ``samples`` (8 states at dim 6216 are 0.8 MB)
SAMPLE_BLOCK = 8

#: Chebyshev terms added into the output rows per matrix product.  At dim 6216
#: a packed row is 107.6 KB, so 8 terms plus the kernels' scratch and weight
#: tables and a row's output are about 1.4 MB, inside a 2 MiB L2, where 16
#: terms were 2.26 MB; the term count does not depend on it.  It must be at
#: least 3: each term is formed from the two before it in the same buffer
TERM_BUFFER = 8

#: power steps behind each end of the Collatz–Wielandt interval of ``spectral_bounds``
CW_ITERATIONS = 25


class PropagationAccuracyError(RuntimeError):
    """Propagation could not meet the requested tolerance."""


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


def _ends(lower, upper, below: np.ndarray, above: np.ndarray) -> tuple[float, float]:
    """``[min_i (L below)_i / below_i, max_i (U above)_i / above_i]`` for a bounding pair and positive weights.

    Each ratio is one bound product on the operator's own layout.  The ends
    are ends of the Gershgorin intervals of matrices similar to the operator
    ``H`` of the pair, so they contain its spectrum by theorem for every pair
    of positive weights.
    """

    def ratios(m, x: np.ndarray) -> np.ndarray:
        return m.unpack(m.bind(m.pack(x), None, m.empty_packed())()).real / x

    return float(np.min(ratios(lower, below))), float(np.max(ratios(upper, above)))


def _interval(h, below: np.ndarray, above: np.ndarray) -> tuple[float, float]:
    """``_ends`` of ``h``'s bounding pair; unit weights give the Gershgorin interval of ``h`` itself."""
    return _ends(*h.bounding(), below, above)


def _power_weights(m) -> np.ndarray:
    """``m^CW_ITERATIONS 1`` up to a factor, in basis order, by the bound kernel on ``m``'s layout.

    Each iterate is scaled to a largest entry of 1.  For a non-negative
    ``m`` every entry stays non-negative; one that underflows reads 0, and
    all read 0 once an iterate is 0.
    """
    x, y = m.pack(np.ones(m.shape[0])), m.empty_packed()
    passes = (m.bind(x, None, y), y), (m.bind(y, None, x), x)
    for k in range(CW_ITERATIONS):
        kernel, out = passes[k % 2]
        top = kernel().real.max()
        if top == 0.0:
            return np.zeros(m.shape[0])
        out /= top
    return m.unpack(out).real


def spectral_bounds(h) -> tuple[float, float, str]:
    """Collatz–Wielandt interval of ``h``, at least 1e-9 wide, inside its Gershgorin interval.

    Returns ``(lo, hi, source)``, ``source`` naming the interval that stood:
    ``"collatz-wielandt"`` or ``"gershgorin"``.  Both come from the bounding
    pair ``(L, U) = (D - |O|, D + |O|)`` of ``h``, its diagonal ``D`` and
    off-diagonal part ``O``, taken once: the Gershgorin ends ``lo`` and ``hi``
    are ``_ends`` with unit weights, and ``hi - L`` and ``U - lo`` are
    non-negative matrices.  The lower end is weighted by ``CW_ITERATIONS``
    power steps of ``hi - L`` from ones, the upper end by those of
    ``U - lo``: the Collatz–Wielandt bounds of a non-negative matrix (Horn &
    Johnson, Matrix Analysis, ch. 8) approach the exact ends of ``L`` and
    ``U``, which enclose the spectrum of ``h``, as the weights approach its
    Perron vector, and hold for any positive weights.  When an entry of
    either vector underflows to 0 the Gershgorin interval stands.
    """
    lower, upper = h.bounding()
    ones = np.ones(h.shape[0])
    lo, hi = _ends(lower, upper, ones, ones)
    source = "gershgorin"
    below, above = _power_weights(lower.scaled(hi, -1.0)), _power_weights(upper.scaled(lo, 1.0))
    if np.all(below > 0.0) and np.all(above > 0.0):
        tight_lo, tight_hi = _ends(lower, upper, below, above)
        lo, hi, source = max(lo, tight_lo), min(hi, tight_hi), "collatz-wielandt"
    return lo, lo + max(hi - lo, 1e-9), source


class ChebyshevPropagator:
    """Polynomial expansion of exp(-iHt) on the rescaled spectrum.

    It counts its own work: ``recursions`` run so far and the ``matvecs``
    (operator products, one per term after the first) they took; ``interval``
    names the source of its interval, as ``spectral_bounds`` returns it.
    """

    def __init__(self, h, *, tol: float = 1e-12):
        self.h = h
        self.tol = tol
        lo, hi, self.interval = spectral_bounds(h)
        self.center = 0.5 * (hi + lo)
        self.halfwidth = 0.5 * (hi - lo)
        # B = -2i A for the rescaled operator A: the terms V_k = (-i)^k T_k(A) psi
        # follow V_{k+1} = B V_k + V_{k-1}, which needs no doubling pass, and take
        # the real coefficients 2 J_k; scaling by 2 is exact, so 0.5 B V_0 is V_1 bit for bit
        self._b = h.scaled(self.center, -2j / self.halfwidth)
        self._coeff_cache: dict[float, np.ndarray] = {}
        # block products of _sum_series, sized by the longest window so far
        self._part = np.empty((0, 0), dtype=complex)
        self.recursions = self.matvecs = 0

    def stats(self) -> dict:
        """The interval's source and halfwidth and the work counted so far, for a run record."""
        return {
            "interval": self.interval,
            "halfwidth": self.halfwidth,
            "recursions": self.recursions,
            "matvecs": self.matvecs,
        }

    def _coefficients(self, dt: float) -> np.ndarray:
        """The real coefficients ``J_0, 2 J_1, 2 J_2, ...`` at ``halfwidth * dt``, one per term of the series."""
        key = float(dt)
        if key not in self._coeff_cache:
            z = self.halfwidth * dt
            floor = max(self.tol * 1e-3, 1e-16)
            n_max = int(z + 45.0 * (z + 1.0) ** (1.0 / 3.0) + 40.0)
            bessel = _bessel_j(n_max, z)
            keep = np.nonzero(np.abs(bessel) > floor)[0]
            cut = min(int(keep[-1]) + 2, n_max + 1)
            if np.abs(bessel[cut - 1]) > 10.0 * self.tol:
                raise PropagationAccuracyError(
                    "Chebyshev series did not decay below tolerance "
                    f"(achieved {np.abs(bessel[cut - 1]):.3e}, target {self.tol:.3e})"
                )
            coef = 2.0 * bessel[:cut]
            coef[0] = bessel[0]
            self._coeff_cache[key] = coef
        return self._coeff_cache[key]

    def _is_short(self, step: float) -> bool:
        """Whether most of a step's own series is overhead beyond its phase."""
        return self._coefficients(step).size >= 2.0 * self.halfwidth * step

    def _sum_series(self, psi: np.ndarray, coef: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Rows ``sum_k coef[r, k] (-i)^k T_k(A) psi`` for real ``coef``, where row ``r`` has ``ends[r]`` (ascending) terms.

        The recursion runs on the packed layout of ``B = -2i A``, in buffers
        the operator allocates, and the rows are unpacked once at the end.
        The terms go into a fixed buffer of ``TERM_BUFFER`` rows; each row's
        kernel is bound once per call, so a term is one call of it.  Each
        full buffer is added into the rows whose series has not ended through
        one real matrix product, on float64 views, into ``part``, which the
        propagator keeps: one allocated per call faulted its pages in on every
        window.  The term buffer stays per call, as its pages then serve the
        caller's temporaries between windows, where a kept one would add to
        the peak memory.  The returned rows are a new array, so a caller may
        keep them.
        """
        b = self._b
        rows, n_terms = coef.shape
        if self._part.shape[0] < rows:
            self._part = b.empty_packed(rows)
        part = self._part[:rows].view(float)
        out = b.empty_packed(rows)
        out[:] = 0.0
        terms = b.empty_packed(min(TERM_BUFFER, n_terms))
        # the kernel of a row forms its term from the two rows before it, cyclically
        kernels = [b.bind(terms[slot - 1], terms[slot - 2], terms[slot]) for slot in range(len(terms))]
        terms[0] = b.pack(psi)
        b.bind(terms[0], None, terms[1])()
        terms[1] *= 0.5
        real_terms, real_out = terms.view(float), out.view(float)
        self.recursions += 1
        self.matvecs += n_terms - 1
        for k in range(n_terms):
            slot = k % TERM_BUFFER
            if k >= 2:
                kernels[slot]()
            if slot == TERM_BUFFER - 1 or k == n_terms - 1:
                start = k - slot
                active = int(np.searchsorted(ends, start, side="right"))
                np.matmul(coef[active:, start : k + 1], real_terms[: slot + 1], out=part[active:])
                real_out[active:] += part[active:]
        return b.unpack(out)

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
        coef = np.zeros((offsets.size, n_terms))
        for row, c in zip(coef, series):
            row[: c.size] = c
        out = self._sum_series(psi, coef, ends)
        out *= np.exp(-1j * self.center * offsets)[:, np.newaxis]
        drift = np.abs(np.linalg.norm(out, axis=1) - np.linalg.norm(psi))
        if drift.max() > 1e-8:
            raise PropagationAccuracyError(
                "norm drifted during a Chebyshev step; spectral bounds too tight "
                f"(achieved {drift.max():.3e}, target 1.000e-08)"
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
