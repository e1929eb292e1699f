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
``factor * (H - shift)``, whose ``bind`` runs a recursion on the operator's
own packed layout of a state (``pack``), in buffers from its
``empty_packed``.  The engine keeps ``B = -2i A`` for its rescaled operator
``A`` and runs the recursion on ``V_k = (-i)^k T_k(A) psi``: each term is one
call of a kernel bound once per buffer row, ``V_{k+1} = B V_k + V_{k-1}``,
and takes the real coefficient ``2 J_k``; each returned state gets its phase
``exp(-i center t)`` once.  The engine does not check its states: an
interval too tight for ``H`` shows as norm drift, which ``quench.evolve``
checks on every sample from the norms it reads anyway.  One recursion
returns the states at several offsets: the terms go into a fixed buffer of
``TERM_BUFFER`` rows that is added into every offset's row with one real
matrix product per buffer, on float64 views, through a block the propagator
keeps.  States enter and leave ``advance`` and ``samples`` on the packed
layout, so nothing is unpacked between windows.
``samples`` yields blocks of up to ``SAMPLE_BLOCK`` states, one row per
sample time and one matrix product or recursion per block; a Chebyshev block
spans several times only while each step of it is short enough that one
recursion for the block costs less than one per sample (``WINDOW_RATIO``).
A propagator counts its recursions and operator products and names the
source of its interval, on the instance, for the run record.
"""

from __future__ import annotations

import numpy as np


#: most rows of a block yielded by ``samples`` (8 packed states at n = 111 are 0.86 MB)
SAMPLE_BLOCK = 8

#: Chebyshev terms added into the output rows per matrix product.  At dim 6216
#: a packed row is 107.6 KB, so 8 terms plus the kernels' scratch and weight
#: tables and a row's output are about 1.4 MB, inside a 2 MiB L2, where 16
#: terms were 2.26 MB; the term count does not depend on it.  It must be at
#: least 3: each term is formed from the two before it in the same buffer
TERM_BUFFER = 8

#: most terms one step's series may take: the coefficients are then at most 80 MB, and
#: one step at most t = 6e5 at halfwidth 16.64 (the default t_f = 800 takes 14.4k terms)
MAX_TERMS = 10**7

#: power steps behind each end of the Collatz–Wielandt interval of ``spectral_bounds``
CW_ITERATIONS = 25

#: a step is windowed while its series has at least this many terms per unit of
#: ``halfwidth * step``: timed at n = 111, F = -0.09712 on 40 samples (best of 5, one
#: BLAS thread), windows take 0.272 s against 0.284 s for one recursion per sample at
#: step 12 (1.31 terms per unit), 0.307 against 0.310 s at 14 (1.28) and 0.354
#: against 0.347 s at 16 (1.26); the rule keeps a 1-step quench at 100 windows
WINDOW_RATIO = 1.3


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
        # block products of advance, sized by the longest window so far
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
        """The real coefficients ``J_0, 2 J_1, 2 J_2, ...`` at ``halfwidth * dt``, one per term of the series.

        A step whose series bound ``z + 45 (z + 1)^(1/3) + 40``, ``z = halfwidth * dt``,
        passes ``MAX_TERMS`` raises ``PropagationAccuracyError`` before any array is made.
        """
        key = float(dt)
        if key not in self._coeff_cache:
            z = self.halfwidth * key  # a Python float: inf past the floats, never an overflow warning
            floor = max(self.tol * 1e-3, 1e-16)
            length = z + 45.0 * (z + 1.0) ** (1.0 / 3.0) + 40.0
            if not length <= MAX_TERMS:  # also a nan or an infinite step
                raise PropagationAccuracyError(
                    f"a step of {key:g} needs {length:.3g} Chebyshev terms, more than MAX_TERMS = {MAX_TERMS}"
                )
            n_max = int(length)
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
        """Whether a step's own series is long enough, against ``halfwidth * step``, that a window pays (``WINDOW_RATIO``)."""
        return self._coefficients(step).size >= WINDOW_RATIO * self.halfwidth * step

    def advance(self, psi: np.ndarray, dt: float, earlier=()) -> np.ndarray:
        """Block of packed states from the packed state ``psi``: one row per sorted offset ``earlier`` in (0, dt), then ``dt``'s.

        ``psi`` and the rows are on the layout of ``h.pack``.  The rows all come
        from one recursion as long as ``dt``'s series (a shorter offset never
        needs more terms), each with its phase ``exp(-i center t)``.  The rows
        are not checked: ``quench.evolve`` checks the norm of every sample.
        The terms go into a fixed buffer of ``TERM_BUFFER`` rows, each one call
        of a kernel bound once per call; each full buffer is added into the
        rows whose series has not ended by one real matrix product, on float64
        views, into ``_part``, which the propagator keeps (one per call faulted
        its pages in on every window).  The term buffer stays per call: its
        pages serve the caller's temporaries between windows, where a kept one
        would add to the peak memory.  The returned rows are a new array.
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
        b = self._b
        if self._part.shape[0] < offsets.size:
            self._part = b.empty_packed(offsets.size)
        part = self._part[: offsets.size].view(float)
        out = b.empty_packed(offsets.size)
        out[:] = 0.0
        terms = b.empty_packed(min(TERM_BUFFER, n_terms))
        # the kernel of a row forms its term from the two rows before it, cyclically
        kernels = [b.bind(terms[slot - 1], terms[slot - 2], terms[slot]) for slot in range(len(terms))]
        terms[0] = psi
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
        out *= np.exp(-1j * self.center * offsets)[:, np.newaxis]
        return out

    def samples(self, psi0: np.ndarray, times):
        """Packed states (on the layout of ``h.pack``) at strictly increasing ``times`` >= 0, one block per recursion.

        ``psi0`` is in basis order.  A block holds up to ``SAMPLE_BLOCK``
        consecutive samples while every step in it is short (``_is_short``),
        otherwise one; a sample at t = 0 is its own.  Only a copy of a block's
        last row is carried into the next recursion, so a block the caller has
        let go of is freed before it.
        """
        times = _sample_times(times)
        carried = self.h.pack(psi0)
        base, start = 0.0, 0
        if times.size and times[0] == 0.0:
            yield carried[np.newaxis]
            start = 1
        while start < times.size:
            stop = start + 1
            limit = min(start + SAMPLE_BLOCK, times.size)
            # a block that cannot hold a second sample asks no step its series: advance builds it
            if stop < limit and self._is_short(times[start] - base):
                while stop < limit and self._is_short(times[stop] - times[stop - 1]):
                    stop += 1
            offsets = times[start:stop] - base
            block = self.advance(carried, offsets[-1], offsets[:-1])
            carried = block[-1].copy()
            yield block
            del block  # the caller's now: not held through the next recursion
            base, start = times[stop - 1], stop
