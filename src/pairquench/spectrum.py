"""Eigenvalue spectra versus field, pair-correlation labels and avoided crossings.

Levels are tracked across the field grid by maximal eigenvector overlap
(sorted-index continuity mixes branches near an anticrossing) while the grid
is solved, so no slice keeps its eigenvectors; gap minima of energy-adjacent
tracked pairs are reported as avoided crossings, with near-degenerate minima
split out as true crossings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment
from scipy.sparse.linalg import eigsh

from .model import ModelParams, PairHamiltonian, build_basis, build_h0, build_stark, separations

LABEL_CORRELATED = "correlated"
LABEL_UNCORRELATED = "uncorrelated"

#: gaps below this (relative to the local energy scale) count as true crossings
TRUE_CROSSING_TOL = 1e-8

#: eigenvector overlap below which a tracked level step is reported as ambiguous
OVERLAP_MIN = 0.5

#: most basis states diagonalised densely: 31 MiB per dim x dim matrix at the
#: largest lattice, 63 sites (3.3 GB at 201); a windowed scan of more runs shift-invert
MAX_DENSE_STATES = 2048

#: eigenpairs the first shift-invert solve of a window asks for; doubled until the window is covered
K_START = 32


@dataclass(frozen=True)
class AmbiguousSegment:
    """Grid interval where eigenvector overlap was too small to track a level."""

    f_from: float
    f_to: float
    track: int
    overlap: float


@dataclass
class SpectrumSlice:
    """Eigenvalues of one field value, optionally restricted to an energy window.

    ``level_ids`` are the persistent ids of the levels, tracked from the
    previous slice of the grid; ``ambiguous`` lists the levels whose step
    into this slice had an overlap below ``OVERLAP_MIN``.
    """

    field: float
    energies: np.ndarray
    correlations: np.ndarray
    level_ids: np.ndarray
    ambiguous: tuple[AmbiguousSegment, ...] = ()


def _csr(h: PairHamiltonian) -> sparse.csr_array:
    """The CSR matrix that ``eigsh`` needs, from the operator's own element list."""
    return sparse.csr_array(h.coo(), shape=h.shape)


def _window_eigenpairs(h: PairHamiltonian, window: tuple[float, float]):
    """All eigenpairs inside the window via shift-invert around its center."""
    lo, hi = window
    center = 0.5 * (lo + hi)
    dim = h.shape[0]
    matrix = _csr(h)
    v0 = np.ones(dim) / np.sqrt(dim)
    k = min(K_START, dim - 2)
    while True:
        vals, vecs = eigsh(matrix, k=k, sigma=center, v0=v0)
        covered = vals.min() < lo and vals.max() > hi
        if covered or k >= dim - 2:
            break
        k = min(2 * k, dim - 2)
    keep = (vals >= lo) & (vals <= hi)
    order = np.argsort(vals[keep])
    return vals[keep][order], vecs[:, keep][:, order]


def spectrum_vs_field(
    f_values,
    params: ModelParams,
    window: tuple[float, float] | None = None,
) -> list[SpectrumSlice]:
    """Diagonalize the driven chain on a grid of field values; ``params.field`` is not read.

    The field-free chain is built once and each field adds its diagonal.
    Small problems (or no window) are solved densely; large windowed ones use
    sparse shift-invert around the window center.  Levels are tracked as the
    slices are produced, so at most two slices' eigenvectors are alive at once.
    """
    basis = build_basis(params.n_sites)
    h0, sep = build_h0(params, basis), separations(basis)
    slices: list[SpectrumSlice] = []
    previous = None  # eigenvectors of the last slice, all that tracking the next one needs
    next_id = 0
    for f in np.asarray(f_values, dtype=float):
        h = h0.add_diagonal(build_stark(float(f), basis))
        if window is None or basis.dim <= MAX_DENSE_STATES:
            vals, vecs = np.linalg.eigh(h.toarray())
            if window is not None:
                keep = (vals >= window[0]) & (vals <= window[1])
                vals, vecs = vals[keep], vecs[:, keep]
        else:
            vals, vecs = _window_eigenpairs(h, window)
        corr = sep @ (np.abs(vecs) ** 2)
        if previous is None:
            ids, ambiguous = np.arange(vals.size), ()
            next_id = vals.size
        else:
            ids, ambiguous, next_id = _track_levels(slices[-1], previous, float(f), vecs, next_id)
        slices.append(SpectrumSlice(float(f), vals, corr, ids, ambiguous))
        previous = vecs
    return slices


def _label(rbar: float, r_threshold: float) -> str:
    """Correlated (pair-like) up to a mean separation of ``r_threshold``, else uncorrelated."""
    return LABEL_CORRELATED if rbar <= r_threshold else LABEL_UNCORRELATED


def classify_levels(slc: SpectrumSlice, r_threshold: float = 1.0) -> list[str]:
    """Label each level correlated (pair-like) or uncorrelated by its mean separation."""
    return [_label(r, r_threshold) for r in slc.correlations]


@dataclass(frozen=True)
class AvoidedCrossing:
    """Local gap minimum of two tracked levels."""

    f_center: float
    gap: float
    level_pair: tuple[int, int]
    classification: tuple[str, str]


@dataclass
class CrossingScan:
    """Every detected gap minimum of the tracked levels, and the ambiguous tracking steps."""

    avoided: list[AvoidedCrossing]
    true_crossings: list[AvoidedCrossing]
    ambiguous: list[AmbiguousSegment]


def _track_levels(
    before: SpectrumSlice, before_vectors: np.ndarray, field: float, vectors: np.ndarray, next_id: int
):
    """Ids of the levels ``vectors`` at ``field`` by maximal-overlap matching to the slice ``before``.

    Returns the ids, the ambiguous steps and the next unused id; a level
    left unmatched gets a new id.
    """
    overlap = np.abs(before_vectors.conj().T @ vectors)
    rows, cols = linear_sum_assignment(-overlap)
    ids = np.full(vectors.shape[1], -1)
    ambiguous = []
    for r, c in zip(rows, cols):
        ids[c] = before.level_ids[r]
        if overlap[r, c] < OVERLAP_MIN:
            ambiguous.append(
                AmbiguousSegment(
                    f_from=before.field,
                    f_to=field,
                    track=int(before.level_ids[r]),
                    overlap=float(overlap[r, c]),
                )
            )
    unmatched = np.nonzero(ids < 0)[0]
    ids[unmatched] = np.arange(next_id, next_id + unmatched.size)
    return ids, tuple(ambiguous), next_id + unmatched.size


def detect_avoided_crossings(
    slices: list[SpectrumSlice], *, r_threshold: float = 1.0
) -> CrossingScan:
    """Find local gap minima of energy-adjacent tracked level pairs.

    Each pair of levels that are neighbours in the sorted spectrum anywhere
    on the grid contributes one gap series; interior local minima become
    avoided crossings (or true crossings when the gap is numerically zero).
    Classification pairs the correlation labels of the two tracks on the
    early side of the minimum, where they are still unmixed.
    """
    if len(slices) < 3:
        raise ValueError("crossing detection needs at least 3 field slices")
    ambiguous = [segment for slc in slices for segment in slc.ambiguous]

    energy_of: list[dict[int, float]] = []
    corr_of: list[dict[int, float]] = []
    for slc in slices:
        energy_of.append(dict(zip(slc.level_ids.tolist(), slc.energies.tolist())))
        corr_of.append(dict(zip(slc.level_ids.tolist(), slc.correlations.tolist())))

    pairs: set[tuple[int, int]] = set()
    for slc in slices:
        sorted_ids = slc.level_ids[np.argsort(slc.energies)]
        for x, y in zip(sorted_ids[:-1], sorted_ids[1:]):
            pairs.add((min(int(x), int(y)), max(int(x), int(y))))

    avoided: list[AvoidedCrossing] = []
    exact: list[AvoidedCrossing] = []
    for ida, idb in sorted(pairs):
        gaps = []
        for s in range(len(slices)):
            ea = energy_of[s].get(ida)
            eb = energy_of[s].get(idb)
            gaps.append(abs(ea - eb) if ea is not None and eb is not None else np.nan)
        gaps = np.asarray(gaps)
        for s in range(1, len(slices) - 1):
            trio = gaps[s - 1 : s + 2]
            if np.any(np.isnan(trio)):
                continue
            if trio[1] <= trio[0] and trio[1] <= trio[2]:
                scale = max(1.0, abs(energy_of[s][ida]), abs(energy_of[s][idb]))
                early = corr_of[s - 1]
                event = AvoidedCrossing(
                    f_center=slices[s].field,
                    gap=float(trio[1]),
                    level_pair=(ida, idb),
                    classification=(_label(early[ida], r_threshold), _label(early[idb], r_threshold)),
                )
                if trio[1] <= TRUE_CROSSING_TOL * scale:
                    exact.append(event)
                else:
                    avoided.append(event)
    return CrossingScan(avoided=avoided, true_crossings=exact, ambiguous=ambiguous)
