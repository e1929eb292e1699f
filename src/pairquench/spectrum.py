"""Eigenvalue spectra versus field, pair-correlation labels and avoided crossings.

Levels are tracked across the field grid by maximal eigenvector overlap
(sorted-index continuity mixes branches near an anticrossing) while the grid
is solved, so no slice keeps its eigenvectors.  A large windowed scan takes
the eigenpairs nearest the window center by shift-invert, asking for more
until the farthest lies outside the window.  Crossing detection lays the
tracked levels out as one table of fields x level ids; interior gap minima
of energy-adjacent tracked pairs are reported as avoided crossings, with
near-degenerate minima split out as true crossings.
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
    ambiguous: tuple[AmbiguousSegment, ...]


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
        # the k levels nearest the center hold every level of the window once the farthest lies outside it
        covered = np.max(np.abs(vals - center)) > 0.5 * (hi - lo)
        if covered or k >= dim - 2:
            break
        k = min(2 * k, dim - 2)
    keep = (vals >= lo) & (vals <= hi)
    order = np.argsort(vals[keep])
    return vals[keep][order], vecs[:, keep][:, order]


def spectrum_vs_field(f_values, params: ModelParams, window: tuple[float, float] | None) -> list[SpectrumSlice]:
    """Diagonalize the driven chain on a grid of field values, in ``window`` (all levels: None).

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


def classify_levels(slc: SpectrumSlice, r_threshold: float) -> list[str]:
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


def detect_avoided_crossings(slices: list[SpectrumSlice], *, r_threshold: float) -> CrossingScan:
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

    # one row per slice and one column per level id, NaN where the slice lacks the level
    n_ids = 1 + max(int(slc.level_ids.max(initial=-1)) for slc in slices)
    energy = np.full((len(slices), n_ids), np.nan)
    corr = np.full_like(energy, np.nan)
    pairs: set[tuple[int, int]] = set()
    for s, slc in enumerate(slices):
        energy[s, slc.level_ids] = slc.energies
        corr[s, slc.level_ids] = slc.correlations
        ordered = slc.level_ids[np.argsort(slc.energies)]
        below, above = ordered[:-1], ordered[1:]
        pairs.update(zip(np.minimum(below, above).tolist(), np.maximum(below, above).tolist()))

    avoided: list[AvoidedCrossing] = []
    exact: list[AvoidedCrossing] = []
    for ida, idb in sorted(pairs):
        gaps = np.abs(energy[:, ida] - energy[:, idb])
        # interior minima; a comparison with NaN is False, so no trio next to a missing level counts
        minima = (gaps[1:-1] <= gaps[:-2]) & (gaps[1:-1] <= gaps[2:])
        for s in (np.flatnonzero(minima) + 1).tolist():
            scale = max(1.0, abs(energy[s, ida]), abs(energy[s, idb]))
            event = AvoidedCrossing(
                f_center=slices[s].field,
                gap=float(gaps[s]),
                level_pair=(ida, idb),
                classification=(_label(corr[s - 1, ida], r_threshold), _label(corr[s - 1, idb], r_threshold)),
            )
            if gaps[s] <= TRUE_CROSSING_TOL * scale:
                exact.append(event)
            else:
                avoided.append(event)
    return CrossingScan(avoided=avoided, true_crossings=exact, ambiguous=ambiguous)
