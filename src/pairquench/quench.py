"""Field-quench dynamics of a bound-pair wave packet.

Workflow: scan the bound band of the field-free ring, superpose upper-band
states into a Gaussian packet, then evolve under the open chain with the
linear field switched on.  Observables per sample: weight remaining on the
bound band, mean particle separation, field-free energy, norm and total
energy.  A field sweep records the long-time bound weight per field value
and extracts the dominant periodicity of that curve.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import model
from .bound_band import BandStructure, BoundProjector, band_scan
from .model import ModelParams, PairHamiltonian, TwoBosonBasis, build_basis, build_h0, build_stark
from .propagation import ChebyshevPropagator, PropagationAccuracyError


class IncompleteBandError(ValueError):
    """The packet needs a bound state at a momentum where none exists, or has no weight on the grid."""


@dataclass(frozen=True)
class WavePacketSpec:
    """Gaussian packet in momentum space on one bound branch.

    ``width`` is the momentum-space standard deviation of the amplitude
    profile ``exp(-(K - K0)^2 / (2 width^2))``; ``center_site`` sets the
    real-space position through the phase ``exp(-i center_site K)``.
    """

    center_momentum: float
    width: float
    center_site: int
    branch: str

    def __post_init__(self):
        if abs(self.center_momentum) > np.pi:
            raise ValueError("center momentum must lie in [-pi, pi]")
        if self.width <= 0:
            raise ValueError("packet width must be positive")
        if self.branch not in ("+", "-"):
            raise ValueError(f"unknown branch {self.branch!r}")


#: relative Gaussian weight below which a missing bound state is tolerable
WEIGHT_FLOOR = 1e-8


def prepare_wavepacket(spec: WavePacketSpec, band: BandStructure, bound: BoundProjector) -> np.ndarray:
    """Normalized packet of bound states on the selected branch.

    ``bound`` is ``band.bound_matrix(basis)``: the packet is one superposition
    of its table.  Raises ``IncompleteBandError`` when no momentum carries
    weight, or when the branch has no bound state at a momentum whose
    Gaussian weight exceeds ``WEIGHT_FLOOR`` times the peak weight.
    """
    n = band.n_sites
    if not 1 <= spec.center_site <= n:
        raise ValueError(f"center site {spec.center_site} is outside the lattice")
    # a width whose square underflows gives inf and nan here, caught as no peak; one
    # whose square overflows gives a flat packet (a Python float square would raise)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        spread = 2.0 * np.float64(spec.width) ** 2
        weights = np.exp(-((band.momenta - spec.center_momentum) ** 2) / spread)
    peak = weights.max()
    if not peak > 0.0:
        raise IncompleteBandError(f"a packet of width {spec.width} carries no weight on the momentum grid")
    coef = np.zeros((n, bound.table.shape[2]), dtype=complex)
    for row, k, w, group, state in zip(coef, band.momenta, weights, band.states, band.select(spec.branch)):
        if state is None:
            if w > WEIGHT_FLOOR * peak:
                raise IncompleteBandError(
                    f"branch {spec.branch!r} has no bound state at K = {k:.6f} "
                    f"(relative weight {w / peak:.2e})"
                )
            continue
        row[group.index(state)] = w * np.exp(-1j * spec.center_site * k)
    psi = bound.superpose(coef)
    nrm = np.linalg.norm(psi)
    if nrm == 0.0:
        raise IncompleteBandError("no bound state carries packet weight")
    return psi / nrm


@dataclass
class QuenchTrajectory:
    """Sampled observables along one quench evolution.

    ``propagation`` is the run record ``run_quench`` fills: the propagator's
    ``stats()`` and the worst norm error and total-energy drift of the
    samples; empty otherwise.
    """

    times: np.ndarray
    transfer: np.ndarray
    distance: np.ndarray
    energy: np.ndarray
    norm: np.ndarray
    total_energy: np.ndarray
    propagation: dict = field(default_factory=dict)


def evolve(propagator, workspace: QuenchWorkspace, times) -> QuenchTrajectory:
    """Evolve the workspace packet ``psi0`` under ``propagator.h``, sampling observables.

    ``propagator`` is a ``ChebyshevPropagator``, or any object with its ``h``
    and ``samples(psi0, times)`` yielding blocks of packed states, such as an
    exact reference of a time-independent Hamiltonian.  ``times`` must be
    strictly increasing and start at 0.  Every observable is read off the
    packed rows, and no state is unpacked: the norm, separation and field
    energy as one product of ``|phi|**2`` by per-cell weights, the field-free
    energy of the workspace's ``h0`` by ``expectations``, the bound weight by
    the workspace's projector on the packed layout.  Every sample's norm must
    lie within 1e-8 of ``psi0``'s, or ``PropagationAccuracyError`` is raised:
    a spectral interval too tight for ``h`` makes the Chebyshev series grow,
    and once it overflows the norm reads NaN, which fails the check too.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] != 0.0:
        raise ValueError("times must start at 0")
    h0, bound = workspace.h0, workspace.bound
    # the quench adds a diagonal field to h0 on the same layout, so the total
    # energy costs a diagonal product on top of the field-free energy
    h = propagator.h
    if (h.n_sites, h.kappa) != (h0.n_sites, h0.kappa):
        raise ValueError("the quenched Hamiltonian must differ from h0 on the diagonal only")
    # |phi|^2 of a row, on its float64 view, times these: its squared norm, separation and field energy
    weights = h0.cell_weights(
        np.stack([np.ones(h0.shape[0]), model.separations(workspace.basis), h.diagonal() - h0.diagonal()], 1)
    )
    norm0 = np.linalg.norm(workspace.psi0)

    def block_observables(block: np.ndarray) -> tuple:
        norm_squared, distance, field_energy = (np.square(block.view(float)) @ weights).T
        norm = np.sqrt(norm_squared)
        drift = np.abs(norm - norm0).max()
        if not drift <= 1e-8:  # a NaN drift fails too
            raise PropagationAccuracyError(
                "norm drifted during a Chebyshev step; spectral bounds too tight "
                f"(achieved {drift:.3e}, target 1.000e-08)"
            )
        field_free = h0.expectations(block)
        return bound.weights(block), distance, field_free, norm, field_free + field_energy

    # map, so that no loop variable holds a block through the next block's recursion
    rows = list(map(block_observables, propagator.samples(workspace.psi0, times)))
    # one column per observable, in the field order of QuenchTrajectory
    observables = map(np.concatenate, zip(*rows))
    return QuenchTrajectory(times, *observables)


@dataclass
class QuenchWorkspace:
    """Shared immutable inputs of a quench study: basis, band and its projector, packet state, operator.

    ``bound`` projects states on the packed layout of ``h0`` (and of every
    ``hamiltonian``) onto the bound band; ``psi0`` is in basis order.
    """

    basis: TwoBosonBasis
    bound: BoundProjector
    psi0: np.ndarray
    h0: PairHamiltonian
    band: BandStructure = field(repr=False)

    @classmethod
    def prepare(cls, params: ModelParams, packet: WavePacketSpec) -> "QuenchWorkspace":
        if params.u != params.v:
            raise ValueError(
                "the bound-pair reference band is defined for equal on-site and "
                "neighbour interaction (u == v)"
            )
        basis = build_basis(params.n_sites)
        band = band_scan(params.kappa, params.u, params.n_sites)
        bound = band.bound_matrix(basis)
        psi0 = prepare_wavepacket(packet, band, bound)
        h0 = build_h0(params, basis)
        return cls(basis=basis, bound=bound.on_layout(h0), psi0=psi0, h0=h0, band=band)

    def hamiltonian(self, field_value: float) -> PairHamiltonian:
        return self.h0.add_diagonal(build_stark(field_value, self.basis))


def run_quench(workspace: QuenchWorkspace, field_value: float, times) -> QuenchTrajectory:
    """Evolve the workspace packet under the quenched field, with the run record in ``propagation``."""
    propagator = ChebyshevPropagator(workspace.hamiltonian(field_value))
    trajectory = evolve(propagator, workspace, times)
    trajectory.propagation = {
        **propagator.stats(),
        "max_norm_error": float(np.max(np.abs(trajectory.norm - 1.0))),
        "max_total_energy_drift": float(np.max(np.abs(trajectory.total_energy - trajectory.total_energy[0]))),
    }
    return trajectory


@dataclass(frozen=True)
class PeriodEstimate:
    """Dominant period of a sampled series, or None when no peak is significant."""

    period: float | None
    uncertainty: float | None
    lag: int | None
    strength: float


#: normalized autocorrelation a peak must exceed to count as a period
MIN_PERIOD_STRENGTH = 0.2


def estimate_period(values, step: float) -> PeriodEstimate:
    """Dominant period via the first autocorrelation peak of the series.

    The series is mean-subtracted; the first local maximum of the normalized
    (unbiased) autocorrelation at lags up to ``n // 2`` above
    ``MIN_PERIOD_STRENGTH`` wins, reported with the sampling step as
    uncertainty.  A flat or aperiodic series yields period None, with the
    largest autocorrelation over those lags as its strength.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 6:
        raise ValueError("period estimation needs at least 6 samples")
    x = values - values.mean()
    denom = float(np.dot(x, x))
    if denom < 1e-30:
        return PeriodEstimate(period=None, uncertainty=None, lag=None, strength=0.0)
    # lags up to n // 2 only: a longer lag averages too few products, and its value can exceed 1
    acf = np.array([np.dot(x[: n - L], x[L:]) / (n - L) for L in range(n // 2 + 1)])
    acf /= acf[0]
    for lag in range(1, acf.size - 1):
        if acf[lag] >= acf[lag - 1] and acf[lag] >= acf[lag + 1] and acf[lag] > MIN_PERIOD_STRENGTH:
            return PeriodEstimate(
                period=lag * step,
                uncertainty=step,
                lag=lag,
                strength=float(acf[lag]),
            )
    return PeriodEstimate(period=None, uncertainty=None, lag=None, strength=float(acf[1:].max()))


@dataclass
class SweepResult:
    """Long-time bound weight per quench field value.

    ``stats`` is the sweep's run record (``_sweep_stats``).
    """

    f_values: np.ndarray
    transfer: np.ndarray
    t_final: float
    period: PeriodEstimate
    failures: list[tuple[float, str]]
    stats: dict


#: (workspace, t_final) of the running sweep; set in pool worker processes only
_WORKER_CTX: tuple = ()


def _sweep_init(*ctx) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _sweep_point(field_value: float) -> tuple[float, dict]:
    """Bound weight at ``t_final`` after a quench to ``field_value``, in a pool worker, with the point's record.

    The point is ``run_quench`` on the workspace the worker's initializer
    stored, sampled at times 0 and ``t_final`` only, so it takes the quench's
    own path.  The record is the quench's run record plus the point's wall
    time ``wall_s``.
    """
    started = time.perf_counter()
    workspace, t_final = _WORKER_CTX
    trajectory = run_quench(workspace, field_value, (0.0, t_final))
    return float(trajectory.transfer[-1]), {**trajectory.propagation, "wall_s": time.perf_counter() - started}


def _sweep_stats(records: list[dict], failures: int) -> dict:
    """Run record of a sweep from the records of its successful points.

    The failure count, the median and largest point wall time, the summed
    ``recursions`` and ``matvecs``, how many points took each interval
    source, and the worst norm error and total-energy drift of any point;
    the wall times and the worst values are None when no point succeeded.
    """
    walls = sorted(r["wall_s"] for r in records)
    middle = len(walls) // 2
    intervals: dict[str, int] = {}
    for r in records:
        intervals[r["interval"]] = intervals.get(r["interval"], 0) + 1
    return {
        "failures": failures,
        # the middle value, or the mean of the middle two (np.median would load numpy.ma, 1 MiB)
        "point_wall_s_p50": (walls[middle] + walls[-middle - 1]) / 2.0 if walls else None,
        "point_wall_s_max": walls[-1] if walls else None,
        "recursions": sum(r["recursions"] for r in records),
        "matvecs": sum(r["matvecs"] for r in records),
        "intervals": dict(sorted(intervals.items())),
        "max_norm_error": max((r["max_norm_error"] for r in records), default=None),
        "max_total_energy_drift": max((r["max_total_energy_drift"] for r in records), default=None),
    }


def sweep_transfer(
    workspace: QuenchWorkspace,
    f_values,
    t_final: float,
    *,
    workers: int,
) -> SweepResult:
    """Long-time bound weight across a grid of quench fields.

    Every grid runs on one process pool of ``workers`` processes, at most one
    per grid point and CPU and at least one, so ``workers=1`` is one worker
    process.  Grid points are independent; the failure of a single point is
    recorded against its field with its own message, and the sweep continues.
    Output ordering follows the input grid, so results are identical
    regardless of ``workers``.  The period is estimated only when every grid
    point succeeded, since the autocorrelation assumes one field step between
    neighbouring values.  Each point returns its own record with its weight,
    and ``stats`` sums them.
    """
    f_values = np.asarray(f_values, dtype=float)
    if not 0.0 < t_final < np.inf:  # also a nan
        raise ValueError("t_final must be positive and finite")
    if not np.all(np.isfinite(f_values) & (f_values != 0.0)):
        raise ValueError("every field value in the sweep grid must be finite and nonzero")
    transfer = np.full(f_values.size, np.nan)
    failures: list[tuple[float, str]] = []
    records: list[dict] = []
    workers = max(1, min(workers, f_values.size, os.cpu_count() or 1))
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_sweep_init, initargs=(workspace, float(t_final))
    ) as pool:
        futures = [pool.submit(_sweep_point, float(f)) for f in f_values]
        for idx, fut in enumerate(futures):
            try:
                transfer[idx], record = fut.result()
            except Exception as exc:  # record and continue per grid point
                failures.append((float(f_values[idx]), str(exc)))
            else:
                records.append(record)
    if f_values.size >= 6 and np.isfinite(transfer).all():
        period = estimate_period(transfer, step=float(abs(f_values[1] - f_values[0])))
    else:
        period = PeriodEstimate(period=None, uncertainty=None, lag=None, strength=0.0)
    return SweepResult(
        f_values=f_values,
        transfer=transfer,
        t_final=float(t_final),
        period=period,
        failures=failures,
        stats=_sweep_stats(records, len(failures)),
    )
