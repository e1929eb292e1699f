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
from dataclasses import dataclass, field, replace

import numpy as np

from . import model
from .bound_band import BandStructure, BoundProjector, band_scan
from .model import ModelParams, PairHamiltonian, TwoBosonBasis, build_basis, build_h0, build_stark
from .propagation import ChebyshevPropagator


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
    branch: str = "+"

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
    for k, w, group, state in zip(band.momenta, weights, band.states, band.select(spec.branch)):
        if state is None:
            if w > WEIGHT_FLOOR * peak:
                raise IncompleteBandError(
                    f"branch {spec.branch!r} has no bound state at K = {k:.6f} "
                    f"(relative weight {w / peak:.2e})"
                )
            continue
        row = round(k * n / (2.0 * np.pi)) % n  # the FFT-order row of K in the table
        coef[row, group.index(state)] = w * np.exp(-1j * spec.center_site * k)
    psi = bound.superpose(coef)
    nrm = np.linalg.norm(psi)
    if nrm == 0.0:
        raise IncompleteBandError("no bound state carries packet weight")
    return psi / nrm


@dataclass
class QuenchTrajectory:
    """Sampled observables along one quench evolution.

    ``propagation`` is the propagator's own record of the run (``run_quench``
    fills it from ``ChebyshevPropagator.stats``), empty otherwise.
    """

    times: np.ndarray
    transfer: np.ndarray
    distance: np.ndarray
    energy: np.ndarray
    norm: np.ndarray
    total_energy: np.ndarray
    final_state: np.ndarray = field(repr=False)
    propagation: dict = field(default_factory=dict)


def evolve(
    propagator,
    psi0: np.ndarray,
    times,
    *,
    h0: PairHamiltonian,
    bound: BoundProjector,
    basis: TwoBosonBasis,
) -> QuenchTrajectory:
    """Evolve ``psi0`` under ``propagator.h``, sampling observables.

    ``propagator`` is a ``ChebyshevPropagator``, or any object with its ``h``
    and ``samples(psi0, times)``, such as an exact reference of a
    time-independent Hamiltonian.  ``times`` must be strictly increasing and
    start at 0.  ``h0`` is the field-free Hamiltonian entering the energy
    observable; ``bound`` projects onto the bound band for the transfer rate.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] != 0.0:
        raise ValueError("times must start at 0")
    sep = model.separations(basis)
    # the quench adds a diagonal field to h0, so the total energy costs a
    # diagonal product on top of the field-free energy
    h = propagator.h
    if (h.n_sites, h.kappa) != (h0.n_sites, h0.kappa):
        raise ValueError("the quenched Hamiltonian must differ from h0 on the diagonal only")
    field_diag = h.diagonal() - h0.diagonal()

    # a function, so that no block's densities are held through the next block's recursion
    def block_observables(block: np.ndarray) -> tuple:
        field_free = h0.expectations(block)
        weights, norm = bound.weights(block), np.linalg.norm(block, axis=1)
        density = np.abs(block) ** 2
        return weights, density @ sep, field_free, norm, field_free + density @ field_diag

    rows = []
    for block in propagator.samples(psi0, times):
        rows.append(block_observables(block))
    # one column per observable, in the field order of QuenchTrajectory
    observables = map(np.concatenate, zip(*rows))
    return QuenchTrajectory(times, *observables, final_state=block[-1])


@dataclass
class QuenchWorkspace:
    """Shared immutable inputs of a quench study: basis, bound-band projector, packet state, operator."""

    basis: TwoBosonBasis
    bound: BoundProjector
    psi0: np.ndarray
    h0: PairHamiltonian

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
        h0 = build_h0(replace(params, field=0.0), basis)
        return cls(basis=basis, bound=bound, psi0=psi0, h0=h0)

    def hamiltonian(self, field_value: float) -> PairHamiltonian:
        return self.h0.add_diagonal(build_stark(field_value, self.basis))


def run_quench(workspace: QuenchWorkspace, field_value: float, times) -> QuenchTrajectory:
    """Evolve the workspace packet under the quenched field, with the propagator's record."""
    propagator = ChebyshevPropagator(workspace.hamiltonian(field_value))
    trajectory = evolve(
        propagator,
        workspace.psi0,
        times,
        h0=workspace.h0,
        bound=workspace.bound,
        basis=workspace.basis,
    )
    trajectory.propagation = propagator.stats()
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
    autocorrelation above ``MIN_PERIOD_STRENGTH`` wins, reported with the
    sampling step as uncertainty.  A flat or aperiodic series yields period
    None.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 6:
        raise ValueError("period estimation needs at least 6 samples")
    x = values - values.mean()
    denom = float(np.dot(x, x))
    if denom < 1e-30:
        return PeriodEstimate(period=None, uncertainty=None, lag=None, strength=0.0)
    lags = n - 2
    acf = np.array([np.dot(x[: n - L], x[L:]) / (n - L) for L in range(lags)])
    acf /= acf[0]
    for lag in range(1, lags - 1):
        if acf[lag] >= acf[lag - 1] and acf[lag] >= acf[lag + 1] and acf[lag] > MIN_PERIOD_STRENGTH:
            return PeriodEstimate(
                period=lag * step,
                uncertainty=step,
                lag=lag,
                strength=float(acf[lag]),
            )
    return PeriodEstimate(period=None, uncertainty=None, lag=None, strength=float(acf[1:].max(initial=0.0)))


@dataclass
class SweepResult:
    """Long-time bound weight per quench field value."""

    f_values: np.ndarray
    transfer: np.ndarray
    t_final: float
    period: PeriodEstimate
    failures: list[tuple[float, str]]


#: (workspace, t_final) of the running sweep; set in pool worker processes only
_WORKER_CTX: tuple = ()


def _sweep_init(*ctx) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _sweep_point(field_value: float) -> float:
    """Bound weight at ``t_final`` after a quench to ``field_value``, in a pool worker.

    The workspace and ``t_final`` are the ones the worker's initializer stored.
    """
    workspace, t_final = _WORKER_CTX
    prop = ChebyshevPropagator(workspace.hamiltonian(field_value))
    # t_final positional: benchmarks/probe.py counts matvecs from advance's dt argument
    return float(workspace.bound.weights(prop.advance(workspace.psi0, t_final)))


def sweep_transfer(
    workspace: QuenchWorkspace,
    f_values,
    t_final: float,
    *,
    workers: int = 1,
) -> SweepResult:
    """Long-time bound weight across a grid of quench fields.

    Every grid runs on one process pool of ``workers`` processes, at most one
    per grid point and CPU and at least one, so ``workers=1`` is one worker
    process.  Grid points are independent; the failure of a single point is
    recorded against its field with its own message, and the sweep continues.
    Output ordering follows the input grid, so results are identical
    regardless of ``workers``.  The period is estimated only when every grid
    point succeeded, since the autocorrelation assumes one field step between
    neighbouring values.
    """
    f_values = np.asarray(f_values, dtype=float)
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if np.any(f_values == 0.0):
        raise ValueError("every field value in the sweep grid must be nonzero")
    transfer = np.full(f_values.size, np.nan)
    failures: list[tuple[float, str]] = []
    workers = max(1, min(workers, f_values.size, os.cpu_count() or 1))
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_sweep_init, initargs=(workspace, float(t_final))
    ) as pool:
        futures = [pool.submit(_sweep_point, float(f)) for f in f_values]
        for idx, fut in enumerate(futures):
            try:
                transfer[idx] = fut.result()
            except Exception as exc:  # record and continue per grid point
                failures.append((float(f_values[idx]), str(exc)))
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
    )
