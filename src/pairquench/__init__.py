"""Exact two-boson lattice dynamics: bound-pair bands, Stark quenches, pair breaking."""

from .bound_band import (
    BandStructure,
    BoundState,
    band_scan,
    momentum_grid,
    solve_bound_states,
)
from .model import (
    ModelParams,
    PairHamiltonian,
    TwoBosonBasis,
    build_basis,
    build_h0,
    build_hamiltonian,
    build_stark,
)
from .propagation import (
    ChebyshevPropagator,
    PropagationAccuracyError,
)
from .quench import (
    IncompleteBandError,
    PeriodEstimate,
    QuenchTrajectory,
    QuenchWorkspace,
    SweepResult,
    WavePacketSpec,
    estimate_period,
    evolve,
    prepare_wavepacket,
    run_quench,
    sweep_transfer,
)
from .three_site import (
    EffectiveConstants,
    SingularParameterError,
    exact_pair_dynamics,
    rabi_constants,
    transfer_probability,
)

__version__ = "0.1.0"

__all__ = [
    "BandStructure",
    "BoundState",
    "ChebyshevPropagator",
    "EffectiveConstants",
    "IncompleteBandError",
    "ModelParams",
    "PairHamiltonian",
    "PeriodEstimate",
    "PropagationAccuracyError",
    "QuenchTrajectory",
    "QuenchWorkspace",
    "SingularParameterError",
    "SweepResult",
    "TwoBosonBasis",
    "WavePacketSpec",
    "band_scan",
    "build_basis",
    "build_h0",
    "build_hamiltonian",
    "build_stark",
    "estimate_period",
    "evolve",
    "exact_pair_dynamics",
    "momentum_grid",
    "prepare_wavepacket",
    "rabi_constants",
    "run_quench",
    "solve_bound_states",
    "sweep_transfer",
    "transfer_probability",
]
