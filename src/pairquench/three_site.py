"""Two-level pair/unpair dynamics of the three-site chain near its level anticrossing.

Around ``field = u/2`` the top two levels of the driven three-site chain
form, to second order in the hopping, an effective two-level system spanned
by the same-site pair at site 1 and the unpaired configuration on sites 1
and 3.  The closed-form Rabi constants below drive the transfer probability
``P(t) = sin(theta)^2 * sin(omega t)^2`` between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, build_basis, build_hamiltonian


class SingularParameterError(ValueError):
    """A parameter combination makes a perturbative denominator vanish."""


def _guard(value: float, label: str, scale: float) -> None:
    if abs(value) < 1e-12 * max(1.0, scale):
        raise SingularParameterError(f"denominator {label} vanishes")


@dataclass(frozen=True)
class EffectiveConstants:
    """Closed-form two-level constants for equal on-site and neighbour interaction.

    ``c0`` is the mean level energy, ``c1`` the detuning between the paired
    and unpaired configurations, ``omega`` the Rabi frequency and ``theta``
    the mixing angle.
    """

    c0: float
    c1: float
    omega: float
    theta: float


def rabi_constants(field: float, u: float, kappa: float) -> EffectiveConstants:
    """Two-level constants for the equal-interaction chain (v = u)."""
    scale = max(abs(field), abs(u))
    _guard(field, "field", scale)
    _guard(field - u, "field - u", scale)
    _guard(field + u, "field + u", scale)
    k2 = kappa**2
    c0 = u / 2.0 + 3.0 * field + k2 * u / (field**2 - u**2) - k2 / field
    c1 = u - 2.0 * field - 2.0 * k2 / field - 2.0 * k2 * u / (field**2 - u**2)
    coupling2 = u * np.sqrt(2.0) * k2 / (field**2 - field * u)
    omega = 0.5 * float(np.hypot(coupling2, c1))
    # principal branch keeps theta small off resonance (sin ~ tan there)
    theta = float(np.arctan(coupling2 / c1)) if c1 != 0.0 else float(np.copysign(np.pi / 2, coupling2))
    return EffectiveConstants(c0=float(c0), c1=float(c1), omega=omega, theta=theta)


def transfer_probability(t, constants: EffectiveConstants):
    """Pair -> unpaired transfer probability at time(s) t."""
    t = np.asarray(t, dtype=float)
    p = np.sin(constants.theta) ** 2 * np.sin(constants.omega * t) ** 2
    return float(p) if p.ndim == 0 else p


def exact_pair_dynamics(params: ModelParams, times) -> tuple[np.ndarray, np.ndarray]:
    """Exact evolution of the site-1 pair on the full three-site chain.

    Returns ``(pair_loss, unpair_weight)`` at ``times`` where ``pair_loss(t)
    = 1 - |<pair|psi(t)>|^2`` counts every process that moves weight off the
    initial configuration (including pair hopping), while ``unpair_weight(t)
    = |<unpair|psi(t)>|^2`` isolates genuine pair breaking into the edge
    configuration.  Both come from the closed form ``<c|psi(t)> = sum_k
    V[c, k] V[pair, k] exp(-i E_k t)`` of the eigenpairs ``(E, V)`` of the
    6 x 6 Hamiltonian.
    """
    if params.n_sites != 3:
        raise ValueError("exact pair dynamics is defined for the three-site chain")
    basis = build_basis(3)
    energies, vectors = np.linalg.eigh(build_hamiltonian(params, basis).toarray())
    ends = vectors[[basis.rank(1, 1), basis.rank(1, 3)]]  # rows V[pair], V[unpair]
    phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), energies))
    # both columns in one matrix product: a matrix-vector product per column sums
    # in another order and moves the last printed digit of the CSVs
    amplitudes = (phases * ends[0]) @ ends.T
    return 1.0 - np.abs(amplitudes[:, 0]) ** 2, np.abs(amplitudes[:, 1]) ** 2
