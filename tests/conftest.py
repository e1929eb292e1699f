import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pairquench import (
    ModelParams,
    QuenchWorkspace,
    WavePacketSpec,
    band_scan,
    build_basis,
    build_h0,
    prepare_wavepacket,
)

from oracles import loop_build_h0

REF_N = 111
REF_KAPPA = 1.0
REF_U = -6.24
F_BLOCH = -0.097120
F_DECAY = -0.097815


@pytest.fixture(scope="session")
def ref_basis():
    return build_basis(REF_N)


@pytest.fixture(scope="session")
def ref_band():
    return band_scan(REF_KAPPA, REF_U, REF_N)


@pytest.fixture(scope="session")
def ref_bound(ref_band, ref_basis):
    return ref_band.bound_matrix(ref_basis)


@pytest.fixture(scope="session")
def ref_packet_spec():
    return WavePacketSpec(center_momentum=-0.9 * np.pi, width=0.2, center_site=36)


@pytest.fixture(scope="session")
def ref_psi0(ref_packet_spec, ref_band, ref_bound):
    return prepare_wavepacket(ref_packet_spec, ref_band, ref_bound)


@pytest.fixture(scope="session")
def ref_h0_open(ref_basis):
    params = ModelParams(REF_N, REF_KAPPA, REF_U, REF_U)
    return build_h0(params, ref_basis)


@pytest.fixture(scope="session")
def ref_h0_ring():
    # the field-free ring whose eigenstates the bound band describes; the package builds the open chain only
    return loop_build_h0(ModelParams(REF_N, REF_KAPPA, REF_U, REF_U), ring=True)


@pytest.fixture(scope="session")
def small_workspace():
    params = ModelParams(15, kappa=1.0, u=-6.24, v=-6.24)
    packet = WavePacketSpec(center_momentum=-0.9 * np.pi, width=0.35, center_site=8)
    return QuenchWorkspace.prepare(params, packet)


@pytest.fixture(scope="session")
def ref_workspace(ref_basis, ref_band, ref_bound, ref_psi0, ref_h0_open):
    bound = ref_bound.on_layout(ref_h0_open)
    return QuenchWorkspace(basis=ref_basis, bound=bound, psi0=ref_psi0, h0=ref_h0_open, band=ref_band)
