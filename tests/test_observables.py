import numpy as np
from hypothesis import given, settings, strategies as st

from pairquench import build_basis

from oracles import fock_operators


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_probability_sum_rule(seed):
    # off-site pair probability plus same-site pair probability exhausts any
    # normalized two-boson state; evaluated through literal number operators
    n = 5
    basis = build_basis(n)
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    psi /= np.linalg.norm(psi)

    ops = fock_operators(n)
    num = [op.conj().T @ op for op in ops]
    fock_dim = num[0].shape[0]
    embed = np.zeros(fock_dim, dtype=complex)
    for amp, i, j in zip(psi, basis.i, basis.j):
        occ = [0] * n
        occ[i - 1] += 1
        occ[j - 1] += 1
        idx = 0
        for o in occ:
            idx = idx * 3 + o
        embed[idx] = amp

    total = 0.0
    for i in range(n):
        for r in range(1, n - i):
            total += np.real(np.vdot(embed, (num[i] @ num[i + r]) @ embed))
    for i in range(n):
        total += 0.5 * np.real(np.vdot(embed, (num[i] @ num[i] - num[i]) @ embed))
    assert abs(total - 1.0) < 1e-10
