"""The dense Hamiltonian and frame propagator, one `eigh` of K + d Jz on
the whole joint space: the reference that the per-charge-block solver of
`wva_lab.dynamics._frame_propagator`, its fidelity scan over same-block
pairs and the sparse conservation check are checked against.
"""

import numpy as np

from wva_lab.dynamics import _ladder_parts, effective_generator_diag, time_grid
from wva_lab.linalg import Operator
from wva_lab.spin import SpinSpace


def hamiltonian_full(params, t):
    """g0 (J+ a^2 e^{i d t} + h.c.) at time t; Hermitian for every t."""
    h_plus, h_minus, _ = _ladder_parts(params)
    phase = np.exp(1j * params.delta_minus * t)
    return Operator(params.joint_dim, phase * h_plus + np.conj(phase) * h_minus,
                    hermitian=True)


def dense_evolve(params, psi0):
    """Times of `time_grid(params)` and the states
    e^{i d Jz t} V e^{-i lambda t} V^dag psi0 there, one row per time, with
    K + d Jz = V diag(lambda) V^dag from a single dense `eigh`."""
    h_plus, h_minus, _ = _ladder_parts(params)
    d_jz = params.delta_minus * np.repeat(SpinSpace(params.two_j).m_values(),
                                          params.fock_cutoff + 1)
    evals, evecs = np.linalg.eigh(h_plus + h_minus + np.diag(d_jz))
    nsteps, dt, _ = time_grid(params)
    times = dt * np.arange(nsteps + 1)[:, None]
    coeffs = evecs.conj().T @ psi0.amplitudes
    states = np.exp(1j * d_jz * times) * ((np.exp(-1j * evals * times) * coeffs) @ evecs.T)
    return times.ravel(), states


def dense_fidelities(params, psi0, include_commutator_terms=False):
    """|<psi_full|psi_eff>|^2 at every point of `time_grid(params)`, from the
    explicit states of both models."""
    times, full = dense_evolve(params, psi0)
    gen = effective_generator_diag(params, include_commutator_terms)
    eff = np.exp(-1j * gen * times[:, None]) * psi0.amplitudes
    return np.abs(np.sum(full.conj() * eff, axis=1)) ** 2
