"""The frame propagator of `wva_lab.dynamics` as it was before it was
restricted to the charge blocks psi0 touches: every charge block of
K + d Jz is diagonalized on every call. It is the reference that the
restricted, memoized solver is checked against bit for bit.
"""

import numpy as np

from wva_lab.dynamics import _model_vectors


def all_block_frame(params, psi0):
    """(d Jz diagonal, blocks) with one (idx, lambda, V, V^dag psi0[idx])
    per block size over every charge block, the format of
    `wva_lab.dynamics._frame_propagator`."""
    if abs(psi0.norm() - 1.0) > 1e-10:
        raise ValueError("psi0 must be normalized")
    if psi0.dim != params.joint_dim:
        raise ValueError("psi0 must live on the joint space")
    model = _model_vectors(params)
    d_jz = params.delta_minus * model.m_joint
    blocks = []
    for idx, diag, coupling in model.blocks:
        gen = np.zeros(idx.shape + idx.shape[1:])
        gen[:, diag, diag] = d_jz[idx]
        gen[:, diag[:-1], diag[1:]] = gen[:, diag[1:], diag[:-1]] = params.g0 * coupling
        evals, evecs = np.linalg.eigh(gen)
        coeffs = np.einsum("bik,bi->bk", evecs.conj(), psi0.amplitudes[idx])
        blocks.append((idx, evals, evecs, coeffs))
    return d_jz, blocks
