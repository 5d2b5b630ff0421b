"""Dense Kronecker products and matrix exponentials of `wva_lab.linalg`
values: the exp(-i g A (x) B) on psi_i (x) phi_i that `wva.evolved_joint`,
which never forms A (x) B, is checked against, and the assembled generators
of the Fisher and dynamics checks.
"""

import numpy as np

from wva_lab.linalg import DEFAULT_MAX_TENSOR_DIM, Operator, StateVector


def tensor(a, b, max_dim: int = DEFAULT_MAX_TENSOR_DIM):
    """Kronecker product of two StateVectors or two Operators."""
    joint = a.dim * b.dim
    if joint > max_dim:
        raise ValueError(f"joint dimension {joint} exceeds the configured maximum {max_dim}")
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(
            dim=joint,
            amplitudes=np.kron(a.amplitudes, b.amplitudes),
            normalized=a.normalized and b.normalized,
        )
    if isinstance(a, Operator) and isinstance(b, Operator):
        diagonal = a.diagonal and b.diagonal
        return Operator(
            dim=joint,
            entries=np.kron(a.entries, b.entries) if diagonal else np.kron(a.dense(), b.dense()),
            hermitian=a.hermitian and b.hermitian,
            diagonal=diagonal,
        )
    raise TypeError("tensor needs two StateVectors or two Operators")


def expm_i(op: Operator, s: float) -> Operator:
    """exp(-i * s * op) for Hermitian op; elementwise phases on the diagonal fast path."""
    if not op.hermitian:
        raise ValueError("expm_i requires a Hermitian operator")
    if op.diagonal:
        return Operator(op.dim, np.exp(-1j * s * op.entries.real), hermitian=False, diagonal=True)
    evals, evecs = np.linalg.eigh(op.entries)
    mat = (evecs * np.exp(-1j * s * evals)) @ evecs.conj().T
    return Operator(op.dim, mat, hermitian=False)
