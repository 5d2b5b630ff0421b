"""Complex linear-algebra substrate: state vectors, Hermitian operators,
tensor products, eigendecomposition, matrix exponentials, projections.

All objects are immutable after construction (arrays are frozen), so values
can be shared freely across threads. Every operation is a pure function.
An operator is stored in one of two forms, chosen here: a diagonal operator
as its length-dim diagonal, every other operator as its dense dim x dim
matrix. `apply`, `expectation`, `tensor` and `expm_i` work elementwise on a
diagonal, so no dim x dim array exists for it; `Operator.dense()` builds the
matrix where one is really needed (dense products, eigendecomposition, test
oracles). Elsewhere, `entries` is read as the diagonal only where `diagonal`
is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
#: Largest joint dimension `tensor` will produce unless overridden.
DEFAULT_MAX_TENSOR_DIM = 2**22


class NullPostselectionError(ValueError):
    """Raised when a projection probability underflows to effectively zero.

    Carries the raw overlap so callers can inspect how close to orthogonal
    the pair actually was.
    """

    def __init__(self, message: str, overlap: complex):
        super().__init__(message)
        self.overlap = complex(overlap)


def _frozen_array(values, dtype=complex) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector. Unit norm unless built via `unnormalized`."""

    dim: int
    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        amps = _frozen_array(self.amplitudes)
        if amps.ndim != 1 or amps.shape[0] != self.dim or self.dim < 1:
            raise ValueError(f"amplitudes must be a length-{self.dim} vector")
        if self.normalized:
            nrm = np.linalg.norm(amps)
            if abs(nrm - 1.0) > NORM_TOL:
                raise ValueError(f"state not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def of(cls, values) -> "StateVector":
        """Normalized state from raw amplitudes (real norm division only;
        the complex phase of the input is preserved)."""
        arr = np.asarray(values, dtype=complex)
        nrm = np.linalg.norm(arr)
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(dim=arr.shape[0], amplitudes=arr / nrm)

    @classmethod
    def unnormalized(cls, values) -> "StateVector":
        arr = np.asarray(values, dtype=complex)
        return cls(dim=arr.shape[0], amplitudes=arr, normalized=False)

    @classmethod
    def basis(cls, dim: int, index: int) -> "StateVector":
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(dim=dim, amplitudes=amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class Operator:
    """Complex operator on a declared space.

    A `diagonal` operator stores only its diagonal: `entries` is a length-dim
    vector, so O(dim) memory and elementwise products. Any other operator
    stores its dim x dim matrix. `hermitian` is validated at construction; for
    a diagonal operator it means the diagonal is real.
    """

    dim: int
    entries: np.ndarray
    hermitian: bool = False
    diagonal: bool = False

    def __post_init__(self):
        arr = _frozen_array(self.entries)
        shape = (self.dim,) if self.diagonal else (self.dim, self.dim)
        if arr.shape != shape:
            raise ValueError(f"entries must have shape {shape}")
        if self.hermitian:
            # a diagonal is Hermitian when it is real
            what, off = (("Im diag", arr.imag) if self.diagonal
                         else ("M - M^dag", arr - arr.conj().T))
            resid = np.max(np.abs(off), initial=0.0)
            if resid > HERMITICITY_TOL:
                raise ValueError(f"operator marked hermitian but |{what}| = {resid:.3e}")
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_matrix(cls, values, hermitian: bool = False) -> "Operator":
        arr = np.asarray(values, dtype=complex)
        return cls(dim=arr.shape[0], entries=arr, hermitian=hermitian)

    @classmethod
    def from_diagonal(cls, diag_values) -> "Operator":
        d = np.asarray(diag_values, dtype=complex)
        herm = bool(np.max(np.abs(d.imag), initial=0.0) <= HERMITICITY_TOL)
        return cls(dim=d.shape[0], entries=d, hermitian=herm, diagonal=True)

    @classmethod
    def identity(cls, dim: int) -> "Operator":
        return cls(dim=dim, entries=np.ones(dim, dtype=complex), hermitian=True, diagonal=True)

    def dense(self) -> np.ndarray:
        """The read-only dim x dim matrix, built on demand for a diagonal operator."""
        if not self.diagonal:
            return self.entries
        return _frozen_array(np.diag(self.entries))

    def dagger(self) -> "Operator":
        conj = self.entries.conj() if self.diagonal else self.entries.conj().T
        return Operator(self.dim, conj, self.hermitian, self.diagonal)


class Projection(NamedTuple):
    probability: float
    collapsed: StateVector
    overlap: complex


def inner(bra: StateVector, ket: StateVector) -> complex:
    """<bra|ket> with the first argument conjugated."""
    if bra.dim != ket.dim:
        raise ValueError("dimension mismatch in inner product")
    return complex(np.vdot(bra.amplitudes, ket.amplitudes))


def apply(op: Operator, state: StateVector) -> StateVector:
    """Matrix-vector product; result is generally unnormalized."""
    if op.dim != state.dim:
        raise ValueError("dimension mismatch in apply")
    if op.diagonal:
        return StateVector.unnormalized(op.entries * state.amplitudes)
    return StateVector.unnormalized(op.entries @ state.amplitudes)


def expectation(op: Operator, state: StateVector) -> complex:
    if op.dim != state.dim:
        raise ValueError("dimension mismatch in expectation")
    amps = state.amplitudes
    if op.diagonal:
        return complex(np.sum(np.abs(amps) ** 2 * op.entries))
    return complex(np.vdot(amps, op.entries @ amps))


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


def eig_hermitian(op: Operator):
    """Eigenvalues (ascending) and unitary eigenvector matrix of a Hermitian operator."""
    if not op.hermitian:
        raise ValueError("eig_hermitian requires a Hermitian operator")
    evals, evecs = np.linalg.eigh(op.dense())
    return evals, evecs


def expm_i(op: Operator, s: float) -> Operator:
    """exp(-i * s * op) for Hermitian op; elementwise phases on the diagonal fast path."""
    if not op.hermitian:
        raise ValueError("expm_i requires a Hermitian operator")
    if op.diagonal:
        return Operator(op.dim, np.exp(-1j * s * op.entries.real), hermitian=False, diagonal=True)
    evals, evecs = np.linalg.eigh(op.entries)
    mat = (evecs * np.exp(-1j * s * evals)) @ evecs.conj().T
    return Operator(op.dim, mat, hermitian=False)


def project(state: StateVector, direction: StateVector) -> Projection:
    """Projective measurement of `state` onto `direction`.

    The collapsed state is `direction` itself; the overlap (whose phase the
    caller may need) is returned explicitly rather than folded into the state.
    """
    if state.dim != direction.dim:
        raise ValueError("dimension mismatch in project")
    ov = inner(direction, state)
    prob = abs(ov) ** 2
    if prob < 1e-300:
        raise NullPostselectionError("null postselection: overlap underflow", ov)
    if prob > 1.0 + 1e-12:
        raise ValueError(f"projection probability {prob} above 1")
    return Projection(probability=min(prob, 1.0), collapsed=direction, overlap=ov)


def project_left(joint: StateVector, direction: StateVector, right_dim: int) -> Projection:
    """Project the left factor of a bipartite state onto `direction`.

    Returns the probability, the conditional (renormalized) right-factor state
    and the unnormalized conditional's leading overlap norm as `overlap`
    (complex phase conventions of the input are preserved: the conditional is
    divided by its real norm only).
    """
    left_dim = direction.dim
    if left_dim * right_dim != joint.dim:
        raise ValueError("joint dimension does not factor as left * right")
    block = joint.amplitudes.reshape(left_dim, right_dim)
    conditional = direction.amplitudes.conj() @ block
    nrm = np.linalg.norm(conditional)
    prob = float(nrm**2)
    if prob < 1e-300:
        raise NullPostselectionError("null postselection: overlap underflow", complex(nrm))
    return Projection(
        probability=min(prob, 1.0),
        collapsed=StateVector(dim=right_dim, amplitudes=conditional / nrm),
        overlap=complex(nrm),
    )


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for normalized pure states."""
    return abs(inner(a, b)) ** 2
