"""Complex linear-algebra substrate: state vectors, Hermitian operators,
inner products, expectations and the projection of a bipartite state's left
factor.

All objects are immutable after construction, so values can be shared
freely across threads. Every operation is a pure function. A constructor
validates its array once and keeps it read-only. It adopts a read-only
complex array without a copy when nothing can write its memory: the array
owns its data, or its base is a read-only array that owns its data. Every
other input, a writable array or a read-only view of writable memory
included, is copied. The package freezes the arrays it creates before
wrapping them, so they are adopted.
An operator is stored in one of two forms, chosen here: a diagonal operator
as its length-dim diagonal, every other operator as its dense dim x dim
matrix. `apply` and `expectation` work elementwise on a diagonal, so no
dim x dim array exists for it; `Operator.dense()` builds the matrix where one
is really needed (dense products, eigendecomposition, test oracles).
Elsewhere, `entries` is read as the diagonal only where `diagonal` is set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
#: Largest joint (system x meter) dimension `wva.evolved_joint` will form.
DEFAULT_MAX_TENSOR_DIM = 2**22


class NullPostselectionError(ValueError):
    """Raised when a projection probability underflows to effectively zero.

    Carries the raw overlap so callers can inspect how close to orthogonal
    the pair actually was.
    """

    def __init__(self, message: str, overlap: complex):
        super().__init__(message)
        self.overlap = complex(overlap)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """`arr`, now read-only: for an array the caller has just created and
    hands over, so that a constructor adopts it."""
    arr.setflags(write=False)
    return arr


def _frozen_array(values, dtype=complex) -> np.ndarray:
    """`values` as a read-only array: adopted when nothing can write its
    memory (see the module docstring), else a read-only copy."""
    if (type(values) is np.ndarray and values.dtype == dtype
            and not values.flags.writeable
            and (values.flags.owndata
                 or (type(values.base) is np.ndarray and values.base.flags.owndata
                     and not values.base.flags.writeable))):
        return values
    return _read_only(np.array(values, dtype=dtype))


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector. Unit norm unless built via `unnormalized`;
    a normalized state keeps the norm its validation computed."""

    dim: int
    amplitudes: np.ndarray
    normalized: bool = True
    _norm: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        amps = _frozen_array(self.amplitudes)
        if amps.ndim != 1 or amps.shape[0] != self.dim or self.dim < 1:
            raise ValueError(f"amplitudes must be a length-{self.dim} vector")
        if self.normalized:
            nrm = float(np.linalg.norm(amps))
            if not abs(nrm - 1.0) <= NORM_TOL:  # a NaN norm fails too
                raise ValueError(f"state not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
            object.__setattr__(self, "_norm", nrm)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def of(cls, values) -> "StateVector":
        """Normalized state from raw amplitudes (real norm division only;
        the complex phase of the input is preserved)."""
        arr = np.asarray(values, dtype=complex)
        nrm = np.linalg.norm(arr)
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(dim=arr.shape[0], amplitudes=_read_only(arr / nrm))

    @classmethod
    def unnormalized(cls, values) -> "StateVector":
        arr = np.asarray(values, dtype=complex)
        return cls(dim=arr.shape[0], amplitudes=arr, normalized=False)

    @classmethod
    def basis(cls, dim: int, index: int) -> "StateVector":
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(dim=dim, amplitudes=_read_only(amps))

    def norm(self) -> float:
        if self._norm is not None:
            return self._norm
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
    def from_diagonal(cls, diag_values) -> "Operator":
        d = np.asarray(diag_values, dtype=complex)
        herm = bool(np.max(np.abs(d.imag), initial=0.0) <= HERMITICITY_TOL)
        return cls(dim=d.shape[0], entries=d, hermitian=herm, diagonal=True)

    def dense(self) -> np.ndarray:
        """The read-only dim x dim matrix, built on demand for a diagonal operator."""
        if not self.diagonal:
            return self.entries
        return _read_only(np.diag(self.entries))


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
        return StateVector.unnormalized(_read_only(op.entries * state.amplitudes))
    return StateVector.unnormalized(_read_only(op.entries @ state.amplitudes))


def expectation(op: Operator, state: StateVector) -> complex:
    if op.dim != state.dim:
        raise ValueError("dimension mismatch in expectation")
    amps = state.amplitudes
    if op.diagonal:
        return complex(np.sum(np.abs(amps) ** 2 * op.entries))
    return complex(np.vdot(amps, op.entries @ amps))


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
        collapsed=StateVector(dim=right_dim, amplitudes=_read_only(conditional / nrm)),
        overlap=complex(nrm),
    )


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for normalized pure states."""
    return abs(inner(a, b)) ** 2
