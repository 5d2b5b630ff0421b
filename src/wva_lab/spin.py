"""Collective spin-j (Dicke) space: basis states, ladder/collective operators,
the nonlinear observable J^2 - Jz^2, and variances.

Basis convention, fixed globally: index k holds |j, m> with m = j - k, i.e.
m runs *descending* from +j at index 0 down to -j at the last index. All
serialization elsewhere in the package records this convention.
Half-integer j is supported (two_j odd); operations that need the m = 0 level
reject odd two_j with a clear error. The diagonal collective operators are
built once per (two_j, kind) and shared; each is read-only.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from math import frexp, ldexp

import numpy as np

from .families import require_register
from .linalg import Operator, StateVector, _read_only, apply, expectation

#: Kinds of `collective_op` that are diagonal in the Dicke basis.
DIAGONAL_KINDS = ("jz", "j2", "nonlinear")

#: Below this bound on the sum of the coefficients' |real| and |imaginary|
#: parts, no amplitude and no squared norm of a superposition overflows.
_SAFE_COEFFICIENT_SUM = 2.0**511


@dataclass(frozen=True)
class SpinSpace:
    """Dimension bookkeeping for a spin-j multiplet, parametrized by 2j."""

    two_j: int

    def __post_init__(self):
        require_register(self.two_j)

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    @property
    def dim(self) -> int:
        return self.two_j + 1

    def m_values(self) -> np.ndarray:
        """m from +j down to -j, matching the index order."""
        return (self.two_j - 2 * np.arange(self.dim)) / 2.0

    def index_of(self, m: float) -> int:
        two_m = round(2 * m)
        if abs(2 * m - two_m) > 1e-9:
            raise ValueError(f"m = {m} is not a half-integer")
        if abs(two_m) > self.two_j or (self.two_j - two_m) % 2 != 0:
            raise ValueError(f"m = {m} not in the ladder for 2j = {self.two_j}")
        return (self.two_j - two_m) // 2


def dicke_state(space: SpinSpace, m: float) -> StateVector:
    """Unit basis vector |j, m>."""
    return StateVector.basis(space.dim, space.index_of(m))


def superpose_dicke(space: SpinSpace, terms) -> StateVector:
    """Normalized superposition sum_k c_k |j, m_k>.

    Normalization divides by the real norm only, so the complex phase of the
    coefficients is preserved (a single term (m, 7i) yields amplitude i).
    Every coefficient must be finite. Where the norm would overflow, the
    coefficients are divided by their largest real or imaginary part first;
    where its square falls below the normal float range, they are scaled up
    by the power of two that brings that part to [1/2, 1), which is exact.
    """
    if not terms:
        raise ValueError("superpose_dicke needs at least one term")
    parts = []
    for _, coeff in terms:
        if not cmath.isfinite(coeff):
            raise ValueError(f"superposition coefficients must be finite, got {terms}")
        parts += (abs(coeff.real), abs(coeff.imag))
    if sum(parts) < _SAFE_COEFFICIENT_SUM:
        amps = _summed_terms(space, terms)
        nrm = np.linalg.norm(amps)
        if nrm < 2.0**-511:  # its square fell below 2^-1022 and may have lost digits
            scale = -frexp(max(parts))[1]
            amps = _summed_terms(space, [(m, complex(ldexp(coeff.real, scale),
                                                    ldexp(coeff.imag, scale)))
                                         for m, coeff in terms])
            nrm = np.linalg.norm(amps)
    else:  # the plain sum where its norm stays finite, so that every finite norm keeps its bits
        with np.errstate(over="ignore", invalid="ignore"):
            amps = _summed_terms(space, terms)
            nrm = np.linalg.norm(amps)
        if not np.isfinite(nrm):
            largest = max(parts)
            amps = _summed_terms(space, [(m, coeff / largest) for m, coeff in terms])
            nrm = np.linalg.norm(amps)
    if nrm == 0.0:
        raise ValueError("superposition coefficients sum to the zero vector")
    return StateVector(dim=space.dim, amplitudes=_read_only(amps / nrm))


def _summed_terms(space: SpinSpace, terms) -> np.ndarray:
    amps = np.zeros(space.dim, dtype=complex)
    for m, coeff in terms:
        amps[space.index_of(m)] += coeff
    return amps


def collective_op(space: SpinSpace, kind: str) -> Operator:
    """Collective operator of the requested kind.

    jz, j2 and the nonlinear observable are diagonal in the Dicke basis and
    shared per (two_j, kind); jplus/jminus carry the usual ladder elements
    sqrt(j(j+1) - m(m+-1)).
    """
    if kind in DIAGONAL_KINDS:
        return _diagonal_op(space.two_j, kind)
    if kind not in ("jplus", "jminus"):
        raise ValueError(f"unknown collective operator kind {kind!r}")
    j = space.j
    m = space.m_values()
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for k in range(1, space.dim):
        # |j,m> at index k maps to |j,m+1> at index k-1.
        mk = m[k]
        mat[k - 1, k] = np.sqrt(j * (j + 1) - mk * (mk + 1))
    if kind == "jminus":
        mat = mat.conj().T
    return Operator(space.dim, mat, hermitian=False)


@lru_cache(maxsize=32)
def _diagonal_op(two_j: int, kind: str) -> Operator:
    """The diagonal `collective_op` of `kind`, built once per register size.
    32 entries hold every (two_j, kind) of a scripts/run_scaling.py pass."""
    space = SpinSpace(two_j)
    j, m = space.j, space.m_values()
    if kind == "jz":
        return Operator.from_diagonal(m)
    if kind == "j2":
        return Operator.from_diagonal(np.full(space.dim, j * (j + 1)))
    return Operator.from_diagonal(j * (j + 1) - m**2)


def nonlinear_observable(space: SpinSpace) -> Operator:
    """J^2 - Jz^2: eigenvalue j(j+1) on |j,0>, j on |j,+-j>."""
    return collective_op(space, "nonlinear")


def variance(op: Operator, state: StateVector) -> float:
    """<A^2> - <A>^2, clamped to zero against roundoff."""
    if not op.hermitian:
        raise ValueError("variance requires a Hermitian operator")
    if op.diagonal:
        d = op.entries.real
        w = np.abs(state.amplitudes) ** 2
        mean = float(np.sum(w * d))
        second = float(np.sum(w * d**2))
    else:
        mean = expectation(op, state).real
        a_psi = apply(op, state).amplitudes
        second = float(np.real(np.vdot(a_psi, a_psi)))
    return max(second - mean**2, 0.0)
