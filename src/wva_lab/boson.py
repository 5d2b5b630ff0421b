"""Truncated Fock space for the meter: coherent states, ladder and number
operators, and truncation control via Poisson tail bounds."""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma, log, sqrt

import numpy as np


class CutoffError(ValueError):
    """Coherent-state tail heavier than the space tolerates."""

    def __init__(self, message: str, suggested_cutoff: int):
        super().__init__(message)
        self.suggested_cutoff = suggested_cutoff


def poisson_tail(cutoff: int, mean: float) -> float:
    """P(X > cutoff) for X ~ Poisson(mean), summed term by term past the
    cutoff (no 1 - CDF cancellation). A term is exp(k log mean - mean -
    lgamma(k+1)) up to the mean, where the first ones may underflow, and
    P(X = k-1) mean / k beyond it."""
    if mean == 0.0:
        return 0.0
    total, k = 0.0, cutoff + 1
    term = exp(k * log(mean) - mean - lgamma(k + 1))
    while k <= mean or term > total * 1e-17:
        total += term
        k += 1
        term = exp(k * log(mean) - mean - lgamma(k + 1)) if k <= mean else term * mean / k
    return min(total, 1.0)  # the log-space terms carry ~1e-13 relative error


def min_cutoff(eta: complex, tail_tolerance: float) -> int:
    """Smallest cutoff keeping the coherent tail within tolerance. The tail
    falls with the cutoff, so doubling and then bisecting finds it in
    O(log cutoff) tail sums (a linear scan costs O(|eta|^4) terms)."""
    lam = abs(eta) ** 2
    lo, hi = -1, 0  # the tail exceeds the tolerance at lo, not at the answer
    while poisson_tail(hi, lam) > tail_tolerance:
        if hi == 10_000:
            raise ValueError("cutoff search did not converge; tolerance too small?")
        lo, hi = hi, min(2 * hi or 1, 10_000)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if poisson_tail(mid, lam) > tail_tolerance else (lo, mid)
    return hi


@dataclass(frozen=True)
class FockSpace:
    """Basis |0> .. |cutoff|, dim = cutoff + 1."""

    cutoff: int
    tail_tolerance: float = 1e-12

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError("cutoff must be a positive integer")

    @property
    def dim(self) -> int:
        return self.cutoff + 1

    @classmethod
    def for_coherent(cls, eta: complex, tail_tolerance: float = 1e-12,
                     headroom: int = 0) -> "FockSpace":
        """Auto-sized space for a coherent amplitude, with optional headroom
        levels for processes that climb the ladder."""
        return cls(cutoff=max(min_cutoff(eta, tail_tolerance) + headroom, 1),
                   tail_tolerance=tail_tolerance)


def coherent_state(space, eta: complex):
    """Truncated coherent state, renormalized after truncation."""
    from .linalg import StateVector

    lam = abs(eta) ** 2
    tail = poisson_tail(space.cutoff, lam)
    if tail > space.tail_tolerance:
        suggestion = min_cutoff(eta, space.tail_tolerance)
        raise CutoffError(
            f"coherent tail {tail:.3e} exceeds tolerance {space.tail_tolerance:.1e}; "
            f"use cutoff >= {suggestion}",
            suggested_cutoff=suggestion,
        )
    amps = np.zeros(space.dim, dtype=complex)
    amps[0] = 1.0
    for n in range(1, space.dim):
        amps[n] = amps[n - 1] * eta / sqrt(n)
    return StateVector.of(amps)


def op_number(space):
    from .linalg import Operator

    return Operator.from_diagonal(np.arange(space.dim, dtype=float))


def op_annihilate(space):
    """a|n> = sqrt(n)|n-1> on the truncated ladder."""
    from .linalg import Operator

    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for n in range(1, space.dim):
        mat[n - 1, n] = sqrt(n)
    return Operator(space.dim, mat, hermitian=False)


def op_create(space):
    return op_annihilate(space).dagger()
