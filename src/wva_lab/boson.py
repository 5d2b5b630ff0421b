"""Truncated Fock space for the meter: coherent states, ladder and number
operators, and truncation control via Poisson tail bounds."""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, inf, lgamma, log, sqrt

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
    P(X = k-1) mean / k beyond it. A cutoff at least one below the mean
    would take O(mean) terms that way; there P(X <= cutoff) < 1/2 (the
    Poisson median is above mean - 1), so 1 - P(X <= cutoff) is taken
    instead, from the head terms summed down from the cutoff, which fall
    as P(X = k) k / mean. A mean that is negative or not finite has no
    Poisson law (the sum would never end at mean = inf) and raises
    ValueError."""
    if not 0.0 <= mean < inf:
        raise ValueError(f"Poisson mean must be finite and non-negative, got {mean}")
    if mean == 0.0:
        return 0.0
    if 0 <= cutoff and cutoff + 1 <= mean:
        head, k = 0.0, cutoff
        term = exp(k * log(mean) - mean - lgamma(k + 1))  # 0.0 once it underflows
        while k >= 0 and term > head * 1e-17:
            head += term
            term *= k / mean
            k -= 1
        return 1.0 - head
    total, k = 0.0, cutoff + 1
    term = exp(k * log(mean) - mean - lgamma(k + 1))
    while k <= mean or term > total * 1e-17:
        total += term
        k += 1
        term = exp(k * log(mean) - mean - lgamma(k + 1)) if k <= mean else term * mean / k
    return min(total, 1.0)  # the log-space terms carry ~1e-13 relative error


def _coherent_mean(eta: complex) -> float:
    """|eta|^2, the mean photon number of the coherent state |eta>; raises
    ValueError unless eta is finite and |eta|^2 fits the float range."""
    try:
        lam = abs(complex(eta)) ** 2
    except OverflowError:  # a finite |eta| whose square overflows
        lam = inf
    if not lam < inf:
        raise ValueError(f"coherent amplitude eta = {eta} must be finite with a finite "
                         f"|eta|^2, got |eta|^2 = {lam}")
    return lam


def min_cutoff(eta: complex, tail_tolerance: float) -> int:
    """Smallest cutoff keeping the coherent tail within tolerance. The tail
    falls with the cutoff, so doubling and then bisecting finds it in
    O(log cutoff) tail sums (a linear scan costs O(|eta|^4) terms)."""
    lam = _coherent_mean(eta)
    lo, hi = -1, 0  # the tail exceeds the tolerance at lo, not at the answer
    while poisson_tail(hi, lam) > tail_tolerance:
        if hi == 10_000:
            raise ValueError(f"no Fock cutoff up to 10000 keeps the coherent tail of mean "
                             f"photon number {lam:.6g} within {tail_tolerance:g}")
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


def coherent_state(space, eta: complex):
    """Truncated coherent state, renormalized after truncation. A non-finite
    eta, or one whose |eta|^2 overflows, raises ValueError.

    The recurrence eta^n / sqrt(n!) from 1 peaks near e^{|eta|^2 / 2} and
    would overflow from |eta|^2 of a few hundred, so past 2^500 the
    amplitudes so far are scaled by 2^-500. A power-of-two scale is exact:
    a state that never gets there keeps its bits."""
    from .linalg import StateVector

    lam = _coherent_mean(eta)
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
        if abs(amps[n]) > 2.0**500:
            amps[:n + 1] *= 2.0**-500
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

