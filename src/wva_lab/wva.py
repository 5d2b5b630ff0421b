"""Weak-value machinery: weak values, postselection, success probabilities,
the collective success-probability advantage, and the strategy constructors
(`strategy_two_level` builds every collective family of `families.FAMILIES`).

Conventions worth knowing before reading on:

* A *strategy* bundles system initial/final states, the system observable A,
  the meter initial state, the meter observable B (diagonal in the meter's
  Fock basis: the number operator for every constructor) and the impulse
  area g of the interaction. The interaction is impulsive: a single unitary
  exp(-i g A (x) B), no time grid.
* The weak value A_w = <psi_f|A|psi_i> / <psi_f|psi_i> is evaluated literally,
  so e.g. the textbook qubit configuration (A = sigma_x, psi_i = down,
  psi_f = sin(theta) down + i cos(theta) up) yields A_w = -i cot(theta).
* Success-probability advantage sigma = P_collective / (2j * P_single). The
  default baseline holds the per-probe success probability fixed across j
  (an uncorrelated probe at a preset postselection angle); the alternative
  baseline that fixes the single-probe weak value instead is provided by the
  experiments module and is labeled as such.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import lru_cache
from math import copysign, cos, sin, sqrt

import numpy as np

from .boson import FockSpace, coherent_state, min_cutoff, op_annihilate, op_number
from .linalg import (
    DEFAULT_MAX_TENSOR_DIM,
    NullPostselectionError,
    Operator,
    StateVector,
    _read_only,
    apply,
    expectation,
    fidelity,
    inner,
    project_left,
)
from .spin import SpinSpace, collective_op, dicke_state, superpose_dicke, variance

DEFAULT_G = 1e-4
DEFAULT_ETA = 0.1 + 0.0j
#: Postselection angle of the uncorrelated single-probe baseline.
BASELINE_THETA = 0.05

OVERLAP_EPS = 1e-14
#: Fock levels the default meter keeps above the coherent-tail cutoff.
METER_HEADROOM = 2


@dataclass(frozen=True)
class WeakValueStrategy:
    system_space: SpinSpace
    psi_i: StateVector
    psi_f: StateVector
    A: Operator
    meter_space: FockSpace
    phi_i: StateVector
    B: Operator
    g: float
    initial_overlap: complex = field(init=False)

    def __post_init__(self):
        if self.psi_i.dim != self.system_space.dim or self.psi_f.dim != self.system_space.dim:
            raise ValueError("system states must live on system_space")
        if self.A.dim != self.system_space.dim:
            raise ValueError("A must act on system_space")
        if self.phi_i.dim != self.meter_space.dim or self.B.dim != self.meter_space.dim:
            raise ValueError("meter state and B must act on meter_space")
        if not (self.A.hermitian and self.B.hermitian):
            raise ValueError("A and B must be Hermitian")
        if not self.B.diagonal:
            raise ValueError("B must be diagonal in the meter's Fock basis")
        if not np.isfinite(self.g):
            raise ValueError(f"g must be finite, got {self.g}")
        object.__setattr__(self, "initial_overlap", inner(self.psi_f, self.psi_i))

    def weak_value(self) -> complex:
        """<psi_f|A|psi_i> / <psi_f|psi_i>; invariant under global phases and
        (un)normalization of either state. Orthogonal pairs are a hard error,
        never a large-number fallback."""
        ov = self.initial_overlap
        if abs(ov) <= OVERLAP_EPS * (self.psi_i.norm() * self.psi_f.norm()):
            raise NullPostselectionError("undefined weak value: <psi_f|psi_i> = 0", ov)
        return inner(self.psi_f, apply(self.A, self.psi_i)) / ov

    def success_probability(self) -> float:
        """|<psi_f|psi_i>|^2 for normalized states."""
        return min(abs(self.initial_overlap) ** 2, 1.0)


@dataclass(frozen=True)
class PostselectionResult:
    weak_value: complex
    success_prob_exact: float
    success_prob_zeroth: float
    kicked_meter_exact: StateVector
    kicked_meter_firstorder: StateVector
    fidelity_exact_vs_firstorder: float


def collective_success(single_ps: float, two_j: int) -> float:
    """Probability that at least one of 2j independent probes clicks."""
    if not 0.0 <= single_ps <= 1.0:
        raise ValueError("single-probe success probability must lie in [0, 1]")
    return 1.0 - (1.0 - single_ps) ** two_j


def sigma_advantage(p_collective: float, two_j: int, p_single: float) -> float:
    """sigma = P_collective / (2j * P_single)."""
    if not p_single > 0.0:  # a NaN baseline fails too
        raise ValueError("sigma_advantage needs a positive single-probe baseline")
    return p_collective / (two_j * p_single)


def orthogonal_complement_state(psi_i: StateVector, A: Operator) -> StateVector:
    """(A - <A>)|psi_i> / sqrt(Var A): the unit state orthogonal to psi_i that
    the observable connects to."""
    var = variance(A, psi_i)
    if var <= 1e-14:
        raise ValueError("psi_i is an eigenstate of A: orthogonal complement undefined")
    mean = expectation(A, psi_i).real
    shifted = apply(A, psi_i).amplitudes - mean * psi_i.amplitudes
    return StateVector(dim=psi_i.dim, amplitudes=_read_only(shifted / sqrt(var)))


def postselection_state_fixed_Ps(psi_i: StateVector, A: Operator, target_ps: float,
                                 approx_small_ps: bool = False) -> StateVector:
    """Postselection state maximizing the weak value at a fixed success
    probability: sqrt(P)|psi_i> + sqrt(1-P)|psi_i_perp>.

    With `approx_small_ps` the sqrt(1-P) factor is replaced by 1 (then
    renormalized), the small-P shortcut that produces the published
    two-component coefficients; the resulting state's success probability is
    P/(1+P) rather than exactly P.
    """
    if not 0.0 < target_ps < 1.0:
        raise ValueError("target success probability must lie strictly between 0 and 1")
    perp = orthogonal_complement_state(psi_i, A)
    w_perp = 1.0 if approx_small_ps else sqrt(1.0 - target_ps)
    amps = sqrt(target_ps) * psi_i.amplitudes + w_perp * perp.amplitudes
    return StateVector.of(amps)


# ---------------------------------------------------------------------------
# strategy constructors
# ---------------------------------------------------------------------------


def _default_meter(eta: complex):
    """(meter space, coherent state, number operator) for amplitude eta,
    built once per distinct eta and shared: every object in it is frozen."""
    if not np.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta}")
    # 0.0 == -0.0 as a cache key, but the two give coherent amplitudes with
    # different signed zeros; the signs of both parts keep them apart.
    z = complex(eta)
    return _meter(eta, copysign(1.0, z.real), copysign(1.0, z.imag))


@lru_cache(maxsize=64, typed=True)
def _meter(eta: complex, *_zero_signs: float):
    """`typed=True` keeps e.g. 0.1 and 0.1+0j apart."""
    space = FockSpace(min_cutoff(eta, 1e-12) + METER_HEADROOM)
    return space, coherent_state(space, eta), op_number(space)


@lru_cache(maxsize=32)
def _equal_superposition(two_j: int, m1: float, m2: float) -> StateVector:
    """(|j,m1> + |j,m2>)/sqrt2, the initial state psi_i of the collective
    families, built once per (two_j, m1, m2) and shared (it is frozen).
    32 entries hold every psi_i of a scripts/run_scaling.py pass."""
    return superpose_dicke(SpinSpace(two_j), [(m1, 1.0), (m2, 1.0)])


def strategy_two_level(two_j: int, kind: str, m1: float, m2: float, *,
                       coefficients: tuple[complex, complex] | None = None,
                       target_ps: float | None = None, approx_small_ps: bool = False,
                       g: float = DEFAULT_G, eta: complex = DEFAULT_ETA) -> WeakValueStrategy:
    """Collective strategy with A = `collective_op(space, kind)` diagonal and
    psi_i = (|j,m1> + |j,m2>)/sqrt2 on two of its eigenlevels (m1, m2). psi_f
    is c1|j,m1> + c2|j,m2>, normalized, when `coefficients` (c1, c2) are given,
    else `postselection_state_fixed_Ps(psi_i, A, target_ps, approx_small_ps)`."""
    space = SpinSpace(two_j)
    psi_i = _equal_superposition(two_j, m1, m2)
    A = collective_op(space, kind)
    if coefficients is None:
        psi_f = postselection_state_fixed_Ps(psi_i, A, target_ps, approx_small_ps)
    else:
        psi_f = superpose_dicke(space, [(m1, coefficients[0]), (m2, coefficients[1])])
    meter_space, phi_i, B = _default_meter(eta)
    return WeakValueStrategy(space, psi_i, psi_f, A, meter_space, phi_i, B, g)


def strategy_uncorrelated(theta: float, *, g: float = DEFAULT_G,
                          eta: complex = DEFAULT_ETA) -> WeakValueStrategy:
    """Single-probe baseline: A = sigma_x, psi_i = down,
    psi_f = sin(theta) down + i cos(theta) up. A_w = -i cot(theta),
    P_s = sin^2(theta)."""
    space = SpinSpace(1)
    psi_i = dicke_state(space, -0.5)
    psi_f = superpose_dicke(space, [(-0.5, sin(theta)), (0.5, 1j * cos(theta))])
    jp = collective_op(space, "jplus")
    A = Operator(space.dim, jp.entries + jp.entries.conj().T, hermitian=True)
    meter_space, phi_i, B = _default_meter(eta)
    return WeakValueStrategy(space, psi_i, psi_f, A, meter_space, phi_i, B, g)


# ---------------------------------------------------------------------------
# postselection and readout
# ---------------------------------------------------------------------------


def _largest_abs(values: np.ndarray) -> float:
    """max |x| as a Python float; on the few entries of a kick's factors the
    builtins take a fraction of the time of a NumPy reduction."""
    return max(map(abs, values.tolist()))


def _require_finite_phase(phase: complex, g: float, what: str) -> None:
    """Reject a g whose largest kick phase, formed by the caller from Python
    numbers in the order NumPy forms the phases, is not finite: NumPy would
    warn on the inf or on inf * 0 and give NaN amplitudes. Rounding is
    monotone, so a finite largest phase bounds every other one."""
    if not cmath.isfinite(phase):
        raise ValueError(f"g = {g} makes the {what} overflow")


def _first_order_kick(strategy: WeakValueStrategy, a_w: complex) -> StateVector:
    """exp(-i g A_w B)|phi_i>, renormalized: one phase per Fock level, as B is
    diagonal. Non-unitary when Im A_w != 0."""
    b_max = _largest_abs(strategy.B.entries.real)
    _require_finite_phase(-1j * float(strategy.g) * complex(a_w) * b_max, strategy.g,
                          "first-order phase g A_w b")
    return StateVector.of(strategy.phi_i.amplitudes
                          * np.exp(-1j * strategy.g * a_w * strategy.B.entries))


def evolved_joint(strategy: WeakValueStrategy) -> StateVector:
    """exp(-i g A (x) B)|psi_i>|phi_i>, the exact joint state after the kick.

    B is diagonal (a strategy checks it), so the kick is elementwise phases
    in the meter's Fock basis. When A is diagonal too, they are formed only
    on the rows where psi_i has weight (two Dicke levels for every
    collective family); every other row is an exact zero. The returned state
    is full-length, so every reduction over it (projections, overlaps, norms)
    runs on the same operands as on the full outer product. Otherwise the
    phases act in the eigenbasis of A = V diag(lambda) V^dag: the joint state
    as a (system, meter) block is V (outer(V^dag psi_i, phi_i)
    exp(-i g lambda (x) b)), with no eigendecomposition of A (x) B.
    """
    dim_s, dim_m = strategy.system_space.dim, strategy.meter_space.dim
    if dim_s * dim_m > DEFAULT_MAX_TENSOR_DIM:
        raise ValueError("joint dimension exceeds the configured maximum")
    b_diag = strategy.B.entries.real
    b_max = _largest_abs(b_diag)
    if strategy.A.diagonal:
        psi = strategy.psi_i.amplitudes
        rows = np.flatnonzero(psi)
        a_diag = strategy.A.entries.real[rows]
        _require_finite_phase(-1j * float(strategy.g) * (_largest_abs(a_diag) * b_max),
                              strategy.g, "exact-kick phase g a b")
        block = np.zeros((dim_s, dim_m), dtype=complex)
        block[rows] = (np.outer(psi[rows], strategy.phi_i.amplitudes)
                       * np.exp(-1j * strategy.g * np.outer(a_diag, b_diag)))
        return StateVector(dim=dim_s * dim_m, amplitudes=_read_only(block).ravel())
    lam, v = np.linalg.eigh(strategy.A.dense())
    _require_finite_phase(-1j * float(strategy.g) * (_largest_abs(lam) * b_max),
                          strategy.g, "exact-kick phase g a b")
    block = v @ (np.outer(v.conj().T @ strategy.psi_i.amplitudes, strategy.phi_i.amplitudes)
                 * np.exp(-1j * strategy.g * np.outer(lam, b_diag)))
    return StateVector(dim=dim_s * dim_m, amplitudes=_read_only(block).ravel())


def postselect(strategy: WeakValueStrategy) -> PostselectionResult:
    """Run the strategy exactly and at first order.

    Exact path: evolve psi_i (x) phi_i with `evolved_joint`, project the
    system onto psi_f, renormalize the meter. First-order path: apply
    exp(-i g A_w B) to phi_i. Both kicked meter states and both success
    probabilities are reported.
    """
    a_w = strategy.weak_value()
    joint = evolved_joint(strategy)
    prob, kicked_exact, _ = project_left(joint, strategy.psi_f, strategy.meter_space.dim)
    kicked_fo = _first_order_kick(strategy, a_w)
    return PostselectionResult(
        weak_value=a_w,
        success_prob_exact=prob,
        success_prob_zeroth=strategy.success_probability(),
        kicked_meter_exact=kicked_exact,
        kicked_meter_firstorder=kicked_fo,
        fidelity_exact_vs_firstorder=fidelity(kicked_exact, kicked_fo),
    )


def meter_readout(result: PostselectionResult, R: Operator,
                  strategy: WeakValueStrategy) -> tuple[float, float]:
    """Meter shift under postselection: exact <R> change on the kicked meter
    versus the first-order formula 2 g Im(A_w) Re<R B>."""
    if not R.hermitian:
        raise ValueError("meter observable must be Hermitian")
    exact = (expectation(R, result.kicked_meter_exact).real
             - expectation(R, strategy.phi_i).real)
    rb = Operator(R.dim, R.dense() * strategy.B.entries)  # R B scales R's columns
    alpha = expectation(rb, strategy.phi_i)
    formula = 2.0 * strategy.g * result.weak_value.imag * alpha.real
    return exact, formula


def centered_quadrature(strategy: WeakValueStrategy) -> Operator:
    """(a + a^dag)/2 shifted by its mean on the strategy's initial meter state,
    so the first-order readout formula holds with an O(g^2) residual."""
    a = op_annihilate(strategy.meter_space)
    x = (a.entries + a.entries.conj().T) / 2.0
    x_op = Operator(a.dim, x, hermitian=True)
    mean = expectation(x_op, strategy.phi_i).real
    return Operator(a.dim, x - mean * np.eye(a.dim), hermitian=True)
