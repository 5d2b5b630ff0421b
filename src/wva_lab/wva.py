"""Weak-value machinery: weak values, postselection, success probabilities,
the collective success-probability advantage, and constructors for the
strategy families used throughout the package.

Conventions worth knowing before reading on:

* A *strategy* bundles system initial/final states, the system observable A,
  the meter initial state, the meter observable B and the impulse area g of
  the interaction. The interaction is impulsive: a single unitary
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

import dataclasses
from dataclasses import dataclass, field
from math import cos, sin, sqrt
from typing import NamedTuple

import numpy as np

from .boson import FockSpace, coherent_state, op_annihilate, op_number
from .linalg import (
    DEFAULT_MAX_TENSOR_DIM,
    NullPostselectionError,
    Operator,
    StateVector,
    apply,
    expectation,
    expm_i,
    fidelity,
    inner,
    project_left,
    tensor,
)
from .spin import SpinSpace, collective_op, dicke_state, nonlinear_observable, superpose_dicke, variance

DEFAULT_G = 1e-4
DEFAULT_ETA = 0.1 + 0.0j
#: Postselection angle of the uncorrelated single-probe baseline.
BASELINE_THETA = 0.05

OVERLAP_EPS = 1e-14


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
        object.__setattr__(self, "initial_overlap", inner(self.psi_f, self.psi_i))

    def weak_value(self) -> complex:
        return weak_value(self.psi_i, self.psi_f, self.A)


@dataclass(frozen=True)
class PostselectionResult:
    weak_value: complex
    success_prob_exact: float
    success_prob_zeroth: float
    kicked_meter_exact: StateVector
    kicked_meter_firstorder: StateVector
    fidelity_exact_vs_firstorder: float


class CollectiveSuccess(NamedTuple):
    exact: float
    linearized: float
    difference: float


def weak_value(psi_i: StateVector, psi_f: StateVector, A: Operator) -> complex:
    """<psi_f|A|psi_i> / <psi_f|psi_i>; invariant under global phases and
    (un)normalization of either state. Orthogonal pairs are a hard error,
    never a large-number fallback."""
    ov = inner(psi_f, psi_i)
    scale = psi_i.norm() * psi_f.norm()
    if abs(ov) <= OVERLAP_EPS * scale:
        raise NullPostselectionError("undefined weak value: <psi_f|psi_i> = 0", ov)
    return inner(psi_f, apply(A, psi_i)) / ov


def success_probability(psi_i: StateVector, psi_f: StateVector) -> float:
    """|<psi_f|psi_i>|^2 for normalized states."""
    return min(abs(inner(psi_f, psi_i)) ** 2, 1.0)


def collective_success(single_ps: float, two_j: int) -> CollectiveSuccess:
    """Probability that at least one of 2j independent probes clicks."""
    if not 0.0 <= single_ps <= 1.0:
        raise ValueError("single-probe success probability must lie in [0, 1]")
    exact = 1.0 - (1.0 - single_ps) ** two_j
    linearized = two_j * single_ps
    return CollectiveSuccess(exact=exact, linearized=linearized, difference=exact - linearized)


def sigma_advantage(p_collective: float, two_j: int, p_single: float) -> float:
    """sigma = P_collective / (2j * P_single)."""
    if p_single <= 0.0:
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
    return StateVector(dim=psi_i.dim, amplitudes=shifted / sqrt(var))


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


def max_weak_value_bound(psi_i: StateVector, A: Operator, target_ps: float) -> float:
    """sqrt(Var(A)/P): the attainable |A_w| ceiling at success probability P."""
    if not 0.0 < target_ps < 1.0:
        raise ValueError("target success probability must lie strictly between 0 and 1")
    return sqrt(variance(A, psi_i) / target_ps)


# ---------------------------------------------------------------------------
# strategy constructors
# ---------------------------------------------------------------------------


def _default_meter(eta: complex, headroom: int = 2):
    space = FockSpace.for_coherent(eta, headroom=headroom)
    return space, coherent_state(space, eta), op_number(space)


def _require_integer_j(two_j: int, what: str):
    if two_j % 2 != 0:
        raise ValueError(f"{what} requires integer j (even two_j); got two_j = {two_j}")


def strategy_linear_optimal(two_j: int, a_w_target: float, *, g: float = DEFAULT_G,
                            eta: complex = DEFAULT_ETA) -> WeakValueStrategy:
    """Collective Jz strategy holding the weak value at a chosen target.

    Initial state is the extremal-variance superposition (|j,j> + |j,-j>)/sqrt2;
    the postselection state (j + A_w)|j,j> + (j - A_w)|j,-j> reproduces the
    target weak value exactly, with success probability j^2/(j^2 + A_w^2).
    """
    space = SpinSpace(two_j)
    j = space.j
    psi_i = superpose_dicke(space, [(j, 1.0), (-j, 1.0)])
    psi_f = superpose_dicke(space, [(j, j + a_w_target), (-j, j - a_w_target)])
    A = collective_op(space, "jz").matrix
    meter_space, phi_i, B = _default_meter(eta)
    return WeakValueStrategy(space, psi_i, psi_f, A, meter_space, phi_i, B, g)


def strategy_linear_fixed_sigma(two_j: int, probe_ps: float, *, g: float = DEFAULT_G,
                                eta: complex = DEFAULT_ETA) -> WeakValueStrategy:
    """Collective Jz strategy holding sigma = 1: the collective success
    probability is pinned to 2j times a fixed per-probe baseline, and the
    postselection state maximizes |A_w| under that constraint (A_w grows
    like sqrt(j))."""
    space = SpinSpace(two_j)
    j = space.j
    target = two_j * probe_ps
    if not 0.0 < target < 1.0:
        raise ValueError(f"2j * probe_ps = {target} must lie strictly between 0 and 1")
    psi_i = superpose_dicke(space, [(j, 1.0), (-j, 1.0)])
    A = collective_op(space, "jz").matrix
    psi_f = postselection_state_fixed_Ps(psi_i, A, target)
    meter_space, phi_i, B = _default_meter(eta)
    return WeakValueStrategy(space, psi_i, psi_f, A, meter_space, phi_i, B, g)


def strategy_nonlinear_joint(two_j: int, kappa: float, *, g: float = DEFAULT_G,
                             eta: complex = DEFAULT_ETA) -> WeakValueStrategy:
    """Collective nonlinear strategy: A = J^2 - Jz^2 on (|j,0> + |j,-j>)/sqrt2
    with the two-component postselection state proportional to
    (sqrt(kappa) j + 1)|j,0> + (sqrt(kappa) j - 1)|j,-j>.

    Yields A_w = (j^2 + 2j)/2 + j/(2 sqrt(kappa)) and success probability
    kappa j^2 / (1 + kappa j^2): quadratic success growth with linear weak
    value growth in j.
    """
    _require_integer_j(two_j, "nonlinear strategy")
    space = SpinSpace(two_j)
    j = space.j
    if kappa <= 0.0 or kappa * j**2 >= 0.1:
        raise ValueError(f"need 0 < kappa * j^2 < 0.1; got {kappa * j**2:.3g}")
    psi_i = superpose_dicke(space, [(0.0, 1.0), (-j, 1.0)])
    A = nonlinear_observable(space)
    psi_f = postselection_state_fixed_Ps(psi_i, A, kappa * j**2, approx_small_ps=True)
    meter_space, phi_i, B = _default_meter(eta)
    return WeakValueStrategy(space, psi_i, psi_f, A, meter_space, phi_i, B, g)


def strategy_near_deterministic(two_j: int, epsilon: float, *, g: float = DEFAULT_G,
                                eta: complex = DEFAULT_ETA) -> WeakValueStrategy:
    """Nonlinear strategy tuned for success probability 1/(1+eps) ~ 1 - eps,
    with postselection state (1 + sqrt(eps))|j,0> + (1 - sqrt(eps))|j,-j>.
    The weak value grows quadratically in j."""
    _require_integer_j(two_j, "nonlinear strategy")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    space = SpinSpace(two_j)
    j = space.j
    psi_i = superpose_dicke(space, [(0.0, 1.0), (-j, 1.0)])
    A = nonlinear_observable(space)
    root = sqrt(epsilon)
    psi_f = superpose_dicke(space, [(0.0, 1.0 + root), (-j, 1.0 - root)])
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
    jp = collective_op(space, "jplus").matrix
    A = Operator(space.dim, jp.entries + jp.entries.conj().T, hermitian=True)
    meter_space, phi_i, B = _default_meter(eta)
    return WeakValueStrategy(space, psi_i, psi_f, A, meter_space, phi_i, B, g)


# ---------------------------------------------------------------------------
# postselection and readout
# ---------------------------------------------------------------------------


def _first_order_kick(strategy: WeakValueStrategy, a_w: complex) -> StateVector:
    """exp(-i g A_w B)|phi_i>, renormalized. Non-unitary when Im A_w != 0."""
    B, phi = strategy.B, strategy.phi_i
    if B.diagonal:
        kicked = phi.amplitudes * np.exp(-1j * strategy.g * a_w * np.diag(B.entries))
    else:
        evals, evecs = np.linalg.eigh(B.entries)
        kicked = (evecs * np.exp(-1j * strategy.g * a_w * evals)) @ (evecs.conj().T @ phi.amplitudes)
    return StateVector.of(kicked)


def evolved_joint(strategy: WeakValueStrategy) -> StateVector:
    """exp(-i g A (x) B)|psi_i>|phi_i>, the exact joint state after the kick:
    O(dim) elementwise phases when both observables are diagonal, one dense
    eigendecomposition otherwise."""
    dim_s, dim_m = strategy.system_space.dim, strategy.meter_space.dim
    if dim_s * dim_m > DEFAULT_MAX_TENSOR_DIM:
        raise ValueError("joint dimension exceeds the configured maximum")
    if strategy.A.diagonal and strategy.B.diagonal:
        a_diag = np.diag(strategy.A.entries).real
        b_diag = np.diag(strategy.B.entries).real
        block = np.outer(strategy.psi_i.amplitudes, strategy.phi_i.amplitudes)
        block = block * np.exp(-1j * strategy.g * np.outer(a_diag, b_diag))
        return StateVector(dim=dim_s * dim_m, amplitudes=block.ravel())
    u = expm_i(tensor(strategy.A, strategy.B), strategy.g)
    return StateVector(
        dim=dim_s * dim_m,
        amplitudes=u.entries @ tensor(strategy.psi_i, strategy.phi_i).amplitudes,
    )


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
        success_prob_zeroth=success_probability(strategy.psi_i, strategy.psi_f),
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
    rb = Operator(R.dim, R.entries @ strategy.B.entries)
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


def with_coupling(strategy: WeakValueStrategy, g: float) -> WeakValueStrategy:
    """Copy of the strategy at a different impulse area."""
    return dataclasses.replace(strategy, g=g)
