"""The four collective strategy constructors as they were before every
collective family became a row of `families.FAMILIES` built by
`wva.strategy_two_level`: the reference that the rows are checked against
bit for bit, error message for error message."""

from math import sqrt

from wva_lab.families import require_integer_j
from wva_lab.spin import SpinSpace, collective_op, superpose_dicke
from wva_lab.wva import (
    DEFAULT_ETA,
    DEFAULT_G,
    WeakValueStrategy,
    _default_meter,
    _equal_superposition,
    postselection_state_fixed_Ps,
)


def strategy_linear_optimal(two_j: int, a_w_target: float, *, g: float = DEFAULT_G,
                            eta: complex = DEFAULT_ETA) -> WeakValueStrategy:
    """Collective Jz strategy holding the weak value at a chosen target.

    Initial state is the extremal-variance superposition (|j,j> + |j,-j>)/sqrt2;
    the postselection state (j + A_w)|j,j> + (j - A_w)|j,-j> reproduces the
    target weak value exactly, with success probability j^2/(j^2 + A_w^2).
    """
    space = SpinSpace(two_j)
    j = space.j
    psi_i = _equal_superposition(two_j, j, -j)
    psi_f = superpose_dicke(space, [(j, j + a_w_target), (-j, j - a_w_target)])
    A = collective_op(space, "jz")
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
    psi_i = _equal_superposition(two_j, j, -j)
    A = collective_op(space, "jz")
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
    require_integer_j(two_j, "nonlinear strategy")
    space = SpinSpace(two_j)
    j = space.j
    if kappa <= 0.0 or kappa * j**2 >= 0.1:
        raise ValueError(f"need 0 < kappa * j^2 < 0.1; got {kappa * j**2:.3g}")
    psi_i = _equal_superposition(two_j, 0.0, -j)
    A = collective_op(space, "nonlinear")
    psi_f = postselection_state_fixed_Ps(psi_i, A, kappa * j**2, approx_small_ps=True)
    meter_space, phi_i, B = _default_meter(eta)
    return WeakValueStrategy(space, psi_i, psi_f, A, meter_space, phi_i, B, g)


def strategy_near_deterministic(two_j: int, epsilon: float, *, g: float = DEFAULT_G,
                                eta: complex = DEFAULT_ETA) -> WeakValueStrategy:
    """Nonlinear strategy tuned for success probability 1/(1+eps) ~ 1 - eps,
    with postselection state (1 + sqrt(eps))|j,0> + (1 - sqrt(eps))|j,-j>.
    The weak value grows quadratically in j."""
    require_integer_j(two_j, "nonlinear strategy")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    space = SpinSpace(two_j)
    j = space.j
    psi_i = _equal_superposition(two_j, 0.0, -j)
    A = collective_op(space, "nonlinear")
    root = sqrt(epsilon)
    psi_f = superpose_dicke(space, [(0.0, 1.0 + root), (-j, 1.0 - root)])
    meter_space, phi_i, B = _default_meter(eta)
    return WeakValueStrategy(space, psi_i, psi_f, A, meter_space, phi_i, B, g)


#: family name -> its constructor as it was
BY_FAMILY = {
    "linear_fixed_aw": strategy_linear_optimal,
    "linear_fixed_sigma": strategy_linear_fixed_sigma,
    "nonlinear_joint": strategy_nonlinear_joint,
    "near_deterministic": strategy_near_deterministic,
}
