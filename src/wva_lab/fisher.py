"""Quantum Fisher information accounting: total information carried by the
joint pre-measurement state and the share retained by the postselected meter.

The postselected information I'(g) is defined here as the postselection
probability times the pure-state QFI of the kicked-meter family in g,
computed from the exact g-derivative of the postselected meter state. Only
this probability-weighted reading reproduces the one-half information ratio
of the collective nonlinear strategy in the small-kappa, large-j regime
(P_s * 4 A_w^2 |eta|^2 over 2 j^4 |eta|^2 -> 1/2 with A_w -> j/(2 sqrt(kappa))
and P_s -> kappa j^2). The unweighted meter QFI is emitted alongside so the
other reading can be inspected.

The meter factor's moments and |eta| depend only on the meter, so they are
computed once per meter (B, phi_i) and shared by every record that uses it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import Operator, StateVector, apply, expectation, project_left
from .spin import variance
from .wva import WeakValueStrategy, evolved_joint


@dataclass(frozen=True)
class FisherReport:
    weak_value: complex
    qfi_total: float
    qfi_postselected: float
    qfi_meter_unweighted: float
    success_prob: float
    ratio: float
    ratio_prediction: float
    small_eta_prediction: float


def _moments(op: Operator, state: StateVector) -> tuple[float, float]:
    """(<op>, <op^2>) on `state`, the second as |op state|^2."""
    op_state = apply(op, state).amplitudes
    return expectation(op, state).real, float(np.real(np.vdot(op_state, op_state)))


def _product_qfi(a: tuple[float, float], b: tuple[float, float]) -> float:
    """4 [<A^2><B^2> - (<A><B>)^2] from the `_moments` of the two factors."""
    return 4.0 * (a[1] * b[1] - (a[0] * b[0]) ** 2)


def qfi_product(A: Operator, psi: StateVector, B: Operator, phi: StateVector) -> float:
    """QFI of exp(-i g A (x) B) on a product state, without assembling the
    joint operator: 4 [<A^2><B^2> - (<A><B>)^2]."""
    return _product_qfi(_moments(A, psi), _moments(B, phi))


class _Same:
    """Hashes and compares the object it holds by identity, so that frozen
    objects holding arrays, which have no value hash, can key a cache. The
    key keeps the object alive, so its id is not reused while cached."""

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    def __hash__(self):
        return id(self.obj)

    def __eq__(self, other):
        return self.obj is other.obj


@lru_cache(maxsize=64)
def _meter_terms(B: _Same, phi: _Same) -> tuple[tuple[float, float], float]:
    """The `_moments` of B on phi and |eta| = sqrt(Var_phi B), once per
    meter: the strategy constructors share one (B, phi_i) per eta (as many
    as `wva._meter` holds), and a meter built by hand is computed once."""
    return _moments(B.obj, phi.obj), float(np.sqrt(variance(B.obj, phi.obj)))


def qfi_nonlinear_coherent(two_j: int, eta: complex) -> tuple[float, float]:
    """Closed-form QFI for the nonlinear strategy's initial product state
    (equal |j,0>/|j,-j> superposition, coherent meter).

    Returns (exact, small-eta approximation 2 j^4 |eta|^2).
    """
    if two_j % 2 != 0:
        raise ValueError("nonlinear strategy requires integer j (even two_j)")
    j = two_j / 2.0
    ae = abs(eta) ** 2
    exact = 4.0 * (0.5 * (j**4 + 2 * j**3 + 2 * j**2) * (ae**2 + ae)
                   - 0.25 * (j**4 + 4 * j**3 + 4 * j**2) * ae**2)
    approx = 2.0 * j**4 * ae
    return exact, approx


def postselected_fisher_ratio(strategy: WeakValueStrategy) -> FisherReport:
    """Fisher accounting for one strategy at its impulse area strategy.g.

    qfi_total is the joint-state QFI (product form, exact). qfi_postselected
    is P_s(g) times the QFI of the normalized kicked-meter family at g, also
    exact, with no finite difference: the unnormalized conditional meter is
    c = <psi_f| exp(-i g A (x) B) |psi_i>|phi_i>, and because the unitary
    commutes with A (x) B its g-derivative is
    c' = -i <A psi_f| exp(-i g A (x) B) B |psi_i>|phi_i>. Then P_s = |c|^2 and
    P_s * QFI = 4 (|c'|^2 - |<c|c'>|^2 / |c|^2), for a dense or diagonal A;
    B is diagonal in the meter's Fock basis, so applying it scales each
    meter amplitude.

    The reported prediction (1 - |eta g A_w|^2) / 2 is the leading-order
    value in the joint limit sqrt(kappa) j -> 0, j -> infinity, not the
    first-order value at finite j and kappa: for the nonlinear strategy the
    g -> 0 ratio is P_s A_w^2 / (<A^2> + Var(A) |eta|^2), e.g. 0.545 at
    j = 6, kappa = 1e-3, eta = 0.05. |eta| is read from the meter as
    sqrt(Var_phi B), which is |eta| for a coherent meter with B = n.

    A zero total QFI (e.g. eta = 0) means the meter carries no information
    on g, and there is no ratio: ValueError. A kick whose phases overflow
    is rejected by `evolved_joint` before any weak-kick warning.
    """
    a_w = strategy.weak_value()
    meter_moments, eta_abs = _meter_terms(_Same(strategy.B), _Same(strategy.phi_i))
    total = _product_qfi(_moments(strategy.A, strategy.psi_i), meter_moments)
    if not total > 0.0:
        raise ValueError("total QFI is 0: the joint state carries no information on g")

    joint = evolved_joint(strategy)
    kick_scale = eta_abs * strategy.g * abs(a_w)
    if kick_scale > 0.1:
        warnings.warn(f"|eta g A_w| ~ {kick_scale:.3g} above 0.1; "
                      "outside the weak-kick regime", stacklevel=2)
    ps, kicked, norm = project_left(joint, strategy.psi_f, strategy.meter_space.dim)
    block = joint.amplitudes.reshape(strategy.system_space.dim, -1)
    a_psi_f = apply(strategy.A, strategy.psi_f).amplitudes
    # d = c' / |c|; the normalized family's QFI is 4 (|d|^2 - |<kicked|d>|^2)
    d = -1j * (a_psi_f.conj() @ block) * strategy.B.entries / abs(norm)
    meter_qfi = 4.0 * (float(np.real(np.vdot(d, d))) - abs(np.vdot(kicked.amplitudes, d)) ** 2)
    weighted = ps * meter_qfi
    ratio = weighted / total

    prediction = 0.5 * (1.0 - kick_scale**2)
    j = strategy.system_space.j
    small_eta = 2.0 * j**4 * eta_abs**2
    return FisherReport(
        weak_value=a_w,
        qfi_total=total,
        qfi_postselected=weighted,
        qfi_meter_unweighted=meter_qfi,
        success_prob=ps,
        ratio=ratio,
        ratio_prediction=prediction,
        small_eta_prediction=small_eta,
    )
