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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

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


def qfi_pure_generator(H: Operator, psi: StateVector) -> float:
    """QFI of the family exp(-i g H)|psi>: 4 Var(H)."""
    if not H.hermitian:
        raise ValueError("generator must be Hermitian")
    return 4.0 * variance(H, psi)


def qfi_product(A: Operator, psi: StateVector, B: Operator, phi: StateVector) -> float:
    """QFI of exp(-i g A (x) B) on a product state, without assembling the
    joint operator: 4 [<A^2><B^2> - (<A><B>)^2]."""
    a1 = expectation(A, psi).real
    b1 = expectation(B, phi).real
    a_psi, b_phi = apply(A, psi).amplitudes, apply(B, phi).amplitudes
    a2 = float(np.real(np.vdot(a_psi, a_psi)))
    b2 = float(np.real(np.vdot(b_phi, b_phi)))
    return 4.0 * (a2 * b2 - (a1 * b1) ** 2)


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


def qfi_from_family(family: Callable[[float], StateVector], g: float, step: float,
                    richardson: bool = True) -> float:
    """Pure-state QFI of a normalized state family by central differences,
    optionally Richardson-extrapolated once (step and step/2): the oracle the
    exact QFIs are tested against."""

    def estimate(h: float) -> float:
        fp = family(g + h).amplitudes
        fm = family(g - h).amplitudes
        f0 = family(g).amplitudes
        d = (fp - fm) / (2.0 * h)
        return 4.0 * (float(np.real(np.vdot(d, d))) - abs(np.vdot(d, f0)) ** 2)

    if not richardson:
        return estimate(step)
    coarse = estimate(step)
    fine = estimate(step / 2.0)
    return (4.0 * fine - coarse) / 3.0


def postselected_fisher_ratio(strategy: WeakValueStrategy) -> FisherReport:
    """Fisher accounting for one strategy at its impulse area strategy.g.

    qfi_total is the joint-state QFI (product form, exact). qfi_postselected
    is P_s(g) times the QFI of the normalized kicked-meter family at g, also
    exact, with no finite difference: the unnormalized conditional meter is
    c = <psi_f| exp(-i g A (x) B) |psi_i>|phi_i>, and because the unitary
    commutes with A (x) B its g-derivative is
    c' = -i <A psi_f| exp(-i g A (x) B) B |psi_i>|phi_i>. Then P_s = |c|^2 and
    P_s * QFI = 4 (|c'|^2 - |<c|c'>|^2 / |c|^2), for dense or diagonal A and
    B alike.

    The reported prediction (1 - |eta g A_w|^2) / 2 is the leading-order
    value in the joint limit sqrt(kappa) j -> 0, j -> infinity, not the
    first-order value at finite j and kappa: for the nonlinear strategy the
    g -> 0 ratio is P_s A_w^2 / (<A^2> + Var(A) |eta|^2), e.g. 0.545 at
    j = 6, kappa = 1e-3, eta = 0.05.
    """
    a_w = strategy.weak_value()
    eta_abs = float(np.sqrt(max(expectation(strategy.B, strategy.phi_i).real, 0.0)))
    kick_scale = eta_abs * strategy.g * abs(a_w)
    if kick_scale > 0.1:
        warnings.warn(f"|eta g A_w| ~ {kick_scale:.3g} above 0.1; "
                      "outside the weak-kick regime", stacklevel=2)

    total = qfi_product(strategy.A, strategy.psi_i, strategy.B, strategy.phi_i)

    joint = evolved_joint(strategy)
    ps, kicked, norm = project_left(joint, strategy.psi_f, strategy.meter_space.dim)
    block = joint.amplitudes.reshape(strategy.system_space.dim, -1)
    a_psi_f = apply(strategy.A, strategy.psi_f).amplitudes
    # d = c' / |c|; the normalized family's QFI is 4 (|d|^2 - |<kicked|d>|^2)
    d = -1j * (a_psi_f.conj() @ block) @ strategy.B.dense().T / abs(norm)
    meter_qfi = 4.0 * (float(np.real(np.vdot(d, d))) - abs(np.vdot(kicked.amplitudes, d)) ** 2)
    weighted = ps * meter_qfi
    ratio = weighted / total if total > 0 else float("inf")

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
