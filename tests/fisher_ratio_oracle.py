"""`fisher.postselected_fisher_ratio` as it was before the meter's moments
and |eta| were computed once per meter: every factor's moments, |eta| and
the weak value are recomputed on each call. The reference that the memoized
path is checked against bit for bit."""

import numpy as np

from wva_lab.fisher import FisherReport
from wva_lab.linalg import apply, expectation, project_left
from wva_lab.spin import variance
from wva_lab.wva import evolved_joint, weak_value


def qfi_product(A, psi, B, phi) -> float:
    a1 = expectation(A, psi).real
    b1 = expectation(B, phi).real
    a_psi, b_phi = apply(A, psi).amplitudes, apply(B, phi).amplitudes
    a2 = float(np.real(np.vdot(a_psi, a_psi)))
    b2 = float(np.real(np.vdot(b_phi, b_phi)))
    return 4.0 * (a2 * b2 - (a1 * b1) ** 2)


def postselected_fisher_ratio(strategy) -> FisherReport:
    a_w = weak_value(strategy.psi_i, strategy.psi_f, strategy.A)
    eta_abs = float(np.sqrt(variance(strategy.B, strategy.phi_i)))
    kick_scale = eta_abs * strategy.g * abs(a_w)
    total = qfi_product(strategy.A, strategy.psi_i, strategy.B, strategy.phi_i)
    joint = evolved_joint(strategy)
    ps, kicked, norm = project_left(joint, strategy.psi_f, strategy.meter_space.dim)
    block = joint.amplitudes.reshape(strategy.system_space.dim, -1)
    a_psi_f = apply(strategy.A, strategy.psi_f).amplitudes
    d = -1j * (a_psi_f.conj() @ block) * strategy.B.entries / abs(norm)
    meter_qfi = 4.0 * (float(np.real(np.vdot(d, d))) - abs(np.vdot(kicked.amplitudes, d)) ** 2)
    weighted = ps * meter_qfi
    j = strategy.system_space.j
    return FisherReport(
        weak_value=a_w,
        qfi_total=total,
        qfi_postselected=weighted,
        qfi_meter_unweighted=meter_qfi,
        success_prob=ps,
        ratio=weighted / total,
        ratio_prediction=0.5 * (1.0 - kick_scale**2),
        small_eta_prediction=2.0 * j**4 * eta_abs**2,
    )
