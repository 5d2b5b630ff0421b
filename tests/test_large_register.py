"""Sweep records of the collective nonlinear families at large registers.

A diagonal observable is stored as its diagonal, so a record costs O(dim)
memory: these tests run the families at two_j up to 10^5 and check each
record against its closed forms in j. Every record puts psi_i on
(|j,0> + |j,-j>)/sqrt2, where A = J^2 - Jz^2 has the moments
<A> = (j^2 + 2j)/2 and <A^2> = (j^2 (j+1)^2 + j^2)/2.
"""

import tracemalloc

import numpy as np
import pytest

from wva_lab.experiments import FAMILIES, sweep

SIZES = (1_000, 10_000, 100_000)
#: impulse area small enough that |eta g A_w| stays below 1e-2 at every size
G = 1e-11
RTOL = 1e-12


def _qfi_total_closed_form(j, phi):
    weights = np.abs(phi.amplitudes) ** 2
    n = np.arange(phi.dim)
    b1, b2 = float(np.sum(weights * n)), float(np.sum(weights * n**2))
    a1 = (j**2 + 2 * j) / 2
    a2 = (j**2 * (j + 1) ** 2 + j**2) / 2
    return 4.0 * (a2 * b2 - (a1 * b1) ** 2)


def _meter(family, two_j, parameter):
    return FAMILIES[family].build(two_j, parameter, g=G).phi_i


@pytest.mark.parametrize("two_j", SIZES)
def test_near_deterministic_record_matches_closed_forms(two_j):
    eps = 0.04
    (r,) = sweep("near_deterministic", [two_j], eps, g=G, with_circuits=False)
    j = two_j / 2
    assert r.abs_weak_value == pytest.approx((j**2 + 2 * j + eps**0.5 * j**2) / 2, rel=RTOL)
    assert r.success_prob == pytest.approx(1 / (1 + eps), rel=RTOL)
    phi = _meter("near_deterministic", two_j, eps)
    assert r.qfi_total == pytest.approx(_qfi_total_closed_form(j, phi), rel=RTOL)


@pytest.mark.parametrize("two_j", SIZES)
def test_nonlinear_joint_record_matches_closed_forms(two_j):
    j = two_j / 2
    kappa = 0.025 / j**2  # kappa j^2 = 0.025, inside the family's kappa j^2 < 0.1
    (r,) = sweep("nonlinear_joint", [two_j], kappa, g=G, with_circuits=False)
    assert r.abs_weak_value == pytest.approx((j**2 + 2 * j) / 2 + j / (2 * kappa**0.5),
                                             rel=RTOL)
    assert r.success_prob == pytest.approx(kappa * j**2 / (1 + kappa * j**2), rel=RTOL)
    phi = _meter("nonlinear_joint", two_j, kappa)
    assert r.qfi_total == pytest.approx(_qfi_total_closed_form(j, phi), rel=RTOL)


def test_near_deterministic_record_memory_is_linear_in_dim():
    # a dense 2001 x 2001 complex A alone would take 64 MB; with circuits the
    # closed-form weights run at this size without overflow
    tracemalloc.start()
    try:
        (r,) = sweep("near_deterministic", [2000], 0.04, g=G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.circuit_prep_prob is not None and r.circuit_measure_prob is not None
    assert peak < 8 * 2**20
