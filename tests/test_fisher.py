import dataclasses

import numpy as np
import pytest

from wva_lab.boson import FockSpace, coherent_state, min_cutoff, op_number
from wva_lab.families import FAMILIES
from wva_lab.fisher import postselected_fisher_ratio, qfi_nonlinear_coherent, qfi_product
from wva_lab.linalg import Operator, StateVector
from wva_lab.spin import SpinSpace, dicke_state, superpose_dicke, nonlinear_observable, variance
from wva_lab.wva import (
    postselect,
    strategy_uncorrelated,
    with_coupling,
)

from conftest import nonlinear_ratio_limit, random_hermitian, random_state
from dense_operator_oracle import tensor
from finite_difference_oracle import qfi_from_family


def generator_qfi(H, psi):
    """QFI of the family exp(-i g H)|psi>: 4 Var(H)."""
    return 4.0 * variance(H, psi)


def _fd_qfi_oracle(H, psi, g=0.0, h=1e-6):
    """Independent finite-difference oracle: QFI from numerical d/dg of
    exp(-i g H)|psi| via dense eigendecomposition."""
    evals, vecs = np.linalg.eigh(H.entries)

    def state(gv):
        return (vecs * np.exp(-1j * gv * evals)) @ (vecs.conj().T @ psi.amplitudes)

    d = (state(g + h) - state(g - h)) / (2 * h)
    s0 = state(g)
    return 4 * (np.vdot(d, d).real - abs(np.vdot(d, s0)) ** 2)


def test_qfi_eigenstate_zero():
    sp = SpinSpace(6)
    a = nonlinear_observable(sp)
    assert generator_qfi(a, dicke_state(sp, 0)) == 0.0


def test_qfi_product_formula(rng):
    for _ in range(5):
        A, B = random_hermitian(rng, 5), random_hermitian(rng, 4)
        u, v = random_state(rng, 5), random_state(rng, 4)
        assembled = generator_qfi(tensor(A, B), tensor(u, v))
        assert qfi_product(A, u, B, v) == pytest.approx(assembled, rel=1e-10)


def test_qfi_matches_finite_difference_oracle(rng):
    for dim in (6, 20, 50):
        H = random_hermitian(rng, dim)
        psi = random_state(rng, dim)
        exact = generator_qfi(H, psi)
        fd = _fd_qfi_oracle(H, psi)
        assert fd == pytest.approx(exact, rel=1e-6)


def test_qfi_from_family_matches_generator(rng):
    H = random_hermitian(rng, 12)
    psi = random_state(rng, 12)
    evals, vecs = np.linalg.eigh(H.entries)

    def family(g):
        return StateVector.of((vecs * np.exp(-1j * g * evals)) @ (vecs.conj().T @ psi.amplitudes))

    got = qfi_from_family(family, 0.01, 1e-6)
    assert got == pytest.approx(generator_qfi(H, psi), rel=1e-8)


def test_qfi_nonlinear_closed_form_zero_meter():
    exact, approx = qfi_nonlinear_coherent(8, 0.0)
    assert exact == 0.0 and approx == 0.0


def test_qfi_nonlinear_small_eta_error_bound():
    # 2 j^4 |eta|^2 truncates in two directions at once: dropping the eta^2
    # corrections costs about 0.5 |eta|^2 (< 1e-2 here), dropping the
    # subleading powers of j costs 2/j + 2/j^2 exactly.
    j, eta = 10, 0.05
    exact, approx = qfi_nonlinear_coherent(2 * j, eta)
    eta_linearized = 2 * (j**4 + 2 * j**3 + 2 * j**2) * eta**2
    assert abs(exact - eta_linearized) / exact < 1e-2
    assert approx == pytest.approx(2 * j**4 * eta**2)
    assert eta_linearized / approx == pytest.approx(1 + 2 / j + 2 / j**2, rel=1e-12)


@pytest.mark.parametrize("two_j,eta", [(4, 0.1), (12, 0.05), (20, 0.3), (40, 0.2)])
def test_qfi_nonlinear_matches_assembled_operator(two_j, eta):
    exact, _ = qfi_nonlinear_coherent(two_j, eta)
    sp = SpinSpace(two_j)
    j = sp.j
    psi = superpose_dicke(sp, [(0, 1.0), (-j, 1.0)])
    meter = FockSpace(min_cutoff(eta, 1e-12) + 2)
    phi = coherent_state(meter, eta)
    assembled = generator_qfi(tensor(nonlinear_observable(sp), op_number(meter)),
                                   tensor(psi, phi))
    assert exact == pytest.approx(assembled, rel=1e-8)


def test_postselected_ratio_preset_value():
    # frozen from an independent closed-form evaluation: the g -> 0 ratio at
    # this operating point is P_s A_w^2 / (<A^2> + Var(A) |eta|^2) = 0.54506
    # (conftest.nonlinear_ratio_limit), a factor 1.0901 above the joint-limit
    # prediction of 1/2 that ratio_prediction reports.
    strat = FAMILIES["nonlinear_joint"].build(12, 1e-3, eta=0.05)
    rep = postselected_fisher_ratio(strat)
    assert rep.ratio == pytest.approx(0.545058, abs=1e-4)
    assert rep.ratio_prediction == pytest.approx(0.5, abs=1e-5)
    assert rep.qfi_total == pytest.approx(9.0081, rel=1e-10)
    assert rep.small_eta_prediction == pytest.approx(6.48, rel=1e-12)
    assert rep.success_prob == pytest.approx(0.036 / 1.036, abs=1e-8)


def test_postselected_ratio_grows_with_g():
    # the exact ratio rises quadratically in g at this operating point (the
    # success probability grows as the kicked branches dephase); the
    # first-order prediction moves the other way and is reported untouched.
    strat = FAMILIES["nonlinear_joint"].build(12, 1e-3, eta=0.05)
    gs = (1e-4, 1e-3, 3e-3, 1e-2)
    ratios, preds = [], []
    for g in gs:
        rep = postselected_fisher_ratio(with_coupling(strat, g))
        ratios.append(rep.ratio)
        preds.append(rep.ratio_prediction)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(a > b for a, b in zip(preds, preds[1:]))
    # quadratic growth coefficient frozen from a grid evaluation
    growth = ratios[-1] - ratios[0]
    assert growth == pytest.approx(72.8 * (1e-2) ** 2, rel=0.15)


def test_postselected_ratio_step_shrinks_with_weak_value():
    # |A_w| ~ 3.2e6 here: a step of 1e-6 would move the probe points
    # g +- step far outside the weak-kick regime although g itself is inside.
    strat = FAMILIES["nonlinear_joint"].build(400, 1e-9, eta=0.05)
    rep = postselected_fisher_ratio(with_coupling(strat, 1e-10))
    assert rep.ratio == pytest.approx(nonlinear_ratio_limit(400, 1e-9, 0.05), rel=1e-6)


def _with_n_squared(strat):
    return dataclasses.replace(strat, B=Operator.from_diagonal(strat.B.entries.real ** 2))


ORACLE_POINTS = {
    "nonlinear_preset": lambda: FAMILIES["nonlinear_joint"].build(12, 1e-3, eta=0.05, g=1e-4),
    "near_deterministic_600": lambda: FAMILIES["near_deterministic"].build(600, 0.04, g=1e-6),
    "uncorrelated_dense_a": lambda: strategy_uncorrelated(0.05, g=1e-4),
    # B = n^2, a meter observable other than n
    "uncorrelated_n_squared": lambda: _with_n_squared(strategy_uncorrelated(0.05, g=1e-4)),
}


@pytest.mark.parametrize("point", ORACLE_POINTS)
def test_postselected_ratio_matches_converged_finite_difference(point):
    # Oracle: P_s times the Richardson-extrapolated central-difference QFI of
    # the exact kicked meter. The probe points g +- step add phases step a n
    # on the joint basis; at two_j=600 (a up to 90300, n up to 6) a step of
    # 1e-6 makes them 0.54 rad and misses the exact ratio by 9.4e-7, while a
    # step of 3e-8 keeps them below 0.02 rad.
    strat = ORACLE_POINTS[point]()

    def kicked(g):
        return postselect(with_coupling(strat, g)).kicked_meter_exact

    total = qfi_product(strat.A, strat.psi_i, strat.B, strat.phi_i)
    oracle = postselect(strat).success_prob_exact * qfi_from_family(kicked, strat.g, 3e-8) / total
    assert postselected_fisher_ratio(strat).ratio == pytest.approx(oracle, rel=1e-9)


def test_postselected_ratio_warns_outside_weak_regime():
    strat = FAMILIES["nonlinear_joint"].build(12, 1e-3, eta=0.05)
    with pytest.warns(UserWarning, match="weak-kick"):
        postselected_fisher_ratio(with_coupling(strat, 0.05))


def test_postselected_ratio_rejects_zero_total_qfi():
    # eta = 0: the vacuum meter has Var n = 0, so the joint state carries no
    # information on g and there is no ratio to report
    with pytest.raises(ValueError, match="total QFI is 0"):
        postselected_fisher_ratio(FAMILIES["nonlinear_joint"].build(4, 1e-3, eta=0.0))


def test_postselected_ratio_rejects_a_nan_total_qfi():
    # a NaN meter passes `total <= 0`; the ratio would be NaN, not an error.
    # A normalized StateVector refuses a NaN norm, so the meter is built
    # unnormalized to reach the Fisher check
    strat = FAMILIES["nonlinear_joint"].build(4, 1e-3, eta=0.1)
    nan_amps = np.full(strat.meter_space.dim, np.nan)
    with pytest.raises(ValueError, match="state not normalized"):
        StateVector(strat.meter_space.dim, nan_amps)
    nan_meter = StateVector.unnormalized(nan_amps)
    with pytest.raises(ValueError, match="total QFI is 0"):
        postselected_fisher_ratio(dataclasses.replace(strat, phi_i=nan_meter))


def test_eta_abs_is_the_meter_spread():
    # (|1> + |3>)/sqrt2 has <n> = 2 but Var n = 1; both predictions read
    # |eta| as sqrt(Var_phi B), which equals |eta| for a coherent meter
    strat = FAMILIES["nonlinear_joint"].build(12, 1e-3, eta=0.05)
    amps = np.zeros(strat.meter_space.dim, dtype=complex)
    amps[[1, 3]] = np.sqrt(0.5)
    strat = dataclasses.replace(strat, phi_i=StateVector(amps.size, amps))
    rep = postselected_fisher_ratio(strat)
    kick = strat.g * abs(strat.weak_value())
    assert rep.ratio_prediction == pytest.approx(0.5 * (1.0 - kick**2), rel=1e-12)
    assert rep.small_eta_prediction == pytest.approx(2.0 * 6.0**4, rel=1e-12)


def test_postselected_ratio_uncorrelated_runs():
    rep = postselected_fisher_ratio(strategy_uncorrelated(0.1))
    assert rep.qfi_total > 0
    assert 0 < rep.ratio < 1.5


def test_inverse_qfi_monotone_in_j():
    inv = []
    for two_j in (4, 8, 12, 16, 20):
        exact, _ = qfi_nonlinear_coherent(two_j, 0.1)
        inv.append(1.0 / exact)
    assert all(a > b for a, b in zip(inv, inv[1:]))
