import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wva_lab.boson import op_number
from wva_lab.linalg import NullPostselectionError, Operator, StateVector, expm_i, fidelity, inner, tensor
from wva_lab.spin import SpinSpace, collective_op, dicke_state, nonlinear_observable, superpose_dicke, variance
from wva_lab.wva import (
    centered_quadrature,
    collective_success,
    evolved_joint,
    max_weak_value_bound,
    meter_readout,
    orthogonal_complement_state,
    postselect,
    postselection_state_fixed_Ps,
    sigma_advantage,
    strategy_linear_fixed_sigma,
    strategy_linear_optimal,
    strategy_near_deterministic,
    strategy_nonlinear_joint,
    strategy_uncorrelated,
    success_probability,
    weak_value,
    with_coupling,
)

from conftest import random_state


# ---------------------------------------------------------------- weak value


def test_weak_value_eigenstate():
    sp = SpinSpace(4)
    st_ = dicke_state(sp, 1)
    jz = collective_op(sp, "jz").matrix
    assert weak_value(st_, st_, jz) == pytest.approx(1.0)


def test_weak_value_qubit_example():
    strat = strategy_uncorrelated(0.05)
    aw = weak_value(strat.psi_i, strat.psi_f, strat.A)
    assert aw.real == pytest.approx(0.0, abs=1e-12)
    assert aw.imag == pytest.approx(-1 / np.tan(0.05))
    assert abs(aw) == pytest.approx(19.983330554894, abs=1e-9)


def test_weak_value_nonlinear_value():
    strat = strategy_nonlinear_joint(4, 1e-3)
    aw = weak_value(strat.psi_i, strat.psi_f, strat.A)
    assert aw == pytest.approx(35.622776601684, abs=1e-9)


def test_weak_value_orthogonal_raises():
    sp = SpinSpace(2)
    with pytest.raises(NullPostselectionError):
        weak_value(dicke_state(sp, 1), dicke_state(sp, 0),
                   collective_op(sp, "jz").matrix)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1),
       st.complex_numbers(min_magnitude=0.1, max_magnitude=5, allow_nan=False,
                          allow_infinity=False),
       st.complex_numbers(min_magnitude=0.1, max_magnitude=5, allow_nan=False,
                          allow_infinity=False))
def test_weak_value_phase_and_scale_invariant(seed, c1, c2):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    raw = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
    psi_i = StateVector.of(raw[0])
    psi_f = StateVector.of(raw[1])
    if abs(inner(psi_f, psi_i)) < 1e-6:
        return
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    A = Operator(dim, (h + h.conj().T) / 2, hermitian=True)
    base = weak_value(psi_i, psi_f, A)
    scaled = weak_value(StateVector.unnormalized(c1 * psi_i.amplitudes),
                        StateVector.unnormalized(c2 * psi_f.amplitudes), A)
    assert scaled == pytest.approx(base, rel=1e-10)


# ------------------------------------------------------- success probability


def test_success_probability_identical():
    sp = SpinSpace(2)
    s = superpose_dicke(sp, [(1, 1.0), (-1, 1.0)])
    assert success_probability(s, s) == pytest.approx(1.0)


@pytest.mark.parametrize("j", range(1, 21))
def test_success_probability_nonlinear_pair(j):
    # oracle: closed-form inner product of the two-component states
    kappa = 0.08 / j**2  # keeps kappa j^2 < 0.1 for every j
    strat = strategy_nonlinear_joint(2 * j, kappa)
    expect = kappa * j**2 / (1 + kappa * j**2)
    assert success_probability(strat.psi_i, strat.psi_f) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("eps", [0.01, 0.04, 0.25])
def test_success_probability_near_deterministic(eps):
    strat = strategy_near_deterministic(8, eps)
    assert success_probability(strat.psi_i, strat.psi_f) == pytest.approx(1 / (1 + eps), abs=1e-12)


def test_collective_success_values():
    assert collective_success(0.0, 12).exact == 0.0
    assert collective_success(1.0, 5).exact == 1.0
    res = collective_success(0.01, 10)
    assert res.exact == pytest.approx(0.09561792499120, abs=1e-12)
    assert res.linearized == pytest.approx(0.1)
    assert res.difference == pytest.approx(res.exact - 0.1)


def test_sigma_advantage_values():
    assert sigma_advantage(2 * 7 * 0.01, 7, 0.01) == pytest.approx(2.0)
    # linear strategy at fixed A_w: P_coll = j^2/A_w^2 vs P_single = (1/4)/A_w^2
    j, aw = 6.0, 400.0
    assert sigma_advantage(j**2 / aw**2, int(2 * j), 0.25 / aw**2) == pytest.approx(2 * j)
    # fixed per-probe baseline c: sigma = kappa j^2 / (2 j c), linear in j
    kappa, c = 1e-4, 2.5e-3
    for j in (4, 8, 16):
        assert sigma_advantage(kappa * j**2, 2 * j, c) == pytest.approx(kappa * j / (2 * c))
    with pytest.raises(ValueError):
        sigma_advantage(0.5, 4, 0.0)


# ------------------------------------------------- postselection state algebra


def test_orthogonal_complement_nonlinear():
    sp = SpinSpace(8)
    psi = superpose_dicke(sp, [(0, 1.0), (-4, 1.0)])
    perp = orthogonal_complement_state(psi, nonlinear_observable(sp))
    expect = superpose_dicke(sp, [(0, 1.0), (-4, -1.0)])
    assert fidelity(perp, expect) == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_complement_linear():
    sp = SpinSpace(6)
    psi = superpose_dicke(sp, [(3, 1.0), (-3, 1.0)])
    perp = orthogonal_complement_state(psi, collective_op(sp, "jz").matrix)
    expect = superpose_dicke(sp, [(3, 1.0), (-3, -1.0)])
    assert fidelity(perp, expect) == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_complement_random_orthogonality(rng):
    for two_j in (3, 7, 14):
        sp = SpinSpace(two_j)
        psi = random_state(rng, sp.dim)
        perp = orthogonal_complement_state(psi, collective_op(sp, "jz").matrix)
        assert abs(inner(psi, perp)) < 1e-12
        assert perp.norm() == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_complement_eigenstate_rejected():
    sp = SpinSpace(4)
    with pytest.raises(ValueError, match="eigenstate"):
        orthogonal_complement_state(dicke_state(sp, 0), nonlinear_observable(sp))


def test_fixed_ps_state_limits_and_coefficients():
    sp = SpinSpace(8)  # j = 4
    psi = superpose_dicke(sp, [(0, 1.0), (-4, 1.0)])
    a = nonlinear_observable(sp)
    near_one = postselection_state_fixed_Ps(psi, a, 1 - 1e-10)
    assert fidelity(near_one, psi) == pytest.approx(1.0, abs=1e-9)

    kappa = 1e-3
    approx = postselection_state_fixed_Ps(psi, a, kappa * 16, approx_small_ps=True)
    c0 = approx.amplitudes[sp.index_of(0)].real
    c1 = approx.amplitudes[sp.index_of(-4)].real
    # unnormalized coefficient ratio (sqrt(kappa) j + 1) : (sqrt(kappa) j - 1)
    assert c0 / c1 == pytest.approx(1.126491106407 / -0.873508893593, rel=1e-12)

    exact = postselection_state_fixed_Ps(psi, a, kappa * 16)
    assert success_probability(psi, exact) == pytest.approx(kappa * 16, abs=1e-12)
    p_approx = success_probability(psi, approx)
    assert p_approx == pytest.approx(kappa * 16 / (1 + kappa * 16), abs=1e-12)


def test_fixed_ps_weak_value_approaches_bound():
    # |A_w| ~ sqrt(Var/P) once the bound dwarfs the observable's mean
    sp = SpinSpace(8)
    psi = superpose_dicke(sp, [(0, 1.0), (-4, 1.0)])
    a = nonlinear_observable(sp)
    p = 1e-4
    psi_f = postselection_state_fixed_Ps(psi, a, p)
    aw = abs(weak_value(psi, psi_f, a))
    bound = max_weak_value_bound(psi, a, p)
    assert bound == pytest.approx(np.sqrt(variance(a, psi) / p))
    assert abs(aw - bound) / bound < 0.05


def test_max_weak_value_bound_values():
    sp = SpinSpace(12)  # j = 6
    psi = superpose_dicke(sp, [(0, 1.0), (-6, 1.0)])
    a = nonlinear_observable(sp)
    kappa = 1e-3
    bound = max_weak_value_bound(psi, a, kappa * 36)
    assert bound == pytest.approx(6 / (2 * np.sqrt(kappa)), rel=1e-12)
    # eigenstate: zero variance, zero ceiling
    assert max_weak_value_bound(dicke_state(sp, 0), a, 0.5) == 0.0


def test_fixed_sigma_bound_scaling():
    # at P = 2j * c the ceiling sqrt(Var/P) = sqrt(j / 2c): exponent 1/2 in j
    c = 2.5e-4
    vals = []
    for j in (2, 4, 8, 16):
        sp = SpinSpace(2 * j)
        psi = superpose_dicke(sp, [(j, 1.0), (-j, 1.0)])
        vals.append(max_weak_value_bound(psi, collective_op(sp, "jz").matrix, 2 * j * c))
    slope = np.polyfit(np.log([2, 4, 8, 16]), np.log(vals), 1)[0]
    assert slope == pytest.approx(0.5, abs=1e-9)


# ------------------------------------------------------------- constructors


def test_strategy_near_deterministic_example():
    strat = strategy_near_deterministic(6, 0.04)  # j = 3
    aw = weak_value(strat.psi_i, strat.psi_f, strat.A)
    assert aw == pytest.approx(8.4, abs=1e-9)


def test_strategy_uncorrelated_success():
    strat = strategy_uncorrelated(0.05)
    ps = success_probability(strat.psi_i, strat.psi_f)
    assert ps == pytest.approx(np.sin(0.05) ** 2, abs=1e-15)
    assert ps == pytest.approx(2.497917360987e-3, abs=1e-12)


def test_strategy_linear_optimal_hits_target():
    for aw in (5.0, 50.0, 500.0):
        strat = strategy_linear_optimal(10, aw)
        j = 5.0
        assert weak_value(strat.psi_i, strat.psi_f, strat.A) == pytest.approx(aw, rel=1e-12)
        assert success_probability(strat.psi_i, strat.psi_f) == pytest.approx(
            j**2 / (j**2 + aw**2), rel=1e-12)


def test_strategy_linear_fixed_sigma_pins_success():
    c = 2.5e-3
    strat = strategy_linear_fixed_sigma(12, c)
    assert success_probability(strat.psi_i, strat.psi_f) == pytest.approx(12 * c, abs=1e-14)
    assert sigma_advantage(success_probability(strat.psi_i, strat.psi_f), 12, c) \
        == pytest.approx(1.0, abs=1e-11)


def test_linear_strategy_half_integer_j():
    # odd two_j (half-integer j) is first-class for the linear families
    strat = strategy_linear_optimal(5, 30.0)  # j = 5/2
    assert weak_value(strat.psi_i, strat.psi_f, strat.A) == pytest.approx(30.0, rel=1e-12)
    res = postselect(strat)
    assert res.success_prob_zeroth == pytest.approx(2.5**2 / (2.5**2 + 900.0), rel=1e-12)
    assert res.fidelity_exact_vs_firstorder > 1 - 1e-8


def test_strategy_validation():
    with pytest.raises(ValueError, match="integer j"):
        strategy_nonlinear_joint(5, 1e-3)
    with pytest.raises(ValueError, match="kappa"):
        strategy_nonlinear_joint(40, 1e-2)  # kappa j^2 = 4
    with pytest.raises(ValueError, match="epsilon"):
        strategy_near_deterministic(4, 1.5)


def test_consistency_chain():
    # success probability, weak value and variance ceiling agree jointly,
    # with |A_w| / ceiling -> 1 as kappa j^2 -> 0 (the ceiling ignores <A>,
    # which shifts the exact weak value up by sqrt(kappa)(j + 2) relative).
    for j in range(2, 21, 2):
        kappa = 2e-4
        strat = strategy_nonlinear_joint(2 * j, kappa)
        ps = success_probability(strat.psi_i, strat.psi_f)
        assert ps == pytest.approx(kappa * j**2 / (1 + kappa * j**2), abs=1e-13)
        aw = weak_value(strat.psi_i, strat.psi_f, strat.A)
        expect_aw = (j**2 + 2 * j) / 2 + j / (2 * np.sqrt(kappa))
        assert aw == pytest.approx(expect_aw, rel=1e-12)
        bound = max_weak_value_bound(strat.psi_i, strat.A, kappa * j**2)
        assert abs(aw) / bound == pytest.approx(1 + np.sqrt(kappa) * (j + 2), rel=1e-9)
    ratios = []
    for kappa in (1e-4, 1e-6, 1e-8):
        strat = strategy_nonlinear_joint(20, kappa)
        aw = abs(weak_value(strat.psi_i, strat.psi_f, strat.A))
        ratios.append(aw / max_weak_value_bound(strat.psi_i, strat.A, kappa * 100))
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert ratios[2] == pytest.approx(1.0, abs=2e-3)


# -------------------------------------------------------------- postselect


def test_postselect_zero_coupling():
    strat = strategy_nonlinear_joint(4, 1e-3, g=0.0)
    res = postselect(strat)
    assert fidelity(res.kicked_meter_exact, strat.phi_i) == pytest.approx(1.0, abs=1e-12)
    assert res.success_prob_exact == pytest.approx(res.success_prob_zeroth, abs=1e-14)


def test_postselect_firstorder_fidelity_weak_regime():
    strat = strategy_nonlinear_joint(4, 1e-2, g=1e-4)
    res = postselect(strat)
    assert res.fidelity_exact_vs_firstorder >= 1 - 1e-6


def test_postselect_success_shift_linear_in_g():
    # imaginary weak value: P_exact - P_zeroth is first order in g
    diffs = []
    gs = (1e-5, 1e-4, 1e-3)
    for g in gs:
        strat = strategy_uncorrelated(0.1, g=g)
        res = postselect(strat)
        diffs.append(abs(res.success_prob_exact - res.success_prob_zeroth))
    slope = np.polyfit(np.log(gs), np.log(diffs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_postselect_fidelity_bound_on_presets():
    presets = [
        strategy_nonlinear_joint(8, 1e-3),
        strategy_near_deterministic(8, 0.04),
        strategy_linear_optimal(8, 30.0),
        strategy_linear_fixed_sigma(8, 2.5e-3),
        strategy_uncorrelated(0.1),
    ]
    for strat in presets:
        res = postselect(strat)
        aw = abs(res.weak_value)
        b_norm = float(np.max(np.abs(np.diag(strat.B.entries))))
        bound = 1 - 10 * (strat.g * aw * b_norm) ** 2
        assert res.fidelity_exact_vs_firstorder > bound


# ------------------------------------------------------------------ readout


def test_readout_zero_coupling():
    strat = strategy_uncorrelated(0.1, g=0.0)
    res = postselect(strat)
    exact, formula = meter_readout(res, centered_quadrature(strat), strat)
    assert exact == pytest.approx(0.0, abs=1e-12)
    assert formula == 0.0


def test_readout_real_weak_value_is_second_order():
    # real A_w: the linear-in-g formula vanishes and the exact number shift
    # scales as g^2
    shifts = []
    gs = (1e-4, 2e-4, 4e-4)
    for g in gs:
        strat = strategy_nonlinear_joint(4, 1e-3, g=g)
        res = postselect(strat)
        n_op = op_number(strat.meter_space)
        exact, formula = meter_readout(res, n_op, strat)
        assert formula == pytest.approx(0.0, abs=1e-15)
        shifts.append(abs(exact))
    slope = np.polyfit(np.log(gs), np.log(shifts), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.05)


def test_readout_quadrature_matches_formula():
    resids, gs = [], (1e-3, 5e-4, 2.5e-4)
    for g in gs:
        strat = strategy_uncorrelated(0.1, g=g)
        res = postselect(strat)
        exact, formula = meter_readout(res, centered_quadrature(strat), strat)
        assert abs(exact - formula) / abs(formula) < 0.05
        resids.append(abs(exact - formula))
    slope = np.polyfit(np.log(gs), np.log(resids), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_with_coupling_replaces_g():
    strat = strategy_uncorrelated(0.1, g=1e-4)
    assert with_coupling(strat, 5e-4).g == 5e-4
    assert strat.g == 1e-4


def test_postselect_diagonal_and_dense_paths_agree():
    # dual route: the O(dim) phase path vs assembling exp(-i g A (x) B)
    import dataclasses

    strat = strategy_nonlinear_joint(6, 1e-3, g=2e-4)
    dense_a = Operator(strat.A.dim, np.asarray(strat.A.entries), hermitian=True)
    dense_b = Operator(strat.B.dim, np.asarray(strat.B.entries), hermitian=True)
    dense = dataclasses.replace(strat, A=dense_a, B=dense_b)
    fast = postselect(strat)
    slow = postselect(dense)
    assert fast.success_prob_exact == pytest.approx(slow.success_prob_exact, abs=1e-14)
    assert fidelity(fast.kicked_meter_exact, slow.kicked_meter_exact) \
        == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(fast.kicked_meter_exact.amplitudes,
                               slow.kicked_meter_exact.amplitudes, atol=1e-12)


@pytest.mark.parametrize("strat", [strategy_nonlinear_joint(6, 1e-3, g=2e-3, eta=0.3),
                                   strategy_linear_optimal(5, 40.0, g=1e-3, eta=0.3)],
                         ids=["nonlinear", "linear"])
def test_evolved_joint_matches_dense_oracle(strat):
    # oracle: exp(-i g A (x) B) assembled densely, applied to psi_i (x) phi_i
    u = expm_i(tensor(strat.A, strat.B), strat.g)
    oracle = u.entries @ tensor(strat.psi_i, strat.phi_i).amplitudes
    # the phase path, and the eigendecomposition path on an A not marked diagonal
    dense_a = Operator(strat.A.dim, np.asarray(strat.A.entries), hermitian=True)
    for s in (strat, dataclasses.replace(strat, A=dense_a)):
        np.testing.assert_allclose(evolved_joint(s).amplitudes, oracle, rtol=0, atol=1e-13)


def test_strategy_records_overlap_at_construction():
    strat = strategy_nonlinear_joint(8, 1e-3)
    assert strat.initial_overlap == pytest.approx(inner(strat.psi_f, strat.psi_i))
    assert abs(strat.initial_overlap) ** 2 == pytest.approx(
        success_probability(strat.psi_i, strat.psi_f))


def test_strategy_meter_defaults():
    strat = strategy_nonlinear_joint(8, 1e-3, eta=0.1)
    # coherent meter amplitudes follow eta^n / sqrt(n!) up to normalization
    amps = strat.phi_i.amplitudes
    for n in range(1, 4):
        assert amps[n] / amps[n - 1] == pytest.approx(0.1 / np.sqrt(n), rel=1e-12)
    # meter observable is the (diagonal) number operator
    np.testing.assert_allclose(np.diag(strat.B.entries).real,
                               np.arange(strat.meter_space.dim))
    assert strat.B.diagonal
