import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wva_lab import circuits as C
from wva_lab.experiments import FAMILIES, sweep
from wva_lab.linalg import StateVector, fidelity, inner
from wva_lab.spin import SpinSpace
from wva_lab.wva import evolved_joint, postselect

from conftest import FAMILY_PARAMETERS
from full_register_oracle import (
    CircuitRegisterState,
    control_swap,
    embed_dicke_loop,
    full_measure_circuit,
    full_prep_circuit,
)


def test_embed_dicke_two_qubits():
    mid = C.embed_dicke(2, 0)
    np.testing.assert_allclose(mid.amplitudes, [0, 1 / sqrt(2), 1 / sqrt(2), 0])
    np.testing.assert_allclose(C.embed_dicke(2, -1).amplitudes, [1, 0, 0, 0])


@pytest.mark.parametrize("two_j", range(1, 9))
def test_embed_overlap_with_plus_reference(two_j):
    # oracle: direct inner product in the computational basis
    plus = C.reference_state(two_j, "plus_all")
    for m in SpinSpace(two_j).m_values():
        ov = inner(C.embed_dicke(two_j, m), plus.vector)
        ones = round(two_j / 2 + m)
        assert ov.real == pytest.approx(2.0 ** (-two_j / 2) * sqrt(comb(two_j, ones)),
                                        abs=1e-12)
        assert ov.imag == 0.0


def test_embed_dicke_matches_the_index_loop_bit_for_bit():
    for two_j in range(1, C.MAX_REGISTER_TWO_J + 1):
        for m in SpinSpace(two_j).m_values():
            got = C.embed_dicke(two_j, m).amplitudes
            assert got.tobytes() == embed_dicke_loop(two_j, m).tobytes()


def test_embed_register_cap():
    with pytest.raises(ValueError, match="register too large"):
        C.embed_dicke(12, 0)


# ------------------------------------- the full-register oracle's machinery


def test_register_state_validation():
    with pytest.raises(ValueError, match="normalized"):
        CircuitRegisterState(two_j=1, amplitudes=np.full(8, 1.0))
    with pytest.raises(ValueError, match="amplitudes"):
        CircuitRegisterState(two_j=1, amplitudes=np.zeros(4))


def test_control_swap_definition():
    d = 4
    x, y = np.eye(d)[1], np.eye(d)[2]
    anc1 = np.zeros(2)
    anc1[1] = 1.0
    amps = np.einsum("a,i,k->aik", anc1, x, y).ravel()
    out = control_swap(CircuitRegisterState(two_j=2, amplitudes=amps))
    expect = np.einsum("a,i,k->aik", anc1, y, x).ravel()
    np.testing.assert_allclose(out.amplitudes, expect)
    # ancilla |0> branch untouched
    anc0 = np.array([1.0, 0.0])
    amps0 = np.einsum("a,i,k->aik", anc0, x, y).ravel()
    out0 = control_swap(CircuitRegisterState(two_j=2, amplitudes=amps0))
    np.testing.assert_allclose(out0.amplitudes, amps0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 3))
def test_control_swap_involutive_and_unitary(seed, two_j):
    rng = np.random.default_rng(seed)
    dim = 2 ** (2 * two_j + 1)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps /= np.linalg.norm(amps)
    state = CircuitRegisterState(two_j=two_j, amplitudes=amps)
    once = control_swap(state)
    assert np.linalg.norm(once.amplitudes) == pytest.approx(1.0, abs=1e-12)
    twice = control_swap(once)
    assert np.max(np.abs(twice.amplitudes - amps)) < 1e-12


# ------------------------------------------------------------------- prep


def test_prep_standard_example():
    zeta = C.reference_state(2, "plus_all")
    res = C.prep_circuit(2, 0, -1, 1 / sqrt(2), 1 / sqrt(2), zeta)
    assert res.success_prob == pytest.approx(0.125, abs=1e-12)
    assert res.ancilla_normalized_prob == pytest.approx(1 / 6, abs=1e-12)
    sp = SpinSpace(2)
    target = np.zeros(3, dtype=complex)
    target[sp.index_of(0)] = 1 / sqrt(2)
    target[sp.index_of(-1)] = 1 / sqrt(2)
    assert fidelity(res.output_system, StateVector(3, target)) == pytest.approx(1.0, abs=1e-12)


def test_prep_single_branch():
    zeta = C.reference_state(4, "plus_all")
    res = C.prep_circuit(4, 1, -2, 1.0, 0.0, zeta)
    sp = SpinSpace(4)
    assert abs(res.output_system.amplitudes[sp.index_of(1)]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("two_j,m1,m2", [
    (2, 0, -1), (3, 0.5, -1.5), (4, 0, -2), (5, 2.5, -0.5),
    (6, 0, -3), (7, 1.5, -3.5), (8, 0, -4), (8, 4, -4),
])
def test_prep_brute_force_matches_analytic(two_j, m1, m2):
    # oracle equivalence: full-amplitude simulation vs overlap closed form
    zeta = C.reference_state(two_j, "plus_all")
    res = C.prep_circuit(two_j, m1, m2, 1 / sqrt(2), 1 / sqrt(2), zeta)
    analytic = C.prep_probability_analytic(two_j, m1, m2, "plus_all")
    assert abs(res.success_prob - analytic) < 1e-10
    overlaps = abs(C.reference_overlap(zeta, m1)) ** 2 * abs(C.reference_overlap(zeta, m2)) ** 2
    assert overlaps == pytest.approx(analytic, abs=1e-14)
    assert res.leakage < 1e-12


def test_prep_output_stays_in_two_component_span():
    zeta = C.reference_state(6, "plus_all")
    res = C.prep_circuit(6, 0, -3, 0.8, 0.6, zeta)
    sp = SpinSpace(6)
    amps = res.output_system.amplitudes
    support = {sp.index_of(0), sp.index_of(-3)}
    for k, a in enumerate(amps):
        if k not in support:
            assert abs(a) < 1e-12


def test_prep_zero_overlap_rejected():
    # a two-component reference that misses m1 entirely
    zeta = C.reference_state(4, "dicke_superposition", 1, -1)
    with pytest.raises(ValueError, match="overlap"):
        C.prep_circuit(4, 0, -2, 1 / sqrt(2), 1 / sqrt(2), zeta)


def test_prep_probability_conventions():
    conv = C.prep_probability_conventions(4)
    assert conv["normalized_dicke"] == pytest.approx(2.0**-8 * comb(4, 2))
    assert conv["unnormalized_dicke"] == pytest.approx(2.0**-8 * comb(4, 2) ** 2)
    brute = C.prep_circuit(4, 0, -2, 1 / sqrt(2), 1 / sqrt(2),
                           C.reference_state(4, "plus_all")).success_prob
    assert brute == pytest.approx(conv["normalized_dicke"], abs=1e-12)
    assert brute != pytest.approx(conv["unnormalized_dicke"], abs=1e-3)


# ------------------------------------------------------------------ measure


def _nonlinear_pieces(two_j, kappa, g):
    strat = FAMILIES["nonlinear_joint"].build(two_j, kappa, g=g)
    sp = strat.system_space
    j = sp.j
    alpha = complex(strat.psi_f.amplitudes[sp.index_of(0)])
    beta = complex(strat.psi_f.amplitudes[sp.index_of(-j)])
    joint = evolved_joint(strat)
    return strat, alpha, beta, joint


def test_measure_zero_coupling_quadratic_success():
    two_j, kappa = 8, 1e-3
    strat, alpha, beta, joint = _nonlinear_pieces(two_j, kappa, g=0.0)
    j = two_j / 2
    zeta = C.reference_state(two_j, "dicke_superposition", 0, -j)
    res = C.measure_circuit(two_j, joint, 0, -j, alpha, beta, zeta,
                            strat.meter_space.dim)
    expect = 0.25 * kappa * j**2 / (1 + kappa * j**2)
    assert res.p_tilde == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("two_j", [4, 8])
def test_measure_matches_postselect(two_j):
    strat, alpha, beta, joint = _nonlinear_pieces(two_j, 1e-3, g=1e-4)
    j = two_j / 2
    zeta = C.reference_state(two_j, "dicke_superposition", 0, -j)
    res = C.measure_circuit(two_j, joint, 0, -j, alpha, beta, zeta,
                            strat.meter_space.dim)
    kicked = postselect(strat).kicked_meter_exact
    assert fidelity(res.conditional_meter, kicked) >= 1 - 1e-10
    # probability factorizes into prefactor 1/4 times the postselection norm
    assert res.p_tilde == pytest.approx(0.25 * postselect(strat).success_prob_exact,
                                        abs=1e-12)


def test_measure_single_branch():
    strat, alpha, beta, joint = _nonlinear_pieces(6, 1e-3, g=1e-4)
    sp = strat.system_space
    zeta = C.reference_state(6, "dicke_superposition", 0, -3)
    res = C.measure_circuit(6, joint, 0, -3, 1.0, 0.0, zeta, strat.meter_space.dim)
    block = joint.amplitudes.reshape(sp.dim, strat.meter_space.dim)
    weight = float(np.vdot(block[sp.index_of(0)], block[sp.index_of(0)]).real)
    assert res.p_tilde == pytest.approx(0.25 * weight, abs=1e-12)


@pytest.mark.parametrize("two_j", [2, 4, 6, 8])
def test_measure_brute_force_matches_analytic(two_j):
    # linear-strategy states exercise m = +-j on every register size
    strat = FAMILIES["linear_fixed_aw"].build(two_j, 11.0, g=1e-4)
    sp = strat.system_space
    j = sp.j
    alpha = complex(strat.psi_f.amplitudes[sp.index_of(j)])
    beta = complex(strat.psi_f.amplitudes[sp.index_of(-j)])
    joint = evolved_joint(strat)
    zeta = C.reference_state(two_j, "dicke_superposition", j, -j)
    res = C.measure_circuit(two_j, joint, j, -j, alpha, beta, zeta,
                            strat.meter_space.dim)
    post = postselect(strat)
    analytic = C.measure_probability_analytic(two_j, j, -j, zeta, post.success_prob_exact)
    assert abs(res.p_tilde - analytic) < 1e-10
    assert fidelity(res.conditional_meter, post.kicked_meter_exact) >= 1 - 1e-10


# --------------------------------------------------------- overlap expansion


@dataclass(frozen=True)
class OverlapExpansionReport:
    max_abs_deviation: float
    max_rel_deviation: float
    prefactor: float
    weak_value_exponent: float


def overlap_expansion_check(two_j: int, kappa: float, g: float,
                            eta: complex = 0.1) -> OverlapExpansionReport:
    """Compare the postselection overlap bra of the exactly evolved nonlinear
    strategy against its closed exponential form
    prefactor * <phi_i| exp(i g A_w B), A_w = (j^2 + 2j + j/sqrt(kappa))/2.

    The deviation is the second-order error of collapsing the two-branch
    phase sum into a single exponential; it grows as O(g^2).
    """
    strat = FAMILIES["nonlinear_joint"].build(two_j, kappa, g=g, eta=eta)
    j = strat.system_space.j
    space = strat.system_space
    block = evolved_joint(strat).amplitudes.reshape(space.dim, strat.meter_space.dim)

    alpha = strat.psi_f.amplitudes[space.index_of(0.0)]
    beta = strat.psi_f.amplitudes[space.index_of(-j)]
    lhs = np.conj(alpha * block[space.index_of(0.0)] + beta * block[space.index_of(-j)])

    a_w = 0.5 * (j**2 + 2 * j + j / sqrt(kappa))
    prefactor = sqrt(kappa) * j / sqrt(1.0 + kappa * j**2)
    n_diag = strat.B.entries.real
    rhs = prefactor * np.conj(strat.phi_i.amplitudes) * np.exp(1j * g * a_w * n_diag)

    dev = np.abs(lhs - rhs)
    scale = float(np.max(np.abs(rhs)))
    return OverlapExpansionReport(
        max_abs_deviation=float(np.max(dev)),
        max_rel_deviation=float(np.max(dev)) / scale,
        prefactor=prefactor,
        weak_value_exponent=a_w,
    )


def test_overlap_expansion_zero_coupling():
    rep = overlap_expansion_check(8, 1e-3, 0.0)
    assert rep.max_abs_deviation == pytest.approx(0.0, abs=1e-14)
    assert rep.prefactor == pytest.approx(np.sqrt(1e-3) * 4 / np.sqrt(1 + 1e-3 * 16))


def test_overlap_expansion_small_deviation():
    rep = overlap_expansion_check(8, 1e-3, 1e-5)
    assert rep.max_rel_deviation < 1e-4
    assert rep.weak_value_exponent == pytest.approx((16 + 8 + 4 / np.sqrt(1e-3)) / 2)


def test_overlap_expansion_deviation_quadratic_in_g():
    gs = (1e-5, 2e-5, 4e-5, 8e-5)
    devs = [overlap_expansion_check(8, 1e-3, g).max_abs_deviation for g in gs]
    slope = np.polyfit(np.log(gs), np.log(devs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_prep_closed_form_skips_the_central_binomial_where_the_edge_underflows(monkeypatch):
    # 2^-2j already makes the |j,-j> weight 0.0 from two_j ~ 1075
    built = []
    real = C.comb

    def spy(n, k):
        built.append((n, k))
        return real(n, k)

    monkeypatch.setattr(C, "comb", spy)
    C._plus_all_weight.cache_clear()  # a memoized weight builds no binomial
    two_j = 100_000
    assert C.prep_probability_analytic(two_j, 0, -two_j // 2) == 0.0
    (record,) = sweep("near_deterministic", [two_j], 0.04, g=1e-11)
    assert record.circuit_prep_prob == 0.0
    assert built and all(k in (0, two_j) for _, k in built)
    # where the edge weight is normal, both levels are evaluated
    built.clear()
    assert C.prep_probability_analytic(8, -4, 0) == 70 * 2.0**-16
    assert sorted(k for _, k in built) == [0, 4]
    # a second call reads both weights from the memo
    built.clear()
    assert C.prep_probability_analytic(8, -4, 0) == 70 * 2.0**-16
    assert C.measure_probability_analytic(8, -4, 0, "plus_all", 1.0) == \
        (2.0**-8 * 70 * 2.0**-8) / (2.0**-8 + 70 * 2.0**-8)
    assert built == []


@pytest.mark.parametrize("two_j", [4, 100, 400, 600, 1000, 1030, 1100, 2000])
def test_closed_form_weights_are_correctly_rounded(two_j):
    # oracle: the exact rational weight, rounded once by Fraction -> float
    j = two_j // 2
    central = Fraction(comb(two_j, j), 2**two_j)
    edge = Fraction(1, 2**two_j)
    assert C.prep_probability_analytic(two_j, 0, -j) == float(central) * float(edge)
    conv = C.prep_probability_conventions(two_j)
    assert conv["normalized_dicke"] == float(central * edge)
    assert conv["unnormalized_dicke"] == float(central**2)
    strat = FAMILIES["nonlinear_joint"].build(two_j, 0.01 / j**2, g=0.0)
    ps = postselect(strat).success_prob_exact
    got = C.measure_probability_analytic(two_j, 0, -j, "plus_all", ps)
    assert np.isfinite(got)
    if two_j <= 400:  # where the weights are normal, the old float formula agrees bit for bit
        assert conv["normalized_dicke"] == 2.0 ** (-2 * two_j) * comb(two_j, j)
        assert conv["unnormalized_dicke"] == 2.0 ** (-2 * two_j) * comb(two_j, j) ** 2


# ------------------------------------------------------ full-register oracle

ANCILLAS = ((1 / sqrt(2), 1 / sqrt(2)), (0.8, 0.6j), (0.6, -0.8))


def _prep_bits(res):
    return (res.output_system.amplitudes.tobytes(),
            np.array([res.success_prob, res.ancilla_normalized_prob, res.leakage]).tobytes())


def _measure_bits(res):
    return res.conditional_meter.amplitudes.tobytes(), np.float64(res.p_tilde).tobytes()


@pytest.mark.parametrize("two_j", range(1, 10))
def test_prep_matches_full_register_oracle_bit_for_bit(two_j):
    # every level pair; the reference kind and the ancilla cycle over the pairs
    pairs = combinations(SpinSpace(two_j).m_values(), 2)
    for n, (m1, m2) in enumerate(pairs):
        kind = C.REFERENCE_KINDS[n % 2]
        alpha, beta = ANCILLAS[n % 3]
        zeta = C.reference_state(two_j, kind, m1, m2)
        got = C.prep_circuit(two_j, m1, m2, alpha, beta, zeta)
        assert _prep_bits(got) == _prep_bits(full_prep_circuit(two_j, m1, m2, alpha, beta, zeta))


def test_prep_matches_full_register_oracle_at_the_sweep_operating_points():
    # what a sweep record runs at the register cap: |+>^(2j), equal ancilla
    two_j = C.MAX_REGISTER_TWO_J
    zeta = C.reference_state(two_j, "plus_all")
    for m1, m2 in {fam.levels(two_j / 2) for fam in FAMILIES.values() if fam.levels}:
        got = C.prep_circuit(two_j, m1, m2, *ANCILLAS[0], zeta)
        assert _prep_bits(got) == _prep_bits(full_prep_circuit(two_j, m1, m2, *ANCILLAS[0], zeta))


def _assert_measure_matches_the_oracle(family, two_j, kinds):
    fam = FAMILIES[family]
    strat = fam.build(two_j, FAMILY_PARAMETERS[family], g=1e-4)
    m1, m2, alpha, beta = fam.components(strat)
    joint, meter_dim = evolved_joint(strat), strat.meter_space.dim
    for kind in kinds:
        zeta = C.reference_state(two_j, kind, m1, m2)
        got = C.measure_circuit(two_j, joint, m1, m2, alpha, beta, zeta, meter_dim)
        want = full_measure_circuit(two_j, joint, m1, m2, alpha, beta, zeta, meter_dim)
        assert _measure_bits(got) == _measure_bits(want)


@pytest.mark.parametrize("two_j", [4, 6, 8])
@pytest.mark.parametrize("family", ["linear_fixed_aw", "nonlinear_joint"])
def test_measure_matches_full_register_oracle_bit_for_bit(family, two_j):
    _assert_measure_matches_the_oracle(family, two_j, C.REFERENCE_KINDS)


def test_measure_matches_full_register_oracle_at_the_register_cap():
    # the oracle holds 2 x 1024 x 1024 x 7 amplitudes here (about 0.5 GB)
    _assert_measure_matches_the_oracle("nonlinear_joint", C.MAX_REGISTER_TWO_J,
                                       ["dicke_superposition"])


def _peak_mb(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_circuits_at_the_register_cap_stay_on_the_embedding_support():
    # the full register would be 2 x 1024 x 1024 amplitudes: 134 MB for prep,
    # 470 MB for measure with its 7-level meter; the S x S square of the two
    # supports (|S| = 253) 4 MB and 29 MB; each branch block 2 x 252 x 1
    two_j = C.MAX_REGISTER_TWO_J
    zeta = C.reference_state(two_j, "plus_all")
    assert _peak_mb(lambda: C.prep_circuit(two_j, 0, -5, *ANCILLAS[0], zeta)) < 1.0
    strat, alpha, beta, joint = _nonlinear_pieces(two_j, 1e-3, g=1e-4)
    zeta = C.reference_state(two_j, "dicke_superposition", 0, -5)
    assert _peak_mb(lambda: C.measure_circuit(two_j, joint, 0, -5, alpha, beta, zeta,
                                              strat.meter_space.dim)) < 1.0
