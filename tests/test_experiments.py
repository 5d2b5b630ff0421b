import numpy as np
import pytest

from wva_lab import circuits, wva
from wva_lab.experiments import (
    CSV_HEADER,
    FAMILIES,
    FitResult,
    ScalingRecord,
    fit_loglog,
    fmt_float,
    records_to_csv,
    records_to_json,
    sweep,
)

from conftest import FAMILY_PARAMETERS, spy_everywhere


def test_sweep_nonlinear_closed_form_columns():
    records = sweep("nonlinear_joint", range(4, 21, 2), 1e-4, with_circuits=False)
    for r in records:
        j = r.two_j / 2
        assert r.success_prob == pytest.approx(1e-4 * j**2 / (1 + 1e-4 * j**2), abs=1e-13)
        assert r.abs_weak_value == pytest.approx((j**2 + 2 * j) / 2 + j / 0.02, rel=1e-12)
        assert r.qfi_total > 0 and 0 <= r.success_prob <= 1


def test_sweep_near_deterministic_success_constant():
    records = sweep("near_deterministic", (8, 12, 16), 0.04, g=1e-6, with_circuits=False)
    for r in records:
        assert r.success_prob == pytest.approx(1 / 1.04, abs=1e-12)


def test_sweep_single_point():
    records = sweep("uncorrelated_baseline", [10], 0.05, with_circuits=False)
    assert len(records) == 1
    r = records[0]
    assert r.two_j == 10
    assert r.success_prob == pytest.approx(np.sin(0.05) ** 2)
    assert r.sigma < 1.0  # at-least-one-click probability is sublinear


def test_sweep_circuit_columns_modes():
    small = sweep("nonlinear_joint", [8], 1e-3)[0]
    assert small.circuit_prep_prob == pytest.approx(2.0**-16 * 70, abs=1e-12)
    big = sweep("nonlinear_joint", [24], 1e-4)[0]  # analytic-overlap mode
    from math import comb

    from wva_lab.wva import postselect, strategy_nonlinear_joint

    assert big.circuit_prep_prob == pytest.approx(2.0**-48 * comb(24, 12), rel=1e-12)
    # measurement probability is 1/4 of the exact (g-dependent) postselection
    ps_exact = postselect(strategy_nonlinear_joint(24, 1e-4)).success_prob_exact
    assert big.circuit_measure_prob == pytest.approx(0.25 * ps_exact, rel=1e-12)


def test_sweep_reports_a_kick_outside_the_weak_regime():
    # |eta g A_w| ~ 0.3 here; a sweep must not hide the Fisher warning
    with pytest.warns(UserWarning, match="weak-kick"):
        sweep("nonlinear_joint", [12], 1e-3, g=0.05, eta=0.05, with_circuits=False)


def test_sweep_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown strategy family"):
        sweep("bogus", [4], 0.1)


@pytest.mark.parametrize("fam", FAMILIES.values(), ids=lambda fam: fam.name)
def test_family_levels_are_where_psi_f_has_weight(fam):
    strat = fam.build(4, FAMILY_PARAMETERS[fam.name])
    if fam.levels is None:  # the single-probe baseline has no register levels
        assert fam.name == "uncorrelated_baseline"
        assert strat.system_space.two_j == 1
        return
    space = strat.system_space
    m1, m2 = fam.levels(space.j)
    weighted = np.flatnonzero(strat.psi_f.amplitudes)
    assert sorted(weighted) == sorted([space.index_of(m1), space.index_of(m2)])
    _, _, alpha, beta = fam.components(strat)
    assert abs(alpha) ** 2 + abs(beta) ** 2 == pytest.approx(1.0, abs=1e-14)


def test_family_build_looks_the_constructor_up_per_call(monkeypatch):
    # a rebound wva.strategy_* (as the benchmark tracer installs) must be seen
    calls = []
    real = wva.strategy_nonlinear_joint

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(wva, "strategy_nonlinear_joint", spy)
    sweep("nonlinear_joint", [4, 6], 1e-4, with_circuits=False)
    assert calls == [(4, 1e-4), (6, 1e-4)]


#: (family, two_j) pairs of the measurement oracle: every collective family
#: at two_j 4, 6, 8, and the half-integer spins 5, 7 of the linear families.
MEASURE_ORACLE_CASES = [
    (name, two_j)
    for name, fam in FAMILIES.items() if fam.levels is not None
    for two_j in ((4, 5, 6, 7, 8) if not fam.integer_j else (4, 6, 8))
]


@pytest.mark.parametrize("family,two_j", MEASURE_ORACLE_CASES)
def test_measure_column_matches_the_brute_force_circuit(family, two_j):
    # oracle: the full-amplitude circuit on the evolved joint state
    parameter = FAMILY_PARAMETERS[family]
    (record,) = sweep(family, [two_j], parameter)
    fam = FAMILIES[family]
    strat = fam.build(two_j, parameter)
    m1, m2, alpha, beta = fam.components(strat)
    zeta = circuits.reference_state(two_j, "dicke_superposition", m1, m2)
    brute = circuits.measure_circuit(two_j, wva.evolved_joint(strat), m1, m2, alpha, beta,
                                     zeta, strat.meter_space.dim)
    assert record.circuit_measure_prob == pytest.approx(brute.p_tilde, rel=1e-12)


@pytest.mark.parametrize("family", [n for n, f in FAMILIES.items() if f.levels is not None])
def test_sweep_record_evolves_once_and_runs_no_measurement_circuit(monkeypatch, family):
    calls = []
    for name in ("evolved_joint", "measure_circuit"):
        spy_everywhere(monkeypatch, name, calls)
    (record,) = sweep(family, [4], FAMILY_PARAMETERS[family])
    assert record.circuit_measure_prob is not None
    assert calls == ["evolved_joint"]


def test_sweep_threaded_matches_serial():
    serial = sweep("nonlinear_joint", range(4, 13, 2), 1e-4, with_circuits=False)
    threaded = sweep("nonlinear_joint", range(4, 13, 2), 1e-4, with_circuits=False,
                     max_workers=4)
    assert serial == threaded


def test_fit_synthetic_square():
    records = [ScalingRecord(two_j=x, kappa_or_epsilon=0.0, abs_weak_value=float(x**2),
                             success_prob=0.5, sigma=1.0, qfi_total=1.0,
                             fisher_ratio=0.5, circuit_prep_prob=None,
                             circuit_measure_prob=None)
               for x in (2, 4, 6, 8, 10)]
    fit = fit_loglog(records, "two_j", "abs_weak_value")
    assert fit.slope == pytest.approx(2.0, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.points_used == 5


def test_fit_guards():
    records = [ScalingRecord(two_j=x, kappa_or_epsilon=0.0, abs_weak_value=1.0,
                             success_prob=0.5, sigma=1.0, qfi_total=1.0,
                             fisher_ratio=0.5, circuit_prep_prob=None,
                             circuit_measure_prob=None)
               for x in (2, 4)]
    with pytest.raises(ValueError, match="at least 4"):
        fit_loglog(records, "two_j", "abs_weak_value")
    bad = records * 3
    bad = [r.__class__(**{**r.__dict__, "abs_weak_value": -1.0}) for r in bad]
    with pytest.raises(ValueError, match="positive"):
        fit_loglog(bad, "two_j", "abs_weak_value")


def test_fit_nonlinear_weak_value_exponent():
    records = sweep("nonlinear_joint", range(4, 21, 2), 1e-4, with_circuits=False)
    fit = fit_loglog(records, "two_j", "abs_weak_value")
    assert 0.95 <= fit.slope <= 1.05


def test_fit_near_deterministic_exponent_large_registers():
    records = sweep("near_deterministic", range(200, 601, 50), 0.04, g=1e-6,
                    with_circuits=False)
    fit = fit_loglog(records, "two_j", "abs_weak_value")
    assert 1.95 <= fit.slope <= 2.05


def test_csv_format():
    records = sweep("nonlinear_joint", (4, 6, 8, 10), 1e-4, with_circuits=False)
    text = records_to_csv(records, {"aw": fit_loglog(records, "two_j", "abs_weak_value")})
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4 + 1
    assert lines[1].startswith("4,0.0001,")
    assert lines[-1].startswith("# fit aw: slope=")
    # empty cells for skipped circuit columns
    assert lines[1].endswith(",,")


def test_json_schema_and_rounding():
    import json

    records = sweep("nonlinear_joint", (4, 6, 8, 10), 1e-4, with_circuits=False)
    doc = json.loads(records_to_json("nonlinear_joint", 1e-4, records))
    assert doc["schema"] == "wva-lab/scaling-records/v1"
    assert doc["sigma_baseline"] == "fixed_per_probe_success"
    assert len(doc["records"]) == 4
    assert doc["records"][0]["two_j"] == 4
    assert doc["records"][0]["prep_prob"] is None


def test_fmt_float_rules():
    assert fmt_float(0.00015) == "0.00015"
    assert fmt_float(9.99e-5) == "9.99e-05"
    assert fmt_float(1 / 3) == "0.333333333333"


def test_records_bit_identical_across_runs():
    a = sweep("nonlinear_joint", range(4, 13, 2), 1e-4)
    b = sweep("nonlinear_joint", range(4, 13, 2), 1e-4)
    assert records_to_csv(a) == records_to_csv(b)
    assert a == b
