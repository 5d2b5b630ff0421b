"""The scaling-record path builds each piece of register-size structure once,
reads the meter's moments once per meter and writes the records JSON without
`json.dumps`: every record keeps its bits with cold caches and warm ones, every
cached array is read-only, each cache holds one entry per key, and the JSON
is the bytes of the dict-plus-`json.dumps` oracle."""

import dataclasses
import math

import numpy as np
import pytest

from wva_lab import circuits, fisher, spin, wva
from wva_lab.boson import FockSpace, coherent_state, op_number
from wva_lab.experiments import FAMILIES, FitResult, fit_loglog, records_to_json, sweep
from wva_lab.fisher import postselected_fisher_ratio
from wva_lab.linalg import Operator
from wva_lab.spin import SpinSpace, collective_op

import fisher_ratio_oracle
import records_json_oracle
from conftest import FAMILY_PARAMETERS, scaling_runs

CACHES = (spin._diagonal_op, wva._equal_superposition, wva._meter, fisher._meter_terms,
          circuits._dicke_embeddings, circuits._plus_all, circuits._plus_all_weight)


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def record_bits(runs):
    return [[v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(r)]
            for family, grid, parameter, g in runs
            for r in sweep(family, grid, parameter, g=g,
                           with_circuits=family != "uncorrelated_baseline")]


def test_every_record_keeps_its_bits_with_cold_and_warm_caches():
    runs = scaling_runs()
    clear_caches()
    cold = record_bits(runs)
    assert len(cold) == sum(len(grid) for _, grid, _, _ in runs)
    assert record_bits(runs) == cold
    clear_caches()
    assert record_bits(runs) == cold


def test_cached_pieces_are_what_a_fresh_build_gives():
    for two_j in (1, 4, 9, 400):
        for kind in spin.DIAGONAL_KINDS:
            cached = collective_op(SpinSpace(two_j), kind)
            fresh = spin._diagonal_op.__wrapped__(two_j, kind)
            assert cached.entries.tobytes() == fresh.entries.tobytes()
            assert (cached.hermitian, cached.diagonal) == (fresh.hermitian, fresh.diagonal)
    for args in ((8, 4.0, -4.0), (400, 0.0, -200.0)):
        assert (wva._equal_superposition(*args).amplitudes.tobytes()
                == wva._equal_superposition.__wrapped__(*args).amplitudes.tobytes())
    for two_j in (1, 6, 10):
        assert (circuits._dicke_embeddings(two_j).tobytes()
                == circuits._dicke_embeddings.__wrapped__(two_j).tobytes())
        assert (circuits.reference_state(two_j, "plus_all").vector.amplitudes.tobytes()
                == circuits._plus_all.__wrapped__(two_j).vector.amplitudes.tobytes())
    for two_j, index in ((4, 2), (600, 300), (600, 600), (2000, 1000)):
        assert (circuits._plus_all_weight(two_j, index).hex()
                == circuits._plus_all_weight.__wrapped__(two_j, index).hex())


def test_cached_arrays_are_read_only():
    arrays = [collective_op(SpinSpace(6), kind).entries for kind in spin.DIAGONAL_KINDS]
    arrays += [FAMILIES["nonlinear_joint"].build(6, 1e-3).psi_i.amplitudes,
               FAMILIES["linear_fixed_aw"].build(6, 250.0).psi_i.amplitudes,
               circuits._dicke_embeddings(4),
               circuits.embed_dicke(4, 0).amplitudes,
               circuits.reference_state(4, "plus_all").vector.amplitudes]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]
        with pytest.raises(ValueError, match="read-only"):
            a += 0


def test_a_cache_holds_one_entry_per_register_and_kind():
    clear_caches()
    for _ in range(2):
        for epsilon in (0.01, 0.04):
            sweep("near_deterministic", [200], epsilon, g=1e-6)
        for kappa in (1e-4, 1e-3):
            sweep("nonlinear_joint", [6], kappa)
    assert spin._diagonal_op.cache_info().currsize == 2  # (200, nonlinear), (6, nonlinear)
    assert wva._equal_superposition.cache_info().currsize == 2
    assert fisher._meter_terms.cache_info().currsize == 1  # one eta, one meter
    assert circuits._dicke_embeddings.cache_info().currsize == 1
    assert circuits._plus_all.cache_info().currsize == 1
    assert circuits._plus_all_weight.cache_info().currsize == 2  # (200, 100), (200, 200)
    assert (FAMILIES["near_deterministic"].build(200, 0.3).A
            is FAMILIES["nonlinear_joint"].build(200, 1e-6).A)
    # a second size gives a second entry in each
    sweep("near_deterministic", [250], 0.01, g=1e-6)
    sweep("nonlinear_joint", [8], 1e-4)
    assert spin._diagonal_op.cache_info().currsize == 4
    assert wva._equal_superposition.cache_info().currsize == 4
    assert circuits._dicke_embeddings.cache_info().currsize == 2
    assert circuits._plus_all.cache_info().currsize == 2
    assert circuits._plus_all_weight.cache_info().currsize == 4
    # another kind at a cached size is its own entry
    assert collective_op(SpinSpace(6), "jz") is collective_op(SpinSpace(6), "jz")
    assert spin._diagonal_op.cache_info().currsize == 5
    assert fisher._meter_terms.cache_info().currsize == 1


def test_the_caches_hold_a_run_scaling_pass():
    clear_caches()
    for _ in range(2):
        record_bits(scaling_runs())
    for cache in (spin._diagonal_op, wva._equal_superposition, circuits._dicke_embeddings,
                  circuits._plus_all, circuits._plus_all_weight, fisher._meter_terms):
        info = cache.cache_info()
        assert info.misses == info.currsize  # the second pass built nothing


# ------------------------------------------------------------ meter moments


def _hand_built_meter(strat, eta=0.3, cutoff=14):
    space = FockSpace(cutoff)
    return dataclasses.replace(strat, meter_space=space, phi_i=coherent_state(space, eta),
                               B=op_number(space))


FISHER_POINTS = {
    "nonlinear_default_meter": lambda: FAMILIES["nonlinear_joint"].build(12, 1e-3, eta=0.05),
    "near_deterministic_default_meter": lambda: FAMILIES["near_deterministic"].build(
        400, 0.01, g=1e-6),
    "nonlinear_hand_built": lambda: _hand_built_meter(FAMILIES["nonlinear_joint"].build(8, 1e-3)),
    "uncorrelated_hand_built_n_squared": lambda: dataclasses.replace(
        _hand_built_meter(wva.strategy_uncorrelated(0.05)),
        B=Operator.from_diagonal(np.arange(15.0) ** 2)),
}


def report_bits(report):
    return [v.hex() if isinstance(v, float) else (v.real.hex(), v.imag.hex())
            for v in dataclasses.astuple(report)]


@pytest.mark.parametrize("point", FISHER_POINTS)
def test_the_fisher_report_is_that_of_the_unmemoized_oracle(point):
    fisher._meter_terms.cache_clear()
    strat = FISHER_POINTS[point]()
    expected = report_bits(fisher_ratio_oracle.postselected_fisher_ratio(strat))
    assert report_bits(postselected_fisher_ratio(strat)) == expected  # cold memo
    assert report_bits(postselected_fisher_ratio(strat)) == expected  # warm memo
    assert fisher._meter_terms.cache_info().misses == 1


def test_a_hand_built_meter_is_computed_once():
    fisher._meter_terms.cache_clear()
    strat = _hand_built_meter(FAMILIES["nonlinear_joint"].build(8, 1e-3))
    for g in (1e-5, 1e-4, 2e-4):
        postselected_fisher_ratio(wva.with_coupling(strat, g))
    info = fisher._meter_terms.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # an equal meter built again is another object, and another entry
    postselected_fisher_ratio(_hand_built_meter(FAMILIES["nonlinear_joint"].build(8, 1e-3)))
    assert fisher._meter_terms.cache_info().currsize == 2
    # with the memo warm, every other meter still reads its own moments
    for eta in (0.5, 0.05j):
        other = _hand_built_meter(strat, eta=eta)
        assert (report_bits(postselected_fisher_ratio(other))
                == report_bits(fisher_ratio_oracle.postselected_fisher_ratio(other)))
    assert fisher._meter_terms.cache_info().currsize == 4


# ------------------------------------------------------------ records JSON


def _records_with_odd_cells():
    records = sweep("nonlinear_joint", [4, 6, 8, 10], 1e-4)
    return [dataclasses.replace(records[0], sigma=math.nan, circuit_prep_prob=None),
            dataclasses.replace(records[1], qfi_total=math.inf, circuit_measure_prob=None),
            dataclasses.replace(records[2], fisher_ratio=-math.inf, kappa_or_epsilon=0.0),
            records[3]]


def _fits(records):
    return {f"{y}_vs_two_j": fit_loglog(records, "two_j", y)
            for y in ("abs_weak_value", "success_prob", "sigma")}


JSON_CASES = {
    "with_fits": lambda: ("near_deterministic",
                          sweep("near_deterministic", range(200, 601, 50), 0.01, g=1e-6), True),
    "none_cells_no_fits": lambda: ("uncorrelated_baseline",
                                   sweep("uncorrelated_baseline", [4, 6, 8], 0.05,
                                         with_circuits=False), False),
    "empty": lambda: ("linear_fixed_aw", [], False),
    "empty_with_fits": lambda: ("linear_fixed_aw", [], True),
    "non_finite": lambda: ("nonlinear_joint", _records_with_odd_cells(), False),
}


@pytest.mark.parametrize("case", JSON_CASES)
def test_records_json_is_the_json_dumps_document(case):
    family, records, with_fits = JSON_CASES[case]()
    parameter = FAMILY_PARAMETERS[family]
    fits = _fits(sweep(family, [4, 6, 8, 10], parameter)) if with_fits else None
    expected = records_json_oracle.records_to_json(family, parameter, records, fits)
    assert records_to_json(family, parameter, records, fits) == expected
    assert records_to_json(family, parameter, records, {}) == (
        records_json_oracle.records_to_json(family, parameter, records))


def test_records_json_writes_non_finite_fits_as_json_does():
    records = sweep("nonlinear_joint", [4, 6, 8, 10], 1e-4)
    fits = {"odd": FitResult(slope=math.nan, intercept=-math.inf, r_squared=math.inf,
                             points_used=4)}
    for family in FAMILIES:
        assert (records_to_json(family, -0.0, records, fits)
                == records_json_oracle.records_to_json(family, -0.0, records, fits))


def test_records_json_refuses_what_json_dumps_refuses():
    (record,) = sweep("nonlinear_joint", [4], 1e-4)
    bad = [dataclasses.replace(record, two_j=np.int64(4))]
    with pytest.raises(TypeError):
        records_json_oracle.records_to_json("nonlinear_joint", 1e-4, bad)
    with pytest.raises(TypeError):
        records_to_json("nonlinear_joint", 1e-4, bad)
