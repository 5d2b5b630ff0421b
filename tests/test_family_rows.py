"""Every collective family is a row of `families.FAMILIES` built by
`wva.strategy_two_level`. The named constructors the rows replace, kept in
`tests/named_strategy_oracle.py`, are the oracle: a row's strategy holds the
oracle's arrays byte for byte, and a rejected input raises the oracle's
exception with the oracle's message."""

import math

import pytest

from wva_lab.families import FAMILIES

import named_strategy_oracle as oracle
from conftest import FAMILY_PARAMETERS, scaling_runs

COLLECTIVE = sorted(oracle.BY_FAMILY)


def assert_same_strategy(new, old):
    assert new.system_space == old.system_space and new.meter_space == old.meter_space
    for name in ("psi_i", "psi_f", "phi_i"):
        assert getattr(new, name).amplitudes.tobytes() == getattr(old, name).amplitudes.tobytes()
    for name in ("A", "B"):
        a, b = getattr(new, name), getattr(old, name)
        assert (a.dim, a.hermitian, a.diagonal) == (b.dim, b.hermitian, b.diagonal)
        assert a.entries.tobytes() == b.entries.tobytes()
    assert new.g == old.g
    assert new.initial_overlap == old.initial_overlap


def _grid_cases():
    cases = []
    for family, grid, parameter, g in scaling_runs():
        if family in oracle.BY_FAMILY:
            cases += [(family, two_j, parameter, {"g": g}) for two_j in grid]
        if FAMILIES[family].sigma_baseline == "fixed_weak_value":
            # the single-probe strategy behind the fixed-weak-value sigma baseline
            cases.append((family, 1, parameter, {}))
    return cases


GRID_CASES = _grid_cases()

#: the strategies of the README `weak-value`, `circuit-measure` and `fisher` calls
README_CASES = [
    ("nonlinear_joint", 4, 0.001, {"g": 1e-4, "eta": 0.1}),
    ("nonlinear_joint", 4, 0.001, {"g": 1e-4}),
    ("nonlinear_joint", 12, 1e-3, {"eta": 0.05, "g": 1e-4}),
]

METER_CASES = [(family, two_j, FAMILY_PARAMETERS[family], {"eta": eta, "g": g})
               for family in COLLECTIVE for two_j in (4, 6)
               for eta in (0.0, 0.1, 3.0) for g in (0.0, 1e-4)]


def test_the_grid_cases_cover_every_results_record():
    runs = scaling_runs()
    records = sum(len(grid) for family, grid, _, _ in runs if family in oracle.BY_FAMILY)
    assert len(GRID_CASES) == records + 1  # and the linear_fixed_aw probe at two_j = 1
    assert ("linear_fixed_aw", 1, 250.0, {}) in GRID_CASES


@pytest.mark.parametrize("family, two_j, parameter, kw", GRID_CASES + README_CASES + METER_CASES)
def test_row_builds_the_oracle_strategy(family, two_j, parameter, kw):
    assert_same_strategy(FAMILIES[family].build(two_j, parameter, **kw),
                         oracle.BY_FAMILY[family](two_j, parameter, **kw))


def _outcome(make):
    try:
        return make()
    except Exception as exc:  # the oracle decides which exceptions are expected
        return type(exc), str(exc)


BAD_PARAMETERS = [0.0, -0.5, 0.5, 1.0, 1.5, 1e300, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("family", COLLECTIVE)
@pytest.mark.parametrize("two_j", [-3, -2, -1, 0, 1, 3, 4, 40])
def test_row_rejects_what_the_oracle_rejects(family, two_j):
    for parameter in [FAMILY_PARAMETERS[family], *BAD_PARAMETERS]:
        new = _outcome(lambda: FAMILIES[family].build(two_j, parameter))
        old = _outcome(lambda: oracle.BY_FAMILY[family](two_j, parameter))
        if isinstance(old, tuple):
            assert new == old, (two_j, parameter)
        else:
            assert_same_strategy(new, old)


@pytest.mark.parametrize("family", COLLECTIVE)
def test_check_rejects_only_what_the_oracle_rejects(family):
    # `Family.check` is what the CLI runs before NumPy: an input it rejects,
    # the oracle rejects with the same exception
    rejected = 0
    for two_j in (-2, -1, 0, 3, 4, 40):
        for parameter in BAD_PARAMETERS:
            checked = _outcome(lambda: FAMILIES[family].check(two_j, parameter))
            if checked is not None:
                rejected += 1
                assert _outcome(lambda: oracle.BY_FAMILY[family](two_j, parameter)) == checked
    assert rejected > 0 or family == "linear_fixed_aw"  # its one check is SpinSpace's
