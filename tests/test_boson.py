import subprocess
import sys
from math import exp
from pathlib import Path

import numpy as np
import pytest

from wva_lab.boson import (
    CutoffError,
    FockSpace,
    coherent_state,
    min_cutoff,
    op_annihilate,
    op_create,
    op_number,
    poisson_tail,
)
from wva_lab.linalg import expectation


def test_vacuum():
    sp = FockSpace(8)
    vac = coherent_state(sp, 0.0)
    np.testing.assert_allclose(vac.amplitudes, np.eye(9)[0])


def test_coherent_moments_closed_form():
    # oracle: Poisson moments <n> = |eta|^2, <n^2> = |eta|^4 + |eta|^2
    sp = FockSpace(32)
    eta = 0.3 * np.exp(0.4j)
    st = coherent_state(sp, eta)
    n = op_number(sp)
    n2 = np.diag(np.diag(n.entries) ** 2)
    lam = abs(eta) ** 2
    assert expectation(n, st).real == pytest.approx(lam, abs=1e-10)
    mean_n2 = float(np.sum(np.abs(st.amplitudes) ** 2 * np.diag(n2).real))
    assert mean_n2 == pytest.approx(lam**2 + lam, abs=1e-10)


@pytest.mark.parametrize("eta", [0.05, 0.1, 0.3, 0.8])
def test_moments_when_tail_negligible(eta):
    sp = FockSpace.for_coherent(eta, tail_tolerance=1e-12)
    st = coherent_state(sp, eta)
    n = np.arange(sp.dim)
    w = np.abs(st.amplitudes) ** 2
    lam = eta**2
    assert float(w @ n) == pytest.approx(lam, abs=1e-9)
    assert float(w @ n**2) == pytest.approx(lam**2 + lam, abs=1e-9)


def test_tail_error_suggests_cutoff():
    sp = FockSpace(2, tail_tolerance=1e-12)
    with pytest.raises(CutoffError) as err:
        coherent_state(sp, 1.5)
    assert err.value.suggested_cutoff == min_cutoff(1.5, 1e-12)
    ok = FockSpace(err.value.suggested_cutoff, tail_tolerance=1e-12)
    coherent_state(ok, 1.5)  # no raise


def test_for_coherent_headroom():
    base = FockSpace.for_coherent(0.1)
    padded = FockSpace.for_coherent(0.1, headroom=8)
    assert padded.cutoff == base.cutoff + 8


def test_ladder_arithmetic():
    sp = FockSpace(6)
    a = op_annihilate(sp)
    ad = op_create(sp)
    vac = np.eye(7)[0]
    np.testing.assert_allclose(a.entries @ vac, 0 * vac)
    two = ad.entries @ ad.entries @ vac
    expect = np.zeros(7)
    expect[2] = np.sqrt(2)
    np.testing.assert_allclose(two, expect, atol=1e-15)
    # a^dag a = n exactly on the truncated space
    np.testing.assert_allclose(ad.entries @ a.entries, op_number(sp).entries, atol=1e-12)


def test_commutator_truncation_artifact():
    sp = FockSpace(5)
    a, ad = op_annihilate(sp).entries, op_create(sp).entries
    comm = a @ ad - ad @ a
    expect = np.eye(6)
    expect[5, 5] = -5.0  # last level: a^dag leaves the truncated space
    np.testing.assert_allclose(comm, expect, atol=1e-12)


def test_number_commutes_with_functions_of_n():
    sp = FockSpace(7)
    n = op_number(sp).entries
    f = np.diag(np.exp(0.3 * np.arange(8)) + np.arange(8) ** 2)
    assert np.max(np.abs(n @ f - f @ n)) < 1e-12


def test_poisson_tail_monotone():
    lam = 0.25
    tails = [poisson_tail(k, lam) for k in range(8)]
    assert all(a > b for a, b in zip(tails, tails[1:]))
    assert poisson_tail(0, 0.0) == 0.0


@pytest.mark.parametrize("lam", [0.25, 1.0, 5.0])
def test_poisson_tail_closed_forms(lam):
    assert poisson_tail(0, lam) == pytest.approx(1 - exp(-lam), rel=1e-14)
    assert poisson_tail(1, lam) == pytest.approx(1 - exp(-lam) * (1 + lam), rel=1e-14)


def test_poisson_tail_far_below_a_large_mean():
    # the first terms underflow here, yet the tail is essentially 1
    assert poisson_tail(10, 1000.0) == pytest.approx(1.0, abs=1e-12)
    assert poisson_tail(0, 800.0) <= 1.0


@pytest.mark.parametrize("eta, tol, cutoff", [
    (0.1, 1e-12, 4), (0.05, 1e-12, 4), (0.3, 1e-12, 7), (0.8, 1e-12, 12),
    (1.5, 1e-12, 19), (3.0, 1e-12, 37), (0.25, 1e-6, 3), (10.0, 1e-12, 178),
    (30.0, 1e-12, 1119)])
def test_min_cutoff_pinned(eta, tol, cutoff):
    # the cutoffs that the regularized incomplete gamma function gives
    assert min_cutoff(eta, tol) == cutoff


def test_import_leaves_scipy_out():
    # run from src/ so that "-c" imports this checkout's package
    code = "import sys, wva_lab; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=Path(__file__).resolve().parents[1] / "src")
    assert out.stdout.strip() == "False"
