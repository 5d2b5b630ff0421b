import subprocess
import sys
from math import exp, fsum, lgamma, log, sqrt
from pathlib import Path

import numpy as np
import pytest

from wva_lab.boson import (
    CutoffError,
    FockSpace,
    coherent_state,
    min_cutoff,
    op_annihilate,
    op_number,
    poisson_tail,
)
from wva_lab.linalg import StateVector, expectation


def test_vacuum():
    # bit for bit the Fock ground state, which `wva-lab dynamics --meter-eta 0`
    # takes from here
    for cutoff in (1, 4, 6, 8, 20):
        ground = StateVector.basis(cutoff + 1, 0).amplitudes.tobytes()
        for eta in (0.0, -0.0):
            assert coherent_state(FockSpace(cutoff), eta).amplitudes.tobytes() == ground


def _coherent_without_rescale(space, eta):
    """The recurrence as it was before the 2^-500 rescale: the bit oracle
    wherever its amplitudes stay finite."""
    amps = np.zeros(space.dim, dtype=complex)
    amps[0] = 1.0
    for n in range(1, space.dim):
        amps[n] = amps[n - 1] * eta / sqrt(n)
    return StateVector.of(amps)


@pytest.mark.parametrize("eta", [0.0, 0.1, 0.3 + 0.4j, 1.0, 3.0, -5j, 10.0, 14 - 14j, 20.0, 26.0])
def test_coherent_state_keeps_its_bits_below_the_rescale(eta):
    # |eta| = 26 peaks near e^338 < 2^500, so no amplitude is rescaled
    space = FockSpace(max(min_cutoff(eta, 1e-12), 1))
    assert (coherent_state(space, eta).amplitudes.tobytes()
            == _coherent_without_rescale(space, eta).amplitudes.tobytes())


@pytest.mark.parametrize("eta", [26.7, 30.0, 38.0, 40.0, 60.0, 90.0, 30j])
def test_large_coherent_state_has_poisson_moments(eta):
    # the unrescaled recurrence overflows here (e^{|eta|^2 / 2} at the peak)
    space = FockSpace(min_cutoff(eta, 1e-12))
    w = np.abs(coherent_state(space, eta).amplitudes) ** 2
    n = np.arange(space.dim)
    lam = abs(eta) ** 2
    mean = float(w @ n)
    assert mean == pytest.approx(lam, rel=1e-9)
    assert float(w @ (n - mean) ** 2) == pytest.approx(lam, rel=1e-9)


def test_coherent_moments_closed_form():
    # oracle: Poisson moments <n> = |eta|^2, <n^2> = |eta|^4 + |eta|^2
    sp = FockSpace(32)
    eta = 0.3 * np.exp(0.4j)
    st = coherent_state(sp, eta)
    n = op_number(sp)
    n2 = np.diag(np.diag(n.dense()) ** 2)
    lam = abs(eta) ** 2
    assert expectation(n, st).real == pytest.approx(lam, abs=1e-10)
    mean_n2 = float(np.sum(np.abs(st.amplitudes) ** 2 * np.diag(n2).real))
    assert mean_n2 == pytest.approx(lam**2 + lam, abs=1e-10)


@pytest.mark.parametrize("eta", [0.05, 0.1, 0.3, 0.8])
def test_moments_when_tail_negligible(eta):
    sp = FockSpace(min_cutoff(eta, 1e-12))
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


def test_ladder_arithmetic():
    sp = FockSpace(6)
    a = op_annihilate(sp).entries
    ad = a.conj().T
    vac = np.eye(7)[0]
    np.testing.assert_allclose(a @ vac, 0 * vac)
    two = ad @ ad @ vac
    expect = np.zeros(7)
    expect[2] = np.sqrt(2)
    np.testing.assert_allclose(two, expect, atol=1e-15)
    # a^dag a = n exactly on the truncated space
    np.testing.assert_allclose(ad @ a, op_number(sp).dense(), atol=1e-12)


def test_commutator_truncation_artifact():
    sp = FockSpace(5)
    a = op_annihilate(sp).entries
    ad = a.conj().T
    comm = a @ ad - ad @ a
    expect = np.eye(6)
    expect[5, 5] = -5.0  # last level: a^dag leaves the truncated space
    np.testing.assert_allclose(comm, expect, atol=1e-12)


def test_number_commutes_with_functions_of_n():
    sp = FockSpace(7)
    n = op_number(sp).dense()
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


def forward_tail(cutoff, mean):
    """The tail summed term by term past the cutoff, up to the mean and on,
    as `poisson_tail` sums it for every cutoff: O(mean) terms below it."""
    total, k = 0.0, cutoff + 1
    term = exp(k * log(mean) - mean - lgamma(k + 1))
    while k <= mean or term > total * 1e-17:
        total += term
        k += 1
        term = exp(k * log(mean) - mean - lgamma(k + 1)) if k <= mean else term * mean / k
    return min(total, 1.0)


@pytest.mark.parametrize("mean", [0.3, 1.0, 1.5, 7.25, 60.0, 900.0])
def test_poisson_tail_keeps_its_bits_from_one_below_the_mean(mean):
    # every real meter has cutoff >= mean, where the sum past the cutoff
    # is unchanged; below mean - 1 it is 1 - P(X <= cutoff) instead
    for cutoff in range(int(mean) + 40):
        if cutoff + 1 > mean:
            assert poisson_tail(cutoff, mean) == forward_tail(cutoff, mean)
        else:
            head = fsum(exp(k * log(mean) - mean - lgamma(k + 1)) for k in range(cutoff + 1))
            assert head < 0.5
            assert poisson_tail(cutoff, mean) == pytest.approx(1.0 - head, rel=1e-14)
            assert poisson_tail(cutoff, mean) == pytest.approx(forward_tail(cutoff, mean),
                                                               rel=1e-12)


@pytest.mark.parametrize("call, expect", [
    ("print(poisson_tail(10, 9e6), poisson_tail(8192, 9e6), poisson_tail(4, 1e308))",
     "1.0 1.0 1.0"),
    ("print(poisson_tail(10**6 - 5000, 1e6) > 0.99999)", "True"),
], ids=["far-below", "near"])
def test_poisson_tail_below_a_large_mean_is_bounded(call, expect):
    # the sum up to the mean took O(mean) terms (9e6 per call here), so
    # each call runs in a fresh process with a timeout
    code = f"from wva_lab.boson import *; {call}"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, cwd=Path(__file__).resolve().parents[1] / "src")
    assert out.returncode == 0 and out.stdout.split() == expect.split()


def test_min_cutoff_rejects_a_mean_no_cutoff_holds():
    code = "from wva_lab.boson import *; min_cutoff(3000.0, 1e-12)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, cwd=Path(__file__).resolve().parents[1] / "src")
    assert out.returncode == 1
    assert out.stderr.splitlines()[-1] == ("ValueError: no Fock cutoff up to 10000 keeps the "
                                           "coherent tail of mean photon number 9e+06 within 1e-12")


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


@pytest.mark.parametrize("mean", [np.nan, -1.0, -np.inf])
def test_poisson_tail_rejects_a_mean_with_no_poisson_law(mean):
    # nan used to give a tail of 0.0, and a negative mean a math domain error
    with pytest.raises(ValueError, match="Poisson mean must be finite and non-negative"):
        poisson_tail(4, mean)


@pytest.mark.parametrize("eta", [np.nan, complex(np.nan, 0.0), 1e300, complex(1e200, 1e200),
                                 np.complex128(1e300)],
                         ids=["nan", "nan-real", "1e300", "1e200-both-parts", "numpy-1e300"])
def test_coherent_amplitude_must_have_a_finite_mean(eta):
    # nan gave a NaN state, and 1e300 died in abs(eta) ** 2 with an
    # OverflowError (a RuntimeWarning for a NumPy scalar)
    for call in (lambda: coherent_state(FockSpace(4, tail_tolerance=1e-6), eta),
                 lambda: min_cutoff(eta, 1e-6)):
        with pytest.raises(ValueError, match="must be finite with a finite \\|eta\\|\\^2"):
            call()


@pytest.mark.parametrize("call, message", [
    ("poisson_tail(4, inf)", "Poisson mean must be finite and non-negative"),
    ("min_cutoff(-inf, 1e-6)", "must be finite with a finite |eta|^2"),
    ("coherent_state(FockSpace(4, tail_tolerance=1e-6), inf)",
     "must be finite with a finite |eta|^2"),
    ("min_cutoff(complex(0.0, inf), 1e-12)", "must be finite with a finite |eta|^2"),
], ids=["poisson_tail", "min_cutoff", "coherent_state", "min_cutoff-imaginary"])
def test_an_infinite_mean_raises_instead_of_hanging(call, message):
    # an infinite mean used to spin forever in `while k <= mean`, so each
    # call runs in a fresh process with a timeout: a hang fails the test
    code = f"from math import inf; from wva_lab.boson import *; {call}"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, cwd=Path(__file__).resolve().parents[1] / "src")
    last = out.stderr.splitlines()[-1]
    assert out.returncode == 1
    assert last.startswith("ValueError: ") and message in last
