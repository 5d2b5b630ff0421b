import numpy as np
import pytest

from wva_lab.linalg import StateVector, inner
from wva_lab.spin import (
    SpinSpace,
    collective_op,
    dicke_state,
    nonlinear_observable,
    superpose_dicke,
    variance,
)


def test_space_basics():
    sp = SpinSpace(4)
    assert sp.j == 2 and sp.dim == 5
    np.testing.assert_allclose(sp.m_values(), [2, 1, 0, -1, -2])
    assert sp.index_of(0) == 2
    with pytest.raises(ValueError):
        sp.index_of(0.3)
    with pytest.raises(ValueError):
        sp.index_of(3)
    with pytest.raises(ValueError):
        SpinSpace(3).index_of(0.0)  # half-integer ladder has no m = 0


def test_dicke_state_examples():
    np.testing.assert_allclose(dicke_state(SpinSpace(1), 0.5).amplitudes, [1, 0])
    np.testing.assert_allclose(dicke_state(SpinSpace(2), -1).amplitudes, [0, 0, 1])


@pytest.mark.parametrize("two_j", range(1, 11))
def test_dicke_orthonormal(two_j):
    sp = SpinSpace(two_j)
    ms = sp.m_values()
    for ma in ms:
        for mb in ms:
            ov = inner(dicke_state(sp, ma), dicke_state(sp, mb))
            assert ov == pytest.approx(1.0 if ma == mb else 0.0, abs=1e-15)


def test_superpose_examples():
    sp = SpinSpace(4)
    ghz = superpose_dicke(sp, [(2, 1.0), (-2, 1.0)])
    np.testing.assert_allclose(ghz.amplitudes,
                               [1 / np.sqrt(2), 0, 0, 0, 1 / np.sqrt(2)])
    mid = superpose_dicke(sp, [(0, 1.0), (-2, 1.0)])
    assert mid.amplitudes[2] == pytest.approx(1 / np.sqrt(2))
    assert mid.amplitudes[4] == pytest.approx(1 / np.sqrt(2))
    single = superpose_dicke(sp, [(1, 7j)])
    assert single.amplitudes[1] == pytest.approx(1j)
    with pytest.raises(ValueError):
        superpose_dicke(sp, [(1, 1.0), (1, -1.0)])


def _plain_superposition(sp, terms):
    """The normalization as it was before overflowing norms were rescaled."""
    amps = np.zeros(sp.dim, dtype=complex)
    with np.errstate(over="ignore"):
        for m, coeff in terms:
            amps[sp.index_of(m)] += coeff
        return amps / np.linalg.norm(amps)


@pytest.mark.parametrize("terms", [
    [(5, 1.0), (-5, 1.0)],
    [(0, 1.0 + 0.1), (-5, 1.0 - 0.1), (0, 1e-3j)],
    [(5, 3e153), (-5, -1e153j)],  # below the pre-check bound
    [(5, 4e153), (-5, 4e153)],  # above it: the plain norm 5.7e153 is still finite
    [(5, 1e-150), (4, 3e-150)],
    [(5, 2e-154), (4, 1e-170j)],  # a norm just above 2^-511: its square is normal
], ids=["equal", "repeated_level", "below_bound", "above_bound_finite_norm", "tiny",
        "tiny_normal_square"])
def test_a_superposition_with_a_finite_norm_keeps_its_bits(terms):
    sp = SpinSpace(10)
    assert (superpose_dicke(sp, terms).amplitudes.tobytes()
            == _plain_superposition(sp, terms).tobytes())


def test_a_superposition_whose_norm_overflows_is_rescaled():
    # it printed NumPy's `overflow encountered in dot` and then called the
    # finite coefficients not finite; warnings are errors here
    sp = SpinSpace(10)
    psi = superpose_dicke(sp, [(5.0, 1e300), (-5.0, -1e300)])
    assert psi.amplitudes[0] == -psi.amplitudes[-1] == 1 / np.sqrt(2)
    assert not np.any(psi.amplitudes[1:-1])
    # two terms at one level whose sum overflows, and complex parts
    psi = superpose_dicke(sp, [(5.0, 1e308), (5.0, 1e308), (0.0, 1.0)])
    assert psi.amplitudes[0] == 1.0 and psi.amplitudes[5] == 0.5e-308
    psi = superpose_dicke(sp, [(0.0, complex(1e308, -1e308))])
    assert psi.amplitudes[5] == complex(1.0, -1.0) / np.sqrt(2)


@pytest.mark.parametrize("coeff", [1e-170, 1e-160, 5e-324, -3e-320j])
def test_a_superposition_whose_squared_norm_underflows_is_rescaled(coeff):
    # 1e-170 squared is 0.0 ("sums to the zero vector"); 1e-160 squared is
    # subnormal and missed the norm check by 5.6e-6; 5e-324 is subnormal
    psi = superpose_dicke(SpinSpace(4), [(0, coeff)])
    assert psi.amplitudes.tobytes() == superpose_dicke(SpinSpace(4), [(0, coeff / abs(coeff))]) \
        .amplitudes.tobytes()


def test_an_underflowing_superposition_is_that_of_its_coefficients_scaled_up():
    # a power-of-two scale is exact, so the state is that of the same
    # coefficients brought into the normal range by hand
    sp = SpinSpace(10)
    terms = [(5, 1e-170), (-3, -3e-171j), (0, 2e-172 + 7e-171j), (5, 4e-172)]
    up = [(m, coeff * 2.0**600) for m, coeff in terms]
    assert superpose_dicke(sp, terms).amplitudes.tobytes() == \
        _plain_superposition(sp, up).tobytes()
    subnormal = [(5, 3e-320), (-5, 1e-321j)]
    up = [(m, coeff * 2.0**1000 * 2.0**60) for m, coeff in subnormal]
    psi = superpose_dicke(sp, subnormal)
    assert psi.amplitudes.tobytes() == _plain_superposition(sp, up).tobytes()
    assert abs(psi.norm() - 1.0) < 1e-15
    with pytest.raises(ValueError, match="sum to the zero vector"):
        superpose_dicke(sp, [(1, 1e-170), (1, -1e-170)])


@pytest.mark.parametrize("coeff", [np.inf, -np.inf, np.nan, complex(0.0, np.inf),
                                   complex(np.nan, 0.0)])
def test_a_non_finite_coefficient_is_named(coeff):
    with pytest.raises(ValueError, match="superposition coefficients must be finite"):
        superpose_dicke(SpinSpace(4), [(0, 1.0), (2, coeff)])


def test_jz_action():
    for two_j in range(1, 11):
        sp = SpinSpace(two_j)
        jz = collective_op(sp, "jz")
        for m in sp.m_values():
            st = dicke_state(sp, m)
            np.testing.assert_allclose(jz.dense() @ st.amplitudes,
                                       m * st.amplitudes, atol=1e-14)


def test_nonlinear_eigenvalues():
    sp = SpinSpace(6)  # j = 3
    a = nonlinear_observable(sp)
    d = np.diag(a.dense()).real
    assert d[sp.index_of(0)] == pytest.approx(12.0)
    assert d[sp.index_of(3)] == pytest.approx(3.0)
    assert d[sp.index_of(-3)] == pytest.approx(3.0)


@pytest.mark.parametrize("two_j", range(1, 11))
def test_ladder_identities(two_j):
    # oracles: direct matrix arithmetic for the angular-momentum algebra
    sp = SpinSpace(two_j)
    jp = collective_op(sp, "jplus").entries
    jm = collective_op(sp, "jminus").entries
    jz = collective_op(sp, "jz").dense()
    j2 = collective_op(sp, "j2").dense()
    assert np.max(np.abs(jp.conj().T - jm)) < 1e-12
    assert np.max(np.abs(jp @ jm - jm @ jp - 2 * jz)) < 1e-10
    assert np.max(np.abs(jm @ jp + jz @ jz + jz - j2)) < 1e-10


@pytest.mark.parametrize("two_j", range(2, 41, 2))
def test_nonlinear_spectrum_bounds(two_j):
    sp = SpinSpace(two_j)
    j = sp.j
    d = np.diag(nonlinear_observable(sp).dense()).real
    assert d.min() == pytest.approx(j)
    assert d.max() == pytest.approx(j * (j + 1))
    assert d[sp.index_of(j)] == pytest.approx(j)
    assert d[sp.index_of(-j)] == pytest.approx(j)
    assert d[sp.index_of(0)] == pytest.approx(j * (j + 1))


@pytest.mark.parametrize("j", range(1, 21))
def test_variance_identities(j):
    sp = SpinSpace(2 * j)
    ghz = superpose_dicke(sp, [(j, 1.0), (-j, 1.0)])
    jz = collective_op(sp, "jz")
    assert variance(jz, ghz) == pytest.approx(j**2, abs=1e-9)
    mid = superpose_dicke(sp, [(0, 1.0), (-j, 1.0)])
    assert variance(nonlinear_observable(sp), mid) == pytest.approx(j**4 / 4, rel=1e-12)


def test_variance_eigenstate_zero():
    sp = SpinSpace(8)
    st = dicke_state(sp, 1)
    assert variance(collective_op(sp, "jz"), st) == 0.0


def test_variance_grid_search_max():
    # grid over weight/phase in span{|j,0>, |j,-j>}: max Var = j^4/4 at equal weight
    sp = SpinSpace(8)
    j = sp.j
    a = nonlinear_observable(sp)
    best = 0.0
    for w in np.linspace(0.02, 0.98, 49):
        for phi in np.linspace(0, 2 * np.pi, 16, endpoint=False):
            amps = np.zeros(sp.dim, dtype=complex)
            amps[sp.index_of(0)] = np.sqrt(w)
            amps[sp.index_of(-j)] = np.sqrt(1 - w) * np.exp(1j * phi)
            best = max(best, variance(a, StateVector(sp.dim, amps)))
    assert best <= j**4 / 4 + 1e-8
    assert best == pytest.approx(j**4 / 4, abs=1e-8)
