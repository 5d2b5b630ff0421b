"""Diagonal operators are stored as their diagonal. Every diagonal operator
the package builds is checked here against the dense matrix of the same
operator: `dense()` and `np.diag` are the oracles."""

import dataclasses

import numpy as np
import pytest

from wva_lab.boson import FockSpace, op_number
from wva_lab.dynamics import TwoPhotonTCParams, conserved_charge
from wva_lab.experiments import FAMILIES
from wva_lab.linalg import Operator, StateVector, apply, expectation
from wva_lab.spin import SpinSpace, collective_op, variance
from wva_lab.wva import evolved_joint

from conftest import FAMILY_PARAMETERS, random_hermitian, random_state
from dense_operator_oracle import expm_i, tensor

TOL = 1e-13


def _dynamics_params(two_j, cutoff):
    return TwoPhotonTCParams(two_j=two_j, g0=0.01, delta_minus=0.2,
                             fock_cutoff=cutoff, t_final=1.0, dt=0.1)


#: name -> builder of every diagonal operator the package constructs, and
#: the identity (a kick that leaves the system alone).
DIAGONAL_OPERATORS = {
    "jz_odd": lambda: collective_op(SpinSpace(7), "jz"),
    "jz": lambda: collective_op(SpinSpace(12), "jz"),
    "j2": lambda: collective_op(SpinSpace(12), "j2"),
    "nonlinear": lambda: collective_op(SpinSpace(12), "nonlinear"),
    "op_number": lambda: op_number(FockSpace(9)),
    "conserved_charge": lambda: conserved_charge(_dynamics_params(4, 5)),
    "identity": lambda: Operator.from_diagonal(np.ones(11)),
}


@pytest.fixture(params=sorted(DIAGONAL_OPERATORS))
def diag_op(request):
    return DIAGONAL_OPERATORS[request.param]()


def _dense_twin(op):
    return Operator(op.dim, op.dense(), hermitian=op.hermitian)


def _close(got, want, scale=None):
    if scale is None:
        scale = max(np.max(np.abs(want), initial=0.0), 1.0)
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL * scale)


def test_stores_the_diagonal_only(diag_op):
    assert diag_op.diagonal and diag_op.hermitian
    assert diag_op.entries.shape == (diag_op.dim,)
    dense = diag_op.dense()
    assert dense.shape == (diag_op.dim, diag_op.dim)
    np.testing.assert_array_equal(dense, np.diag(diag_op.entries))
    for frozen in (diag_op.entries, dense):
        with pytest.raises(ValueError):
            frozen[0] = 2.0


def test_apply_expectation_variance_match_dense(diag_op, rng):
    twin = _dense_twin(diag_op)
    for _ in range(3):
        psi = random_state(rng, diag_op.dim)
        _close(apply(diag_op, psi).amplitudes, diag_op.dense() @ psi.amplitudes)
        _close(expectation(diag_op, psi), np.vdot(psi.amplitudes, twin.entries @ psi.amplitudes))
        # <A^2> - <A>^2 cancels on the scale of max |a|^2
        _close(variance(diag_op, psi), variance(twin, psi),
               scale=np.max(np.abs(diag_op.entries)) ** 2)


def test_expm_i_matches_dense(diag_op):
    for s in (0.0, 0.37, -2.1):
        u = expm_i(diag_op, s)
        assert u.diagonal and u.entries.shape == (diag_op.dim,)
        _close(u.dense(), np.diag(np.exp(-1j * s * np.diag(diag_op.dense()).real)))
        _close(u.dense(), expm_i(_dense_twin(diag_op), s).entries)


def test_tensor_matches_dense_kron(diag_op, rng):
    other_diag = op_number(FockSpace(3))
    other_dense = random_hermitian(rng, 3)
    both = tensor(diag_op, other_diag)
    assert both.diagonal and both.entries.shape == (both.dim,)
    _close(both.dense(), np.kron(diag_op.dense(), other_diag.dense()))
    # dense (x) diagonal, in either order, is dense
    for a, b in ((diag_op, other_dense), (other_dense, diag_op)):
        mixed = tensor(a, b)
        assert not mixed.diagonal and mixed.hermitian
        _close(mixed.entries, np.kron(a.dense(), b.dense()))


def test_diagonal_form_is_enforced():
    with pytest.raises(ValueError, match="shape"):
        Operator(2, np.eye(2), hermitian=True, diagonal=True)
    with pytest.raises(ValueError, match="hermitian"):
        Operator(2, np.array([1.0, 1e-9j]), hermitian=True, diagonal=True)
    assert not Operator.from_diagonal([1.0, 1e-9j]).hermitian


@pytest.mark.parametrize("kind", ["jz", "j2", "nonlinear", "identity"])
def test_evolved_joint_matches_dense_propagator(kind):
    # oracle: exp(-i g A (x) B) assembled as a dense matrix and applied to
    # psi_i (x) phi_i, with A each diagonal spin operator and B = n
    base = FAMILIES["nonlinear_joint"].build(8, 1e-3, g=3e-3, eta=0.4)
    space = base.system_space
    A = Operator.from_diagonal(np.ones(space.dim)) if kind == "identity" \
        else collective_op(space, kind)
    strat = dataclasses.replace(base, A=A)
    joint = StateVector.unnormalized(np.kron(strat.psi_i.amplitudes, strat.phi_i.amplitudes))
    generator = np.kron(A.dense(), strat.B.dense()).real
    evals, evecs = np.linalg.eigh(generator)
    oracle = (evecs * np.exp(-1j * strat.g * evals)) @ (evecs.conj().T @ joint.amplitudes)
    _close(evolved_joint(strat).amplitudes, oracle)


# ------------------------------------------- the kick on psi_i's support


def _full_outer_kick(strat):
    """The kick as the full (dim_s, dim_m) outer product, phased everywhere:
    the oracle for `evolved_joint`, which phases only psi_i's support."""
    a_diag = strat.A.entries.real
    b_diag = strat.B.entries.real
    block = np.outer(strat.psi_i.amplitudes, strat.phi_i.amplitudes)
    return block * np.exp(-1j * strat.g * np.outer(a_diag, b_diag))


def _assert_kick_on_support(strat):
    dim_s, dim_m = strat.system_space.dim, strat.meter_space.dim
    got = evolved_joint(strat).amplitudes.reshape(dim_s, dim_m)
    want = _full_outer_kick(strat)
    support = strat.psi_i.amplitudes != 0
    assert got[support].tobytes() == want[support].tobytes()
    # off the support both are zeros; the outer product may hold a -0.0 there,
    # and a signed zero never changes a nonzero sum
    assert np.array_equal(got[~support], np.zeros_like(got[~support]))
    assert np.array_equal(want[~support], got[~support])


_SUPPORT_CASES = [(name, two_j) for name in sorted(FAMILIES) if FAMILIES[name].levels is not None
                  for two_j in range(2, 13)
                  if not (FAMILIES[name].integer_j and two_j % 2)]


@pytest.mark.parametrize("name, two_j", _SUPPORT_CASES)
def test_evolved_joint_phases_psi_i_support_bit_for_bit(name, two_j):
    strat = FAMILIES[name].build(two_j, FAMILY_PARAMETERS[name], g=3e-3, eta=0.4)
    assert np.count_nonzero(strat.psi_i.amplitudes) == 2
    _assert_kick_on_support(strat)


def test_evolved_joint_support_near_deterministic_two_j_600():
    _assert_kick_on_support(FAMILIES["near_deterministic"].build(600, 0.01, g=1e-6))


def test_evolved_joint_support_scattered_zeros_and_large_phases(rng):
    # a random psi_i with exact zeros scattered over the register, and g large
    # enough that part of the phases g a b lie where cos < 0
    base = FAMILIES["nonlinear_joint"].build(12, 1e-3, eta=0.4)
    raw = random_state(rng, base.system_space.dim).amplitudes.copy()
    raw[[0, 3, 4, 8, 12]] = 0.0
    psi_i = StateVector.of(raw)
    rows = np.flatnonzero(psi_i.amplitudes)
    assert 0 < len(rows) < base.system_space.dim
    large = dataclasses.replace(base, psi_i=psi_i, g=0.7)
    assert np.any(np.cos(large.g * np.outer(large.A.entries.real[rows], large.B.entries.real)) < 0)
    for strat in (dataclasses.replace(base, psi_i=psi_i, g=3e-3), large):
        _assert_kick_on_support(strat)
