import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wva_lab.linalg import (
    NullPostselectionError,
    Operator,
    StateVector,
    apply,
    expectation,
    fidelity,
    inner,
    project_left,
)

from conftest import random_hermitian, random_state
from dense_operator_oracle import expm_i, tensor


def test_statevector_norm_enforced():
    for amps in ([1.0, 1.0], [np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(dim=2, amplitudes=np.array(amps))
    sv = StateVector.unnormalized([1.0, 1.0])
    assert not sv.normalized
    assert sv.norm() == pytest.approx(np.sqrt(2))


def test_statevector_of_preserves_phase():
    sv = StateVector.of([7j, 0.0])
    assert sv.amplitudes[0] == pytest.approx(1j)


def test_values_are_immutable():
    sv = StateVector.basis(3, 0)
    with pytest.raises(ValueError):
        sv.amplitudes[1] = 1.0
    op = Operator.from_diagonal(np.ones(2))
    with pytest.raises(ValueError):
        op.dense()[0, 1] = 1.0


def test_operator_hermiticity_checked():
    with pytest.raises(ValueError, match="hermitian"):
        Operator(2, np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)


# the dense oracles the kick and the Fisher information are checked against


def test_tensor_identity_case():
    t = tensor(Operator.from_diagonal(np.ones(2)), Operator.from_diagonal(np.ones(3)))
    assert t.dim == 6
    np.testing.assert_allclose(t.dense(), np.eye(6))
    assert t.diagonal and t.hermitian


def test_tensor_basis_bookkeeping():
    e0 = StateVector.basis(2, 0)
    e1 = StateVector.basis(2, 1)
    t = tensor(e0, e1)
    assert t.dim == 4
    np.testing.assert_allclose(t.amplitudes, [0, 1, 0, 0])


def test_tensor_expectation_factorizes(rng):
    # oracle: dense evaluation of <u(x)v| A(x)B |u(x)v> vs <u|A|u><v|B|v>
    for _ in range(20):
        u, v = random_state(rng, 3), random_state(rng, 3)
        A, B = random_hermitian(rng, 3), random_hermitian(rng, 3)
        joint = expectation(tensor(A, B), tensor(u, v))
        split = expectation(A, u) * expectation(B, v)
        assert joint == pytest.approx(split, abs=1e-10)


def test_tensor_bilinear(rng):
    u, v, w = random_state(rng, 2), random_state(rng, 3), random_state(rng, 3)
    lhs = tensor(u, StateVector.unnormalized(2.5j * v.amplitudes + w.amplitudes))
    rhs = (2.5j * tensor(u, v).amplitudes + tensor(u, w).amplitudes)
    np.testing.assert_allclose(lhs.amplitudes, rhs, atol=1e-12)


def test_tensor_associative(rng):
    a, b, c = (random_hermitian(rng, d) for d in (2, 3, 2))
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    np.testing.assert_allclose(left.entries, right.entries, atol=1e-12)


def test_tensor_dimension_cap():
    big = StateVector.basis(2**12, 0)
    with pytest.raises(ValueError, match="exceeds"):
        tensor(big, big, max_dim=2**22)


def test_expm_zero_is_identity(rng):
    op = random_hermitian(rng, 4)
    np.testing.assert_allclose(expm_i(op, 0.0).entries, np.eye(4), atol=1e-14)


def test_expm_diagonal_phases():
    u = expm_i(Operator.from_diagonal([0.0, 1.0]), np.pi)
    np.testing.assert_allclose(np.diag(u.dense()), [1.0, -1.0], atol=1e-12)
    assert u.diagonal


def test_expm_unitary(rng):
    op = random_hermitian(rng, 16)
    u = expm_i(op, 0.731).entries
    assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-10


def test_expm_diagonal_and_dense_paths_agree(rng):
    d = rng.normal(size=9)
    fast = expm_i(Operator.from_diagonal(d), 1.37)
    slow = expm_i(Operator(9, np.diag(d).astype(complex), hermitian=True), 1.37)
    assert fast.diagonal and not slow.diagonal
    np.testing.assert_allclose(fast.dense(), slow.entries, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(-3, 3), st.floats(-3, 3))
def test_expm_additive(seed, s, t):
    rng = np.random.default_rng(seed)
    op = random_hermitian(rng, rng.integers(2, 17))
    lhs = expm_i(op, s).entries @ expm_i(op, t).entries
    rhs = expm_i(op, s + t).entries
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_project_left_factorizes(rng):
    # partial projection of a product state leaves the other factor intact
    for dl, dr in [(2, 3), (4, 4), (3, 5)]:
        u, v = random_state(rng, dl), random_state(rng, dr)
        d = random_state(rng, dl)
        joint = tensor(u, v)
        res = project_left(joint, d, dr)
        assert res.probability == pytest.approx(abs(inner(d, u)) ** 2, abs=1e-10)
        assert fidelity(res.collapsed, v) == pytest.approx(1.0, abs=1e-10)


def test_project_left_null():
    joint = tensor(StateVector.basis(2, 0), StateVector.basis(3, 1))
    with pytest.raises(NullPostselectionError):
        project_left(joint, StateVector.basis(2, 1), 3)


def test_apply_and_expectation_diagonal_path(rng):
    op = Operator.from_diagonal([1.0, 2.0, 3.0])
    sv = random_state(rng, 3)
    dense = Operator(3, op.dense(), hermitian=True)
    assert expectation(op, sv) == pytest.approx(expectation(dense, sv))
    np.testing.assert_allclose(apply(op, sv).amplitudes, op.dense() @ sv.amplitudes)


def test_a_constructor_copies_what_it_cannot_adopt():
    amps = np.array([0.6, 0.8j])
    # a writable array is copied, and stays writable for its owner
    sv = StateVector(2, amps)
    assert not np.shares_memory(sv.amplitudes, amps) and amps.flags.writeable
    # a read-only view of writable memory is copied: the base can still change
    base = np.array([0.6, 0.8j, 0.0])
    view = base[:2]
    view.setflags(write=False)
    assert not np.shares_memory(StateVector(2, view).amplitudes, base)
    # so is a read-only array of another dtype
    real = np.array([1.0, 0.0])
    real.setflags(write=False)
    assert StateVector(2, real).amplitudes is not real
    # a read-only owner, or a read-only view of one, is shared
    amps.setflags(write=False)
    assert StateVector(2, amps).amplitudes is amps
    assert Operator(2, amps, diagonal=True).entries is amps
    base.setflags(write=False)
    assert StateVector(2, base[:2]).amplitudes.base is base


def test_norm_has_the_bits_of_np_linalg_norm(rng):
    for dim in (1, 2, 7, 401):
        for sv in (random_state(rng, dim), StateVector.unnormalized(rng.normal(size=dim))):
            assert sv.norm().hex() == float(np.linalg.norm(sv.amplitudes)).hex()
