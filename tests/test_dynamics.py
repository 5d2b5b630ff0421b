import dataclasses
import tracemalloc
from math import isqrt

import numpy as np
import pytest

from wva_lab import dynamics
from wva_lab.boson import FockSpace, coherent_state, op_annihilate
from wva_lab.dynamics import (
    EvolutionTrace,
    TwoPhotonTCParams,
    _frame_propagator,
    charge_drift,
    conservation_residual,
    conserved_charge,
    effective_generator_diag,
    effective_model_fidelity,
)
from wva_lab.families import FAMILIES
from wva_lab.linalg import Operator, StateVector, fidelity
from wva_lab.spin import SpinSpace, collective_op, dicke_state, nonlinear_observable
from wva_lab.boson import op_number

from conftest import random_state, spy_everywhere
from chunked_scan_oracle import (
    chunked_fidelities,
    loop_charge_drift,
    statevector_effective_states,
    statevector_full_states,
)
from all_block_frame_oracle import all_block_frame
from dense_frame_oracle import dense_evolve, dense_fidelities, hamiltonian_full
from dense_operator_oracle import expm_i, tensor
from rk4_oracle import rk4_derivative, rk4_evolve


def make_params(**kw):
    base = dict(two_j=2, g0=0.02, delta_minus=1.0, fock_cutoff=4,
                t_final=10.0, dt=0.02)
    base.update(kw)
    return TwoPhotonTCParams(**base)


def joint_state(params, m, meter_amps):
    space = SpinSpace(params.two_j)
    sys0 = dicke_state(space, m)
    meter = np.asarray(meter_amps, dtype=complex)
    meter = meter / np.linalg.norm(meter)
    return StateVector(space.dim * (params.fock_cutoff + 1),
                       np.kron(sys0.amplitudes, meter))


def trace_of(params, psi0, store_every=1, commutator=False):
    """The trace of both models, stored every `store_every` grid points."""
    return effective_model_fidelity(params, psi0, store_every=store_every,
                                    include_commutator_terms=commutator)[1]


def basis_meter(params, n):
    amps = np.zeros(params.fock_cutoff + 1)
    amps[n] = 1.0
    return amps


# ---------------------------------------------------------------- validation


def test_params_validation():
    with pytest.raises(ValueError, match="g0/delta"):
        make_params(g0=0.6)
    with pytest.raises(ValueError, match="dt too coarse"):
        make_params(dt=0.2)
    with pytest.raises(ValueError, match="nonzero"):
        make_params(delta_minus=0.0)
    for name in ("g0", "delta_minus", "t_final", "dt"):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                make_params(**{name: bad})
    # t_final / dt = inf used to reach int() in `time_grid` as an OverflowError
    with pytest.raises(ValueError, match="no finite step count"):
        make_params(t_final=1e300, dt=1e-10)
    # |g0/d| = 0.1 and a finite step count: this used to construct, and
    # `.g_dispersive` then died with an OverflowError in g0**2
    with pytest.raises(ValueError, match="g_dispersive = 4 g0\\^2 / delta_minus overflows"):
        make_params(g0=1e200, delta_minus=1e201, t_final=1.0, dt=1e-203)
    assert dynamics.dispersive_coupling(1e200, -1e201) == -np.inf
    assert make_params().g_dispersive == pytest.approx(4 * 0.02**2)
    assert make_params(g0=0.0).g_dispersive == 0.0


# --------------------------------------------------------------- hamiltonian


def test_hamiltonian_phase_one_slice():
    p = make_params()
    t = 2 * np.pi / p.delta_minus
    h = hamiltonian_full(p, t)
    sp = SpinSpace(p.two_j)
    meter = FockSpace(p.fock_cutoff)
    jp = collective_op(sp, "jplus").entries
    from wva_lab.boson import op_annihilate

    a2 = op_annihilate(meter).entries @ op_annihilate(meter).entries
    direct = p.g0 * (np.kron(jp, a2) + np.kron(jp, a2).conj().T)
    assert np.max(np.abs(h.entries - direct)) < 1e-10


def test_hamiltonian_hermitian_at_random_times(rng):
    p = make_params()
    for t in rng.uniform(0, 50, size=5):
        h = hamiltonian_full(p, float(t)).entries
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_hamiltonian_matrix_element_ladder():
    # oracle: <j,m+1; n-2|H|j,m; n> = g0 sqrt(j(j+1)-m(m+1)) sqrt(n(n-1)) e^{i d t}
    p = make_params(two_j=4)
    sp = SpinSpace(4)
    nm = p.fock_cutoff + 1
    t = 0.37
    h = hamiltonian_full(p, t).entries.reshape(sp.dim, nm, sp.dim, nm)
    j = 2.0
    for m in (-2, -1, 0, 1):
        for n in (2, 3, 4):
            el = h[sp.index_of(m + 1), n - 2, sp.index_of(m), n]
            expect = (p.g0 * np.sqrt(j * (j + 1) - m * (m + 1))
                      * np.sqrt(n * (n - 1)) * np.exp(1j * p.delta_minus * t))
            assert el == pytest.approx(expect, abs=1e-12)


def test_conserved_charge_commutes():
    p = make_params(two_j=4, fock_cutoff=6)
    assert conservation_residual(p) < 1e-10


def _dense_residual(p, t=0.237):
    h = hamiltonian_full(p, t).entries
    q = dynamics.conserved_charge(p).entries.real
    return float(np.max(np.abs(h * q[None, :] - q[:, None] * h)))


def test_conservation_residual_matches_the_dense_commutator(monkeypatch):
    p = make_params(two_j=5, fock_cutoff=7)
    assert conservation_residual(p) == _dense_residual(p) == 0.0
    # J+ a^2 moves 2Jz + 2n by -2, so the sparse form must see it too
    m = SpinSpace(p.two_j).m_values()
    wrong = Operator.from_diagonal((2.0 * m[:, None] + 2.0 * np.arange(8)).ravel())
    monkeypatch.setattr(dynamics, "conserved_charge", lambda params: wrong)
    assert conservation_residual(p) == pytest.approx(_dense_residual(p), rel=1e-15)
    assert conservation_residual(p) > 0.0


def test_conservation_residual_builds_no_dense_hamiltonian():
    # the dense H(t) at two_j=64, cutoff 20 (dim 1365) alone is 30 MB, and
    # the old entrywise commutator peaked at 179 MB
    p = make_params(two_j=64, fock_cutoff=20)
    tracemalloc.start()
    try:
        assert conservation_residual(p) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


# ----------------------------------------------------------------- evolve


def test_zero_coupling_is_stationary():
    p = make_params(g0=0.0, t_final=5.0)
    psi0 = joint_state(p, 0, basis_meter(p, 2))
    trace = trace_of(p, psi0)
    assert fidelity(StateVector.of(trace.full_states[-1]), psi0) \
        == pytest.approx(1.0, abs=1e-12)


def test_rk4_self_convergence_fourth_order():
    p1 = make_params(g0=0.05, t_final=10.0, dt=0.02)
    p2 = make_params(g0=0.05, t_final=10.0, dt=0.01)
    p3 = make_params(g0=0.05, t_final=10.0, dt=0.005)
    psi0 = joint_state(p1, 0, basis_meter(p1, 2))
    f1 = rk4_evolve(p1, psi0, store_every=10**9)[1][-1]
    f2 = rk4_evolve(p2, psi0, store_every=10**9)[1][-1]
    f3 = rk4_evolve(p3, psi0, store_every=10**9)[1][-1]
    d12 = np.linalg.norm(f1 - f2)
    d23 = np.linalg.norm(f2 - f3)
    assert d12 < 1e-8
    order = np.log2(d12 / d23)
    assert order == pytest.approx(4.0, abs=0.5)


def test_lowest_state_vacuum_exactly_stationary():
    # both ladder terms annihilate |j,-j> (x) |0>: no dynamics at all
    p = make_params(two_j=2, t_final=6.0)
    psi0 = joint_state(p, -1, basis_meter(p, 0))
    trace = trace_of(p, psi0)
    final = trace.full_states[-1]
    assert np.max(np.abs(final - psi0.amplitudes)) < 1e-12


def test_highest_state_vacuum_leakage_matches_perturbation():
    # |j,j> (x) |0> couples only down; first-order amplitude (V/delta)(1-e^{idt})
    # caps the population at 4 V^2/delta^2 with V = g0 sqrt(2j) sqrt(2)
    p = make_params(two_j=2, g0=0.02, t_final=40.0, fock_cutoff=4)
    psi0 = joint_state(p, 1, basis_meter(p, 0))
    trace = trace_of(p, psi0)
    pops = [1.0 - abs(np.vdot(psi0.amplitudes, s)) ** 2
            for s in trace.full_states]
    max_leak = max(pops)
    v = p.g0 * np.sqrt(2.0) * np.sqrt(2.0)
    estimate = 4 * v**2 / p.delta_minus**2
    assert estimate / 2 < max_leak < estimate * 2


def test_full_evolution_matches_two_level_closed_form():
    # oracle: at j = 1/2 the pair {|up,0>, |down,2>} is an exactly closed
    # two-level system; in the frame c_up = u e^{i d t/2}, c_down = w e^{-i d t/2}
    # the pair evolves under (d/2) sz + V sx with V = g0 sqrt(2), giving
    #   u(t) = cos(Wt/2) - i (d/W) sin(Wt/2),  w(t) = -i (2V/W) sin(Wt/2),
    # W = sqrt(d^2 + 4V^2). Checks populations AND phase conventions.
    p = TwoPhotonTCParams(two_j=1, g0=0.3, delta_minus=1.0, fock_cutoff=2,
                          t_final=9.0, dt=0.005)
    sp = SpinSpace(1)
    nm = 3
    up0 = np.kron(dicke_state(sp, 0.5).amplitudes, np.eye(nm)[0])
    dn2 = np.kron(dicke_state(sp, -0.5).amplitudes, np.eye(nm)[2])
    psi0 = StateVector(2 * nm, up0)
    trace = trace_of(p, psi0, store_every=100)
    v = p.g0 * np.sqrt(2.0)
    omega = np.sqrt(p.delta_minus**2 + 4 * v**2)
    for t, s in zip(trace.times, trace.full_states):
        c_up = np.vdot(up0, s)
        c_dn = np.vdot(dn2, s)
        u = np.cos(omega * t / 2) - 1j * (p.delta_minus / omega) * np.sin(omega * t / 2)
        w = -1j * (2 * v / omega) * np.sin(omega * t / 2)
        assert c_up == pytest.approx(u * np.exp(1j * p.delta_minus * t / 2), abs=1e-13)
        assert c_dn == pytest.approx(w * np.exp(-1j * p.delta_minus * t / 2), abs=1e-13)


@pytest.mark.parametrize("two_j, cutoff", [(2, 4), (6, 6)])
def test_exact_evolution_matches_rk4_oracle(two_j, cutoff):
    # short horizon, where RK4 at dt = 0.01 is accurate to ~1e-10
    p = make_params(two_j=two_j, g0=0.05, fock_cutoff=cutoff, t_final=10.0, dt=0.01)
    meter = np.sqrt([0.4, 0.3, 0.2, 0.1] + [0.0] * (cutoff - 3))
    psi0 = joint_state(p, 0, meter)
    times, states = rk4_evolve(p, psi0, store_every=50)
    trace = trace_of(p, psi0, store_every=50)
    np.testing.assert_allclose(trace.times, times, rtol=0, atol=1e-12)
    dist = max(np.linalg.norm(s - v) for s, v in zip(trace.full_states, states))
    assert dist <= 1e-8


#: (two_j, Fock cutoff) points where the per-charge-block solver is checked
#: against the dense one: odd and even registers, blocks limited by the spin
#: or by the cutoff.
BLOCK_ORACLE_POINTS = [(1, 5), (2, 6), (3, 7), (8, 8), (12, 20)]


def block_oracle_case(rng, two_j, cutoff):
    # strong mixing (g0/d = 0.2) and a psi0 with no zero amplitude, so every
    # same-block pair enters the fidelity scan
    p = make_params(two_j=two_j, g0=0.2, fock_cutoff=cutoff, t_final=20.0, dt=0.05)
    psi0 = random_state(rng, p.joint_dim)
    assert np.all(psi0.amplitudes != 0)
    return p, psi0


@pytest.mark.parametrize("commutator", [False, True])
@pytest.mark.parametrize("two_j, cutoff", BLOCK_ORACLE_POINTS)
def test_block_solver_matches_dense_oracle(rng, two_j, cutoff, commutator):
    p, psi0 = block_oracle_case(rng, two_j, cutoff)
    min_fid, trace = effective_model_fidelity(p, psi0, store_every=1,
                                              include_commutator_terms=commutator)
    _, states = dense_evolve(p, psi0)
    fids = dense_fidelities(p, psi0, commutator)
    assert np.max(np.abs(trace.full_states - states)) <= 1e-12
    assert np.max(np.abs(trace.fidelities - fids)) <= 1e-12
    assert abs(min_fid - np.min(fids)) <= 1e-12


@pytest.mark.parametrize("two_j, cutoff", BLOCK_ORACLE_POINTS)
def test_eigenvectors_live_on_one_charge_block(rng, two_j, cutoff):
    p, psi0 = block_oracle_case(rng, two_j, cutoff)
    charge = conserved_charge(p).entries.real
    _, blocks = _frame_propagator(p, psi0)
    evecs = np.zeros((p.joint_dim, p.joint_dim), dtype=complex)
    for idx, _, vecs, _ in blocks:
        evecs[idx[:, :, None], idx[:, None, :]] = vecs
    np.testing.assert_allclose(evecs.conj().T @ evecs, np.eye(p.joint_dim), atol=1e-13)
    for vec in evecs.T:
        assert np.ptp(charge[vec != 0]) == 0


def test_charge_drift_at_roundoff_on_a_large_register(rng):
    # the dense eigh leaks charge at ~2e-14 here; block eigenvectors cannot
    p, psi0 = block_oracle_case(rng, 12, 20)
    trace = trace_of(p, psi0, store_every=10)
    assert charge_drift(p, trace) <= 1e-14


def test_fidelity_scan_allocates_no_joint_matrix():
    # two_j=64, cutoff 20 (dim 1365): one dim x dim complex matrix is 30 MB,
    # while the per-block eigenbasis and the pair scan stay near 1 MB
    p = make_params(two_j=64, fock_cutoff=20, t_final=50.0, dt=0.05)
    meter = coherent_state(FockSpace(20, tail_tolerance=1e-6), 0.25)
    psi0 = joint_state(p, 0, meter.amplitudes)
    tracemalloc.start()
    try:
        effective_model_fidelity(p, psi0, store_every=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def readme_case():
    """The README `dynamics` example (78,541 grid points), as the CLI builds it."""
    p = make_params(two_j=2, g0=0.02, fock_cutoff=6,
                    t_final=2 * np.pi / (4 * 0.02**2), dt=0.05)
    meter = coherent_state(FockSpace(6, tail_tolerance=1e-6), 0.25)
    return p, joint_state(p, 0, meter.amplitudes)


def test_readme_fidelity_scan_stays_within_its_blocks():
    # one phase table over all 78,541 points and 17 pairs would be 21 MB;
    # the split tables and output blocks hold at most CHUNK_ELEMENTS each,
    # so the peak is the fidelity row itself plus the stored trace. The
    # first call in a process also allocates about 1 MB of lazy set-up
    p, psi0 = readme_case()
    effective_model_fidelity(p, psi0, store_every=200)
    tracemalloc.start()
    try:
        effective_model_fidelity(p, psi0, store_every=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


@pytest.mark.parametrize("cap", [2**6, 2**10, 2**13])
def test_the_scan_cap_bounds_its_tables_not_its_split(monkeypatch, cap):
    # the README grid splits at C = ceil(sqrt(78,541)) = 281 into R = 280
    # coarse rows whatever the cap; below F C = 17 x 281 the pairs run in
    # groups, each table holds at most max(cap, C) entries, and the summed
    # groups agree with the one-group scan
    p, psi0 = readme_case()
    nsteps, dt, _ = dynamics.time_grid(p)
    gen = effective_generator_diag(p)
    weights, freqs = dynamics._pair_terms(psi0, _frame_propagator(p, psi0), gen)
    one_group = dynamics._fidelity_scan(weights, freqs, nsteps, dt)
    shapes = []
    real_table = dynamics._phase_table

    def spy(*args):
        table = real_table(*args)
        shapes.append(table.shape)
        return table

    monkeypatch.setattr(dynamics, "CHUNK_ELEMENTS", cap)
    monkeypatch.setattr(dynamics, "_phase_table", spy)
    fids = dynamics._fidelity_scan(weights, freqs, nsteps, dt)
    assert {rows for rows, _ in shapes} == {281, 280}
    assert sum(pairs for _, pairs in shapes) == 2 * freqs.size
    assert all(rows * pairs <= max(cap, 281) for rows, pairs in shapes)
    assert np.max(np.abs(fids - one_group)) <= 1e-14


def scan_case(name, rng):
    if name == "readme":
        return readme_case()
    if name == "two_j=8":
        ratio = 0.05
        p = make_params(two_j=8, g0=ratio, fock_cutoff=8,
                        t_final=0.25 * 2 * np.pi / (4 * ratio**2), dt=0.02)
        meter = coherent_state(FockSpace(8, tail_tolerance=1e-6), 0.25)
        return p, joint_state(p, 0, meter.amplitudes)
    if name == "ragged":
        p = make_params(t_final=2.0)
        return p, joint_state(p, 0, [0.6, 0.5, 0.4, 0.3, 0.2])
    if name == "one-step":
        p = make_params(t_final=0.02)
        return p, joint_state(p, 0, [0.6, 0.5, 0.4, 0.3, 0.2])
    return block_oracle_case(rng, 12, 20)  # every pair of a random psi0


@pytest.mark.parametrize("commutator", [False, True])
@pytest.mark.parametrize("name", ["readme", "two_j=8", "ragged", "one-step", "random-large"])
def test_split_scan_matches_the_chunked_oracle(rng, name, commutator):
    p, psi0 = scan_case(name, rng)
    nsteps, dt, _ = dynamics.time_grid(p)
    frame = _frame_propagator(p, psi0)
    gen = dynamics.effective_generator_diag(p, commutator)
    weights, freqs = dynamics._pair_terms(psi0, frame, gen)
    cols = isqrt(nsteps) + 1  # ceil(sqrt(nsteps + 1)), the split
    if name == "ragged":
        assert (nsteps + 1) % cols != 0
    if name == "one-step":
        assert nsteps == 1
    if name == "random-large":  # the pairs run in groups
        assert freqs.size * cols > dynamics.CHUNK_ELEMENTS
    fids = dynamics._fidelity_scan(weights, freqs, nsteps, dt)
    oracle = chunked_fidelities(weights, freqs, nsteps, dt)
    assert fids.shape == oracle.shape == (nsteps + 1,)
    assert np.max(np.abs(fids - oracle)) <= 1e-14
    min_fid, trace = effective_model_fidelity(p, psi0, store_every=97,
                                              include_commutator_terms=commutator)
    assert min_fid == np.min(fids)
    assert trace.fidelities.tobytes() == fids[dynamics.time_grid(p, 97)[2]].tobytes()


@pytest.mark.parametrize("commutator", [False, True])
@pytest.mark.parametrize("name", ["readme", "two_j=8", "random-large"])
def test_trace_arrays_equal_the_old_statevectors(rng, name, commutator):
    p, psi0 = scan_case(name, rng)
    store_every = 200 if name == "readme" else 7
    _, trace = effective_model_fidelity(p, psi0, store_every=store_every,
                                        include_commutator_terms=commutator)
    # the old path solved every charge block; on a block psi0 does not
    # touch it wrote +-0.0, where the restricted frame leaves exact zeros
    states, drift = statevector_full_states(all_block_frame(p, psi0), trace.times)
    old_eff = statevector_effective_states(p, psi0, store_every, commutator)
    assert trace.full_states.shape == trace.effective_states.shape == (len(states), p.joint_dim)
    assert not trace.full_states.flags.writeable and not trace.effective_states.flags.writeable
    old_full = np.array([s.amplitudes for s in states])
    live = live_indices(p, psi0)
    assert trace.full_states[:, live].tobytes() == old_full[:, live].tobytes()
    assert np.array_equal(trace.full_states, old_full)
    assert trace.effective_states.tobytes() == \
        np.array([s.amplitudes for s in old_eff]).tobytes()
    assert trace.max_norm_drift == drift
    assert charge_drift(p, trace) == loop_charge_drift(conserved_charge(p).entries.real, states)


def live_indices(p, psi0):
    """The joint indices whose charge 2Jz + n psi0 touches, read from
    `conserved_charge` rather than from the solver's blocks."""
    charge = conserved_charge(p).entries.real
    return np.flatnonzero(np.isin(charge, charge[psi0.amplitudes != 0]))


def near_deterministic_case(two_j, t_final=1.0):
    """psi_i of the near_deterministic family (|j,0> + |j,-j>)/sqrt2 (x)
    coherent(0.1) at cutoff 10: 2 x 11 amplitudes on 22 distinct charges."""
    p = make_params(two_j=two_j, fock_cutoff=10, t_final=t_final)
    meter = coherent_state(FockSpace(10, tail_tolerance=1e-6), 0.1)
    psi_i = FAMILIES["near_deterministic"].build(two_j, 0.01).psi_i
    return p, StateVector(p.joint_dim, np.kron(psi_i.amplitudes, meter.amplitudes))


def restriction_case(name, rng):
    if name == "near_deterministic":
        return near_deterministic_case(16, t_final=20.0)
    if name == "sparse-random":
        # a random psi0 on 5 random joint indices of a (12, 20) register
        p, _ = block_oracle_case(rng, 12, 20)
        amps = np.zeros(p.joint_dim, dtype=complex)
        amps[rng.choice(p.joint_dim, 5, replace=False)] = rng.normal(size=5) + 1j
        return p, StateVector.of(amps)
    return scan_case(name, rng)


@pytest.mark.parametrize("commutator", [False, True])
@pytest.mark.parametrize("name", ["readme", "two_j=8", "near_deterministic", "sparse-random",
                                  "random-large"])
def test_restricted_frame_equals_the_all_block_oracle(rng, name, commutator):
    p, psi0 = restriction_case(name, rng)
    frame, oracle = _frame_propagator(p, psi0), all_block_frame(p, psi0)
    live = live_indices(p, psi0)
    dead = np.setdiff1d(np.arange(p.joint_dim), live)
    assert np.array_equal(np.sort(np.concatenate([b[0].ravel() for b in frame[1]])), live)
    if name == "random-large":
        assert dead.size == 0
    nsteps, dt, stored = dynamics.time_grid(p, 7)
    full, drift = dynamics._full_states(frame, stored * dt)
    old_full, old_drift = dynamics._full_states(oracle, stored * dt)
    assert full[:, live].tobytes() == old_full[:, live].tobytes()
    assert full[:, dead].tobytes() == bytes(full[:, dead].nbytes)  # +0.0 only
    assert drift == old_drift
    gen = effective_generator_diag(p, commutator)
    terms = dynamics._pair_terms(psi0, frame, gen)
    old_terms = dynamics._pair_terms(psi0, oracle, gen)
    assert [a.tobytes() for a in terms] == [a.tobytes() for a in old_terms]
    fids = dynamics._fidelity_scan(*old_terms, nsteps, dt)
    min_fid, trace = effective_model_fidelity(p, psi0, store_every=7,
                                              include_commutator_terms=commutator)
    assert min_fid == np.min(fids)
    assert trace.fidelities.tobytes() == fids[stored].tobytes()
    assert trace.full_states.tobytes() == full.tobytes()


@pytest.mark.parametrize("two_j", [16, 4096])
def test_eigh_sees_only_the_live_blocks(monkeypatch, two_j):
    p, psi0 = near_deterministic_case(two_j)
    solved = []
    real_eigh = np.linalg.eigh

    def spy(a):
        solved.append(a.shape[0])
        return real_eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    dynamics._block_eigenbasis.cache_clear()
    effective_model_fidelity(p, psi0)
    assert sum(solved) == 22
    solved.clear()  # a second call, with the other generator, solves nothing
    effective_model_fidelity(p, psi0, include_commutator_terms=True)
    assert solved == []


def test_block_memo_holds_one_entry_per_model_and_support(rng):
    dynamics._block_eigenbasis.cache_clear()
    p, psi0 = near_deterministic_case(8)
    for commutator in (False, True):
        effective_model_fidelity(p, psi0, include_commutator_terms=commutator)
    # another state on the same charges reuses the entry
    other = StateVector.of(np.where(psi0.amplitudes != 0, rng.normal(size=p.joint_dim), 0.0))
    effective_model_fidelity(p, other)
    info = dynamics._block_eigenbasis.cache_info()
    assert (info.currsize, info.misses) == (1, 1)
    # a new support, g0 or delta_minus each make one more entry
    # |j, cutoff> has charge 2j + cutoff = 18, which psi0 does not touch
    wider = StateVector.of(psi0.amplitudes + np.eye(p.joint_dim)[p.fock_cutoff])
    for q, state in [(p, wider), (dataclasses.replace(p, g0=0.03), psi0),
                     (dataclasses.replace(p, delta_minus=-1.0), psi0)]:
        effective_model_fidelity(q, state)
    assert dynamics._block_eigenbasis.cache_info().currsize == 4


def test_block_memo_entries_are_read_only_and_equal_a_fresh_solve(rng):
    p, psi0 = restriction_case("sparse-random", rng)
    dynamics._block_eigenbasis.cache_clear()
    cold = model_outputs(p, psi0)
    assert model_outputs(p, psi0) == cold  # warm
    charge = conserved_charge(p).entries.real
    touched = np.isin(np.arange(-p.two_j, p.two_j + p.fock_cutoff + 1),
                      charge[psi0.amplitudes != 0])
    key = (p.two_j, p.fock_cutoff, p.g0.hex(), p.delta_minus.hex(), touched.tobytes())
    entry = dynamics._block_eigenbasis(*key)
    assert all(a is b for basis, block in zip(entry, _frame_propagator(p, psi0)[1])
               for a, b in zip(basis, block))
    arrays = [a for basis in entry for a in basis]
    fresh = [a for basis in dynamics._block_eigenbasis.__wrapped__(*key) for a in basis]
    assert [a.tobytes() for a in arrays] == [a.tobytes() for a in fresh]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]


def test_block_memo_keeps_signed_zeros_apart(rng):
    # g0 = 0.0 and -0.0 compare equal but give generators with different
    # bits: each must get its own entry, equal to the all-block oracle's
    dynamics._block_eigenbasis.cache_clear()
    p, psi0 = block_oracle_case(rng, 6, 9)
    for g0 in (0.0, -0.0, 0.0):
        q = dataclasses.replace(p, g0=g0)
        frame, oracle = _frame_propagator(q, psi0), all_block_frame(q, psi0)
        assert [[a.tobytes() for a in block] for block in frame[1]] == \
            [[a.tobytes() for a in block] for block in oracle[1]]
    info = dynamics._block_eigenbasis.cache_info()
    assert (info.currsize, info.misses, info.hits) == (2, 2, 1)


def old_generator_diag(p, commutator):
    """The effective generator diagonal as it was built from the dense
    `nonlinear_observable`."""
    space = SpinSpace(p.two_j)
    a_diag = nonlinear_observable(space).entries.real
    m, n = space.m_values(), np.arange(p.fock_cutoff + 1, dtype=float)
    if commutator:
        return (p.g0**2 / p.delta_minus * (a_diag[:, None] * (4.0 * n[None, :] + 2.0)
                + 2.0 * m[:, None] * (n[None, :] ** 2 + n[None, :] + 1.0))).ravel()
    return (p.g_dispersive * np.outer(a_diag, n)).ravel()


@pytest.mark.parametrize("two_j", range(1, 13))
def test_model_vectors_equal_the_dense_operators(two_j):
    # the vectors replace the dense J+, a @ a and the diagonal Operators, so
    # they must carry the same bits, and the dense ladders no other nonzero
    for cutoff in range(1, 21):
        p = make_params(two_j=two_j, fock_cutoff=cutoff)
        model = dynamics._model_vectors(p)
        jp = collective_op(SpinSpace(two_j), "jplus").entries
        a = op_annihilate(FockSpace(cutoff)).entries
        a2 = a @ a
        assert model.m.tobytes() == SpinSpace(two_j).m_values().tobytes()
        assert model.jplus_up.tobytes() == np.diagonal(jp, 1).real.tobytes()
        assert model.a2_up.tobytes() == np.diagonal(a2, 2).real.tobytes()
        assert np.count_nonzero(jp) == model.jplus_up.size
        assert np.count_nonzero(a2) == model.a2_up.size
        assert model.charge.tobytes() == conserved_charge(p).entries.real.tobytes()
        for commutator in (False, True):
            assert dynamics.effective_generator_diag(p, commutator).tobytes() == \
                old_generator_diag(p, commutator).tobytes()


def test_model_calls_build_no_dense_ladder(monkeypatch, rng):
    p, psi0 = block_oracle_case(rng, 6, 9)
    calls = []
    for name in ("collective_op", "op_annihilate"):
        spy_everywhere(monkeypatch, name, calls)
    _, trace = effective_model_fidelity(p, psi0, store_every=50)
    charge_drift(p, trace)
    conservation_residual(p)
    assert calls == []
    hamiltonian_full(p, 0.1)  # the dense oracle still builds both
    assert sorted(calls) == ["collective_op", "op_annihilate"]


def model_outputs(p, psi0):
    """Every output of the dispersive calls at `p`, as bytes."""
    out = []
    for commutator in (False, True):
        min_fid, trace = effective_model_fidelity(p, psi0, store_every=7,
                                                  include_commutator_terms=commutator)
        out += [min_fid, trace.times, trace.full_states, trace.effective_states,
                trace.fidelities, trace.max_norm_drift, charge_drift(p, trace),
                effective_generator_diag(p, commutator)]
    out += [conservation_residual(p), conservation_residual(p, 1.3), conserved_charge(p).entries]
    return [np.asarray(x).tobytes() for x in out]


@pytest.mark.parametrize("two_j, cutoff", [(2, 6), (7, 9), (8, 8), (12, 20)])
def test_cold_and_warm_model_caches_give_the_same_bits(rng, two_j, cutoff):
    p, psi0 = block_oracle_case(rng, two_j, cutoff)
    dynamics._register_model.cache_clear()
    dynamics._charge_operator.cache_clear()
    dynamics._block_eigenbasis.cache_clear()
    cold = model_outputs(p, psi0)
    model_outputs(*block_oracle_case(rng, 3, 5))  # another register in between
    assert model_outputs(p, psi0) == cold
    # the cached structure is what a fresh build gives
    fresh = dynamics._register_model.__wrapped__(two_j, cutoff)
    cached = dynamics._model_vectors(p)
    for name in dynamics._ModelVectors._fields:
        if name == "blocks":
            assert len(cached.blocks) == len(fresh.blocks)
            for block, fresh_block in zip(cached.blocks, fresh.blocks):
                assert [a.tobytes() for a in block] == [a.tobytes() for a in fresh_block]
        else:
            assert getattr(cached, name).tobytes() == getattr(fresh, name).tobytes()


def test_cached_model_arrays_are_read_only():
    p = make_params(two_j=7, fock_cutoff=9)
    model = dynamics._model_vectors(p)
    arrays = [a for name, a in model._asdict().items() if name != "blocks"]
    arrays += [a for block in model.blocks for a in block]
    arrays.append(conserved_charge(p).entries)
    assert len(arrays) == len(model) - 1 + 3 * len(model.blocks) + 1
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a += 0
        if a.size:  # one-member blocks have no couplings
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]


def test_model_cache_holds_one_entry_per_register(rng):
    dynamics._register_model.cache_clear()
    dynamics._charge_operator.cache_clear()
    p, psi0 = block_oracle_case(rng, 7, 9)
    variants = [p, dataclasses.replace(p, g0=0.03), dataclasses.replace(p, delta_minus=-1.0)]
    for q in variants:
        _, trace = effective_model_fidelity(q, psi0, store_every=50)
        charge_drift(q, trace)
        conservation_residual(q)
    assert dynamics._register_model.cache_info().currsize == 1
    assert dynamics._register_model.cache_info().misses == 1
    assert dynamics._charge_operator.cache_info().currsize == 1
    assert all(dynamics._model_vectors(q) is dynamics._model_vectors(p) for q in variants)
    assert all(conserved_charge(q) is conserved_charge(p) for q in variants)
    other, other_psi0 = block_oracle_case(rng, 8, 8)
    effective_model_fidelity(other, other_psi0, store_every=50)
    conservation_residual(other)
    assert dynamics._register_model.cache_info().currsize == 2
    assert dynamics._charge_operator.cache_info().currsize == 2
    assert dynamics._model_vectors(other) is not dynamics._model_vectors(p)


def single_level_frame(rng, length):
    """A frame of `length` one-member blocks with random coefficients, so
    `_full_states` gives unnormalized rows of any length."""
    idx = np.arange(length)[:, None]
    coeffs = rng.normal(size=(length, 1)) + 1j * rng.normal(size=(length, 1))
    blocks = [(idx, rng.normal(size=(length, 1)), np.ones((length, 1, 1)), coeffs)]
    return rng.normal(size=length), blocks


@pytest.mark.parametrize("length", [1, 2, 3, 17, 255, 1001, 2999])
@pytest.mark.parametrize("rows", [1, 5])
def test_stacked_norm_drift_equals_the_row_loop(rng, length, rows):
    frame = single_level_frame(rng, length)
    times = np.linspace(0.0, 3.0, rows)
    amps, drift = dynamics._full_states(frame, times)
    states, old_drift = statevector_full_states(frame, times)
    assert amps.tobytes() == np.array([s.amplitudes for s in states]).tobytes()
    assert drift == old_drift > 0.0


@pytest.mark.parametrize("two_j, cutoff", [(2, 2), (6, 4), (12, 10), (30, 32), (50, 56)])
@pytest.mark.parametrize("rows", [1, 4])
def test_stacked_charge_norms_equal_the_row_loop(rng, two_j, cutoff, rows):
    # odd joint lengths from 9 to 2907 of unnormalized random rows
    p = make_params(two_j=two_j, fock_cutoff=cutoff)
    assert p.joint_dim % 2 == 1
    full = rng.normal(size=(rows, p.joint_dim)) + 1j * rng.normal(size=(rows, p.joint_dim))
    trace = EvolutionTrace(times=np.arange(rows, dtype=float), full_states=full,
                           effective_states=full, fidelities=np.ones(rows), max_norm_drift=0.0)
    states = [StateVector.unnormalized(row) for row in full]
    assert charge_drift(p, trace) == loop_charge_drift(conserved_charge(p).entries.real, states)


def test_effective_evolution_keeps_the_norm_check(rng):
    # each effective state used to be a StateVector, which checked its norm;
    # a drift of 1e-11 passes the frame solver's 1e-10 but not NORM_TOL
    p = make_params()
    psi0 = random_state(rng, p.joint_dim)
    with pytest.raises(ValueError, match="state not normalized"):
        effective_model_fidelity(p, StateVector.unnormalized((1 + 1e-11) * psi0.amplitudes))


def test_rk4_derivative_consistent_with_hamiltonian(rng):
    # the stacked fast path inside the RK4 oracle must equal -i H(t) v
    p = make_params(two_j=3, fock_cutoff=3)
    deriv = rk4_derivative(p)
    for t in (0.0, 0.41, 2.93):
        v = rng.normal(size=p.joint_dim) + 1j * rng.normal(size=p.joint_dim)
        fast = deriv(t, v)
        direct = -1j * hamiltonian_full(p, t).entries @ v
        np.testing.assert_allclose(fast, direct, atol=1e-12)


def test_norm_drift_tracked():
    p = make_params(t_final=5.0)
    psi0 = joint_state(p, 0, basis_meter(p, 1))
    trace = trace_of(p, psi0)
    assert trace.max_norm_drift < 1e-8


# ------------------------------------------------------------ effective model


def test_effective_identity_at_zero_time():
    p = make_params()
    psi0 = joint_state(p, 0, [0.6, 0.5, 0.4, 0.3, 0.2])
    trace = trace_of(p, psi0)
    assert trace.times[0] == 0.0
    np.testing.assert_allclose(trace.effective_states[0], psi0.amplitudes)


def test_effective_single_level_phase():
    p = make_params(two_j=2, t_final=3.0)
    psi0 = joint_state(p, 0, basis_meter(p, 1))
    trace = trace_of(p, psi0)
    j = 1.0
    phase = np.exp(-1j * p.g_dispersive * j * (j + 1) * 1 * trace.times[-1])
    np.testing.assert_allclose(trace.effective_states[-1],
                               phase * psi0.amplitudes, atol=1e-12)


def test_effective_phases_match_eig_expm():
    # oracle: dense matrix exponential of the assembled diagonal generator
    p = make_params(two_j=4, fock_cutoff=3)
    sp = SpinSpace(4)
    meter = FockSpace(3)
    h = tensor(nonlinear_observable(sp), op_number(meter))
    h = type(h)(h.dim, p.g_dispersive * h.entries, hermitian=True, diagonal=True)
    t = 1.73
    u = expm_i(h, t)
    np.testing.assert_allclose(np.diag(u.dense()), np.exp(-1j * effective_generator_diag(p) * t),
                               atol=1e-12)


def test_effective_populations_conserved():
    p = make_params(t_final=7.0)
    psi0 = joint_state(p, 0, [0.5, 0.5, 0.5, 0.5, 0.0])
    trace = trace_of(p, psi0)
    for s in trace.effective_states:
        np.testing.assert_allclose(np.abs(s), np.abs(psi0.amplitudes),
                                   atol=1e-12)


# ------------------------------------------------------- fidelity validation


def test_charge_conserved_along_trajectory():
    p = make_params(two_j=2, g0=0.05, t_final=50.0)
    psi0 = joint_state(p, 0, basis_meter(p, 2))
    trace = trace_of(p, psi0, store_every=25)
    assert charge_drift(p, trace) < 1e-8


def test_fidelity_trace_structure():
    p = make_params(t_final=2.0)
    psi0 = joint_state(p, 0, basis_meter(p, 1))
    minf, trace = effective_model_fidelity(p, psi0, store_every=10)
    assert trace.fidelities[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(trace.fidelities <= 1.0 + 1e-12)
    assert np.all(trace.fidelities >= minf - 1e-12)
    assert len(trace.times) == len(trace.fidelities)
    assert len(trace.full_states) == len(trace.effective_states) == len(trace.times)


def test_fidelity_trace_matches_stored_states():
    # the fidelity scan and the stored states are computed separately; over
    # 15001 grid points (122 coarse rows) they must agree at every stored point
    p = make_params(g0=0.05, t_final=300.0)
    psi0 = joint_state(p, 0, [0.6, 0.5, 0.4, 0.3, 0.2])
    for commutator in (False, True):
        _, trace = effective_model_fidelity(p, psi0, store_every=37,
                                            include_commutator_terms=commutator)
        direct = [abs(np.vdot(f, e)) ** 2
                  for f, e in zip(trace.full_states, trace.effective_states)]
        np.testing.assert_allclose(trace.fidelities, direct, rtol=0, atol=1e-12)


def test_fidelity_improves_as_coupling_shrinks():
    mins = []
    for ratio in (0.05, 0.02, 0.01):
        p = make_params(g0=ratio, t_final=300.0, fock_cutoff=4)
        psi0 = joint_state(p, 0, basis_meter(p, 1))
        minf, _ = effective_model_fidelity(p, psi0, store_every=10**9)
        mins.append(minf)
    assert mins[0] < mins[1] < mins[2]


def test_infidelity_quadratic_in_coupling_ratio():
    ratios = (0.01, 0.02, 0.05)
    infids = []
    for r in ratios:
        p = make_params(g0=r, t_final=400.0, fock_cutoff=4)
        psi0 = joint_state(p, 0, basis_meter(p, 1))
        minf, _ = effective_model_fidelity(p, psi0, store_every=10**9)
        infids.append(1.0 - minf)
    slope = np.polyfit(np.log(ratios), np.log(infids), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.5)


def test_zero_coupling_fidelity_is_one():
    p = make_params(g0=0.0, t_final=5.0)
    psi0 = joint_state(p, 0, basis_meter(p, 1))
    minf, _ = effective_model_fidelity(p, psi0)
    assert minf == pytest.approx(1.0, abs=1e-12)


def test_min_fidelity_exceeds_099_at_ratio_002():
    # weak coherent meter, coupling ratio 0.02: the micromotion dips stay
    # below 1e-2 even over many fast periods
    p = make_params(two_j=2, g0=0.02, fock_cutoff=4, t_final=500.0)
    meter = coherent_state(FockSpace(4, tail_tolerance=1e-6), 0.25)
    psi0 = joint_state(p, 0, meter.amplitudes)
    minf, _ = effective_model_fidelity(p, psi0, store_every=10**9)
    assert minf >= 0.99


def test_leading_generator_misses_jz_nonzero_states():
    # the leading generator drops 2 Jz (n^2+n+1), which dephases the Fock
    # components of |1,-1>; the second-order generator keeps them in step
    ratio = 0.05
    p = make_params(two_j=2, g0=ratio, fock_cutoff=6,
                    t_final=0.25 * 2 * np.pi / (4 * ratio**2), dt=0.05)
    meter = coherent_state(FockSpace(6, tail_tolerance=1e-6), 0.25)
    psi0 = joint_state(p, -1, meter.amplitudes)
    leading, _ = effective_model_fidelity(p, psi0, store_every=10**9)
    commutator, _ = effective_model_fidelity(p, psi0, store_every=10**9,
                                             include_commutator_terms=True)
    assert leading < 0.9
    assert commutator > 0.99


def test_commutator_variant_differs_from_leading():
    p = make_params(two_j=2, fock_cutoff=3)
    lead = np.exp(-1j * effective_generator_diag(p, include_commutator_terms=False))
    full = np.exp(-1j * effective_generator_diag(p, include_commutator_terms=True))
    assert np.max(np.abs(lead - full)) > 1e-6
