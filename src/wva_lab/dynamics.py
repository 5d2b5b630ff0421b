"""Time-dependent two-photon collective spin-cavity model and its diagonal
dispersive approximation.

The oscillating model is H(t) = g0 (J+ a^2 e^{idt} + J- (a^dag)^2 e^{-idt})
with two-photon detuning d. Second-order elimination of the oscillating
coupling gives the static operator (g0^2/d) [J+ a^2, J- (a^dag)^2]
= (g0^2/d) [(J^2 - Jz^2)(4n + 2) + 2 Jz (n^2 + n + 1)], whose leading
meter-dependent piece is the nonlinear dispersive Hamiltonian
g_disp (J^2 - Jz^2) n with

    g_disp = +4 g0^2 / d.

Sign convention: conventions for the dispersive coefficient differ across
the literature (the magnitude 4 g0^2/|d| is not in dispute). Here the sign is
fixed by matching the second-order dynamics of the oscillating model itself:
the level pushed by the e^{+i d t} coupling shifts by +|V|^2/d. The fidelity
validation in this module is the executable check of that convention.

The oscillating model is solved exactly, not integrated: it is a frame
rotation of a static Hamiltonian, diagonalized and held per block of the
conserved charge 2Jz + n, and only on the blocks whose charge psi0 touches
(see `_frame_propagator`). That eigenbasis depends only on (two_j,
fock_cutoff, g0, delta_minus) and psi0's charges, so it is solved once per
model and support and shared read-only (`_block_eigenbasis`); a call applies
only V^dag psi0 to it, and the two generators of one model share it. The
fidelity at every grid point comes from phase tables of about
sqrt(grid points) rows, each the product of two of about its own square
root (`_fidelity_scan`). The solver, the
fidelity scan and the diagnostics read the model from vectors
(`_model_vectors`): m, the superdiagonal of J+, the one nonzero diagonal of
a^2 and the charge, with the element formulas of the dense operators, so no
ladder matrix or `Operator` is built for them. Everything that depends only
on the register size (two_j, fock_cutoff), those vectors, the charge blocks
with their g0-free couplings, the g0-free generator brackets and the
positions of the nonzero elements of H(t), is built once per size and
shared read-only, as is the charge of `conserved_charge`; a call applies
only g0, delta_minus, t and psi0 to it. Only `_ladder_parts` builds
dim x dim matrices, for the test oracles and the recorded benchmark
references; the independent check that H(t) conserves 2Jz + n
(`conservation_residual`) forms only its nonzero elements, against the
charge of `conserved_charge`. `effective_model_fidelity` is the one
evolution entry point: its trace holds the oscillating model's states and
the fidelity at the stored times.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import copysign, inf, isqrt
from typing import NamedTuple

import numpy as np

from .boson import FockSpace, op_annihilate
from .linalg import NORM_TOL, Operator, StateVector
from .spin import SpinSpace, collective_op


def dispersive_coupling(g0: float, delta_minus: float) -> float:
    """g_disp = +4 g0^2 / delta_minus; +-inf (the sign of delta_minus) where
    g0^2 overflows the float range."""
    try:
        return 4.0 * g0**2 / delta_minus
    except OverflowError:  # a Python float g0**2 beyond the float range
        return copysign(inf, delta_minus)


@dataclass(frozen=True)
class TwoPhotonTCParams:
    """Parameters of the oscillating two-photon collective model.

    Angular-frequency units throughout; delta_minus is the two-photon
    detuning. The perturbative regime |g0/delta_minus| < 0.5 is enforced, and
    dt must resolve the fast phase (dt * |delta_minus| <= 0.05).
    """

    two_j: int
    g0: float
    delta_minus: float
    fock_cutoff: int
    t_final: float
    dt: float

    def __post_init__(self):
        if self.two_j < 1 or self.fock_cutoff < 1:
            raise ValueError("two_j and fock_cutoff must be positive integers")
        for name in ("g0", "delta_minus", "t_final", "dt"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.delta_minus == 0.0:
            raise ValueError("delta_minus must be nonzero")
        if abs(self.g0 / self.delta_minus) >= 0.5:
            raise ValueError("need |g0/delta_minus| < 0.5")
        if self.t_final <= 0.0 or self.dt <= 0.0:
            raise ValueError("t_final and dt must be positive")
        if self.dt * abs(self.delta_minus) > 0.05 + 1e-12:
            raise ValueError("dt too coarse: need dt * |delta_minus| <= 0.05")
        if not np.isfinite(self.t_final / self.dt):  # `time_grid` takes int() of it
            raise ValueError(f"t_final / dt = {self.t_final} / {self.dt} overflows: "
                             "no finite step count")
        if not np.isfinite(self.g_dispersive):
            raise ValueError(f"g_dispersive = 4 g0^2 / delta_minus overflows for "
                             f"g0 = {self.g0}, delta_minus = {self.delta_minus}")

    @property
    def g_dispersive(self) -> float:
        """Dispersive coupling of the effective nonlinear model, +4 g0^2 / delta."""
        return dispersive_coupling(self.g0, self.delta_minus)

    @property
    def joint_dim(self) -> int:
        return (self.two_j + 1) * (self.fock_cutoff + 1)


@dataclass(frozen=True)
class EvolutionTrace:
    """The oscillating model at the stored times. `full_states` is a
    read-only (len(times), dim) complex array, one state per row;
    `fidelities` holds |<full|effective>|^2 at the stored times."""

    times: np.ndarray
    full_states: np.ndarray
    fidelities: np.ndarray
    max_norm_drift: float


def time_grid(params: TwoPhotonTCParams, store_every: int = 1):
    """The time grid t_k = k dt, k = 0..nsteps, shared by every evolution.

    dt = t_final / nsteps <= params.dt with nsteps = ceil(t_final / params.dt).
    Returns (nsteps, dt, stored): `stored` holds every `store_every`-th index
    and always the last one."""
    if store_every < 1:
        raise ValueError("store_every must be a positive integer")
    nsteps = max(int(np.ceil(params.t_final / params.dt - 1e-9)), 1)
    stored = np.arange(0, nsteps + 1, store_every)
    if stored[-1] != nsteps:
        stored = np.append(stored, nsteps)
    return nsteps, params.t_final / nsteps, stored


class _ModelVectors(NamedTuple):
    """The two-photon model's pieces that depend only on (two_j, fock_cutoff),
    every array read-only:

    * m on the spin indices, the superdiagonal <m+1|J+|m> at m[1:],
      <n|a^2|n+2> at n = 0..cutoff-2, and the charge 2Jz + n and m on the
      joint indices
    * the charge blocks of `_frame_propagator`: one (idx, diagonal
      positions, g0-free couplings) per block size
    * the g0-free brackets of `effective_generator_diag`: (J^2 - Jz^2) n
      and (J^2 - Jz^2)(4n + 2) + 2 Jz (n^2 + n + 1)
    * the joint rows, columns and g0-free values of the nonzero elements of
      J+ (x) a^2, which `conservation_residual` forms"""

    m: np.ndarray
    jplus_up: np.ndarray
    a2_up: np.ndarray
    charge: np.ndarray
    m_joint: np.ndarray
    blocks: tuple
    leading: np.ndarray
    bracket: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    coupling: np.ndarray


def _model_vectors(params: TwoPhotonTCParams) -> _ModelVectors:
    """The model structure of the register of `params`, built once per
    (two_j, fock_cutoff) and shared; each call applies only g0, delta_minus
    and t to it."""
    return _register_model(params.two_j, params.fock_cutoff)


def _frozen(*arrays):
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _charge_blocks(q: np.ndarray):
    """Joint indices grouped by the charge q = 2Jz + n: one (blocks, size)
    array of index rows per distinct block size."""
    order = np.argsort(q, kind="stable")
    starts = np.flatnonzero(np.diff(q[order], prepend=np.nan))
    sizes = np.diff(starts, append=q.size)
    return [order[starts[sizes == s][:, None] + np.arange(s)] for s in np.unique(sizes)]


@lru_cache(maxsize=16, typed=True)
def _register_model(two_j: int, fock_cutoff: int) -> _ModelVectors:
    """The pieces of the model from the element formulas of `collective_op`
    (jplus and nonlinear), `op_annihilate` @ itself and `conserved_charge`,
    so each equals what those dense objects give bit for bit, without
    building them."""
    space = SpinSpace(two_j)
    j, m = space.j, space.m_values()
    levels = fock_cutoff + 1
    n = np.arange(levels, dtype=float)
    jplus_up = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    # the one nonzero product a @ a forms: <n-2|a|n-1> <n-1|a|n> for n >= 2
    a2_up = np.sqrt(n[1:-1]) * np.sqrt(n[2:])
    charge = (2.0 * m[:, None] + n[None, :]).ravel()
    # <m,n| J+ a^2 |m-1,n+2> at the spin index of m and the Fock level n
    blocks = tuple(_frozen(idx, np.arange(idx.shape[1]),
                           jplus_up[idx[:, :-1] // levels] * a2_up[idx[:, :-1] % levels])
                   for idx in _charge_blocks(charge))
    a_diag = j * (j + 1) - m**2  # J^2 - Jz^2
    bracket = (a_diag[:, None] * (4.0 * n[None, :] + 2.0)
               + 2.0 * m[:, None] * (n[None, :] ** 2 + n[None, :] + 1.0))
    spin, fock = np.arange(jplus_up.size), np.arange(a2_up.size)
    rows = (spin[:, None] * levels + fock).ravel()
    cols = rows + levels + 2  # |m-1, n+2>, one spin index and two levels on
    return _ModelVectors(
        *_frozen(m, jplus_up, a2_up, charge, np.repeat(m, levels)), blocks,
        *_frozen(np.outer(a_diag, n).ravel(), bracket.ravel(), rows, cols,
                 np.outer(jplus_up, a2_up).ravel()))


def _ladder_parts(params: TwoPhotonTCParams):
    """Dense g0 J+ (x) a^2 and its dagger, plus the leading effective
    generator diagonal."""
    jp = collective_op(SpinSpace(params.two_j), "jplus").entries
    a = op_annihilate(FockSpace(params.fock_cutoff)).entries
    h_plus = params.g0 * np.kron(jp, a @ a)
    return h_plus, h_plus.conj().T, effective_generator_diag(params)


def conserved_charge(params: TwoPhotonTCParams) -> Operator:
    """2 Jz + n, which commutes with the oscillating Hamiltonian at all times."""
    return _charge_operator(params.two_j, params.fock_cutoff)


@lru_cache(maxsize=16, typed=True)
def _charge_operator(two_j: int, fock_cutoff: int) -> Operator:
    """The charge of `conserved_charge`, built once per register size apart
    from the model's, so that the conservation check compares the two."""
    m = SpinSpace(two_j).m_values()
    n = np.arange(fock_cutoff + 1, dtype=float)
    return Operator.from_diagonal((2.0 * m[:, None] + n[None, :]).ravel())


def conservation_residual(params: TwoPhotonTCParams, t: float = 0.237) -> float:
    """max |[H(t), 2Jz + n]| entrywise at one (arbitrary) time.

    [H, Q]_rc = H_rc (q_c - q_r) vanishes wherever H does, so only the
    nonzero elements of e^{idt} g0 J+ (x) a^2 are formed: the superdiagonal
    of J+ times the second superdiagonal of a^2, at their joint positions;
    their Hermitian conjugates give the same moduli. The charge is read from
    `conserved_charge`, so this checks the model's vectors against it."""
    model = _model_vectors(params)
    h = np.exp(1j * params.delta_minus * t) * (params.g0 * model.coupling)
    q = conserved_charge(params).entries.real
    comm = h * q[model.cols] - q[model.rows] * h
    return float(np.max(np.abs(comm), initial=0.0))


#: Largest number of complex entries in a phase table or an output block of
#: the fidelity scan (`_fidelity_scan`); it caps the scan's memory, not its
#: square-root split of the grid. Where F pairs times sqrt(grid points)
#: exceed it, the pairs run in groups whose amplitudes are summed.
CHUNK_ELEMENTS = 2**13


def _frame_propagator(params: TwoPhotonTCParams, psi0: StateVector):
    """Exact solution of the oscillating model as a frame rotation, on the
    charge blocks where psi0 has weight.

    H(t) = e^{i d Jz t} K e^{-i d Jz t} with K = g0 (J+ a^2 + J- a^dag^2), so
    psi(t) = e^{i d Jz t} V e^{-i lambda t} V^dag psi0 exactly, where
    K + d Jz = V diag(lambda) V^dag. K couples |m,n> only to |m+-1,n-+2>, so
    K + d Jz is block diagonal in the charge 2Jz + n, V is held only per
    block, and a block on which psi0 vanishes stays zero: only the blocks
    whose charge psi0 touches are diagonalized (`_block_eigenbasis`, kept
    per model and support), and a call applies only V^dag psi0 to them.
    Returns (d Jz diagonal, blocks), one (idx, lambda, V, V^dag psi0[idx])
    per block size with a live block, with shapes (b, s), (b, s), (b, s, s)
    and (b, s): V[b, :, k] is eigenvector k of live block b on the joint
    indices idx[b]."""
    drift = abs(psi0.norm() - 1.0)
    if not drift <= NORM_TOL:  # a NaN norm fails too
        raise ValueError(f"state not normalized: |norm - 1| = {drift:.3e}")
    if psi0.dim != params.joint_dim:
        raise ValueError("psi0 must live on the joint space")
    model, amps = _model_vectors(params), psi0.amplitudes
    touched = np.zeros(2 * params.two_j + params.fock_cutoff + 1, dtype=bool)
    touched[_charge_levels(model.charge[amps != 0], params.two_j)] = True
    # keyed by the float bits, so that g0 = 0.0 and -0.0 never share an entry
    bases = _block_eigenbasis(params.two_j, params.fock_cutoff, float(params.g0).hex(),
                              float(params.delta_minus).hex(), touched.tobytes())
    return params.delta_minus * model.m_joint, [
        (idx, evals, evecs, np.einsum("bik,bi->bk", evecs.conj(), amps[idx]))
        for idx, evals, evecs in bases]


def _charge_levels(charge: np.ndarray, two_j: int) -> np.ndarray:
    """The charges 2Jz + n as indices 2Jz + n + 2j = 0 .. 4j + cutoff."""
    return (charge + two_j).astype(np.intp)


@lru_cache(maxsize=16)
def _block_eigenbasis(two_j: int, fock_cutoff: int, g0_hex: str, delta_hex: str,
                      touched: bytes):
    """One read-only (idx, lambda, V) per block size, over the charge
    blocks whose charge is marked in `touched` (the bytes of a boolean array
    over `_charge_levels`) and over nothing else, for the model with g0 and
    delta_minus given by their `float.hex`. A block's members, in
    joint-index order, run |m,n>, |m-1,n+2>, ..; its generator has d m on
    the diagonal and the real element g0 <m,n| J+ a^2 |m-1,n+2> between
    neighbours. The live blocks of one size are diagonalized by one stacked
    `eigh`."""
    model = _register_model(two_j, fock_cutoff)
    g0, d_jz = float.fromhex(g0_hex), float.fromhex(delta_hex) * model.m_joint
    touched = np.frombuffer(touched, dtype=bool)
    every = touched.all()  # a psi0 of full support takes every block as it is
    bases = []
    for idx, diag, coupling in model.blocks:
        if not every:
            live = touched[_charge_levels(model.charge[idx[:, 0]], two_j)]
            if not live.any():
                continue
            idx, coupling = idx[live], coupling[live]
        gen = np.zeros(idx.shape + idx.shape[1:])
        gen[:, diag, diag] = d_jz[idx]
        # multiplied as g0 * (J+ * a^2) like np.kron in `_ladder_parts`, so
        # the blocks equal those of the dense generator bit for bit
        gen[:, diag[:-1], diag[1:]] = gen[:, diag[1:], diag[:-1]] = g0 * coupling
        bases.append(_frozen(idx, *np.linalg.eigh(gen)))
    return tuple(bases)


def _full_states(frame, times):
    """Full states at `times`, one read-only row per time, and their largest
    norm drift |norm - 1|; entries outside the frame's blocks are +0.0.
    Each norm is sqrt(re.re + im.im) from one stacked (1 x dim) @ (dim x 1)
    product per part, the BLAS dot np.linalg.norm takes row by row, so the
    drift keeps its bits."""
    d_jz, blocks = frame
    amps = np.zeros((times.size, d_jz.size), dtype=complex)
    for idx, evals, evecs, coeffs in blocks:
        rotated = np.exp(-1j * evals * times[:, None, None]) * coeffs
        amps[:, idx] = (np.einsum("bik,tbk->tbi", evecs, rotated)
                        * np.exp(1j * d_jz[idx] * times[:, None, None]))
    amps.setflags(write=False)
    re, im = amps.real, amps.imag
    norms = np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])
    return amps, float(np.max(np.abs(norms - 1.0)))


def effective_generator_diag(params: TwoPhotonTCParams,
                             include_commutator_terms: bool = False) -> np.ndarray:
    """Diagonal of the effective generator on the joint space.

    With `include_commutator_terms` the full second-order generator
    (g0^2/d) [(J^2-Jz^2)(4n+2) + 2 Jz (n^2+n+1)] is used instead of the
    leading dispersive piece, so the quality of dropping those terms is
    measurable rather than assumed.

    The leading piece g_disp (J^2 - Jz^2) n tracks the oscillating model only
    on Jz = 0 system states, where the dropped terms reduce to a global phase.
    Elsewhere the dropped 2 Jz (n^2+n+1) term dephases the Fock components:
    at two_j=2, cutoff 6, coherent(0.25) and g0/d = 0.05, |1,-1> falls to
    fidelity 0.886 and |1,+1> to 0.844 within a quarter effective period,
    while the second-order generator keeps 0.9999 and 0.954.
    """
    model = _model_vectors(params)
    if include_commutator_terms:
        return params.g0**2 / params.delta_minus * model.bracket
    return params.g_dispersive * model.leading


def _pair_terms(psi0: StateVector, frame, gen):
    """Weights W and frequencies w with <psi_full(t)|psi_eff(t)> =
    sum_f W_f e^{i w_f t}.

    With G = `gen` the effective generator diagonal, r = G + d Jz and
    c = V^dag psi0, the sum runs over the same-block pairs (l, k) of the
    frame's blocks with W_lk = conj(c_k) conj(V_lk) psi0_l and
    w_lk = lambda_k - r_l; rows with psi0_l = 0 contribute 0 and are
    dropped."""
    d_jz, blocks = frame
    weights, freqs = [], []
    for idx, evals, evecs, coeffs in blocks:
        amps = psi0.amplitudes[idx]
        live = amps != 0
        weights.append((np.conj(coeffs[:, None, :] * evecs) * amps[:, :, None])[live].ravel())
        freqs.append((evals[:, None, :] - (gen[idx] + d_jz[idx])[:, :, None])[live].ravel())
    return np.concatenate(weights), np.concatenate(freqs)


def _phase_table(freqs, step: float, count: int, weights=None) -> np.ndarray:
    """e^{i w k step} at k = 0..count-1, one row per k, times `weights` if
    given.

    k splits as k = h L + l with L = ceil(sqrt(count)), so the table is the
    product of a weighted one over h and one over l, each of about
    sqrt(count) rows. Each of those is written as cos and sin into one
    complex buffer (on x86-64 with NumPy 2.4, the bits of np.exp(1j * phase)
    at about 70% of its cost)."""
    low = isqrt(count - 1) + 1
    high = -(-count // low)
    strides = np.arange(high + low, dtype=float)  # h L for the outer rows, l for the inner
    strides[:high] *= low
    strides[high:] -= high
    phase = freqs * (step * strides[:, None])
    table = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=table.real)
    np.sin(phase, out=table.imag)
    outer, inner = table[:high], table[high:]
    if weights is not None:
        outer *= weights
    return (outer[:, None, :] * inner).reshape(-1, freqs.size)[:count]


def _fidelity_scan(weights, freqs, nsteps: int, dt: float) -> np.ndarray:
    """|sum_f W_f e^{i w_f k dt}|^2 at every grid point k = 0..nsteps.

    The grid index splits as k = a C + b with C = ceil(sqrt(nsteps + 1)), so
    e^{i w k dt} = e^{i w a C dt} e^{i w b dt}. The fine table over b
    (C x F) and the weighted coarse table over a (R x F, R <= C) then give
    every amplitude at once as coarse @ fine^T, whose rows read k in order;
    each table is itself the product of two of about nsteps^(1/4) rows
    (`_phase_table`). The product and |.|^2 run in blocks of coarse rows
    into one reused buffer and straight into the fidelity row. Each table
    and output block holds at most CHUNK_ELEMENTS entries: where F C exceeds
    it, the pairs run in groups whose amplitudes are summed first."""
    points = nsteps + 1
    cols = isqrt(points - 1) + 1
    rows = -(-points // cols)
    width = max(CHUNK_ELEMENTS // cols, 1)  # pairs per table, rows per output block
    fids = np.empty((rows, cols))
    block = np.empty((min(width, rows), cols), dtype=complex)
    total = np.zeros((rows, cols), dtype=complex) if freqs.size > width else None
    for first in range(0, freqs.size, width):
        group = slice(first, first + width)
        fine = _phase_table(freqs[group], dt, cols).T
        coarse = _phase_table(freqs[group], cols * dt, rows, weights[group])
        for top in range(0, rows, width):
            amps = np.matmul(coarse[top:top + width], fine, out=block[:min(width, rows - top)])
            if total is None:
                np.abs(amps, out=fids[top:top + width])
            else:
                total[top:top + width] += amps
    if total is not None:
        np.abs(total, out=fids)
    np.square(fids, out=fids)
    return fids.ravel()[:points]


def effective_model_fidelity(params: TwoPhotonTCParams, psi0: StateVector,
                             store_every: int = 100,
                             include_commutator_terms: bool = False):
    """Fidelity of the effective model against the exact oscillating model;
    returns (min_fidelity, trace).

    Fidelity |<psi_full|psi_eff>|^2 is evaluated at *every* point of
    `time_grid` (the fast micromotion sets the minimum, so dt sets how finely
    it is sampled), while the oscillating model's states enter the trace only
    every `store_every` points. The default leading generator applies to
    Jz = 0 system states only; see `effective_generator_diag`.
    """
    nsteps, dt, stored = time_grid(params, store_every)
    frame = _frame_propagator(params, psi0)
    gen = effective_generator_diag(params, include_commutator_terms)
    # every grid point from one sum over same-block pairs, its time index
    # split at about sqrt(nsteps) into a coarse and a fine phase table
    fids = _fidelity_scan(*_pair_terms(psi0, frame, gen), nsteps, dt)
    times = stored * dt
    full_states, drift = _full_states(frame, times)
    trace = EvolutionTrace(times=times, full_states=full_states, fidelities=fids[stored],
                           max_norm_drift=drift)
    return float(np.min(fids)), trace


def charge_drift(params: TwoPhotonTCParams, trace: EvolutionTrace) -> float:
    """Max drift of <2 Jz + n> along the stored full trajectory."""
    full = trace.full_states
    q = _model_vectors(params).charge
    # one stacked (1 x dim) @ (dim x 1) product per row: the same BLAS dot
    # as np.vdot row by row, so the drift keeps its bits
    nrm = (full.conj()[:, None, :] @ full[:, :, None]).real[:, 0, 0]
    vals = np.sum(np.abs(full) ** 2 * q, axis=1) / nrm
    return float(np.max(np.abs(vals - vals[0])))
