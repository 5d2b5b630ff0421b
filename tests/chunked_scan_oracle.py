"""The chunked fidelity scan and the per-state trace of `wva_lab.dynamics`
before the fidelity scan split the time grid at its square root and the
trace held its states as arrays: the reference the present code is checked
against.

`chunked_fidelities` runs one matrix-vector product per chunk of about
CHUNK_ELEMENTS / F grid points (F same-block pairs), with a chunk-sized phase
table formed once and per-chunk start phases. The other functions build one
`StateVector` per stored time and reduce the trace state by state.
"""

import numpy as np

from wva_lab.dynamics import CHUNK_ELEMENTS, effective_generator_diag, time_grid
from wva_lab.linalg import StateVector


def chunked_fidelities(weights, freqs, nsteps, dt):
    """|sum_f W_f e^{i w_f k dt}|^2 for k = 0..nsteps, chunk by chunk."""
    chunk = max(CHUNK_ELEMENTS // freqs.size, 1)
    steps = np.exp(1j * freqs * (dt * np.arange(min(chunk, nsteps + 1))[:, None]))
    fids = np.empty(nsteps + 1)
    for start in range(0, nsteps + 1, chunk):
        n, t0 = min(chunk, nsteps + 1 - start), start * dt
        start_weights = np.exp(1j * freqs * t0) * weights
        fids[start:start + n] = np.abs(steps[:n] @ start_weights) ** 2
    return fids


def statevector_full_states(frame, times):
    """The full states at `times` as `StateVector`s and their largest norm
    drift |norm - 1|, taken state by state."""
    d_jz, blocks = frame
    amps = np.empty((times.size, d_jz.size), dtype=complex)
    for idx, evals, evecs, coeffs in blocks:
        rotated = np.exp(-1j * evals * times[:, None, None]) * coeffs
        amps[:, idx] = np.einsum("bik,tbk->tbi", evecs, rotated)
    amps *= np.exp(1j * d_jz * times[:, None])
    states = tuple(StateVector.unnormalized(row) for row in amps)
    return states, max(abs(s.norm() - 1.0) for s in states)


def statevector_effective_states(params, psi0, store_every=1,
                                 include_commutator_terms=False):
    """The effective states at the stored times, one `StateVector` each."""
    _, dt, stored = time_grid(params, store_every)
    gen = effective_generator_diag(params, include_commutator_terms)
    return tuple(StateVector(psi0.dim, np.exp(-1j * gen * tk) * psi0.amplitudes)
                 for tk in stored * dt)


def loop_charge_drift(charge, states):
    """Max drift of <charge> over `StateVector`s, one state at a time."""
    vals = []
    for s in states:
        amps = s.amplitudes
        nrm = float(np.vdot(amps, amps).real)
        vals.append(float(np.sum(np.abs(amps) ** 2 * charge)) / nrm)
    vals = np.array(vals)
    return float(np.max(np.abs(vals - vals[0])))
