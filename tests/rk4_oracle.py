"""Fixed-step RK4 for the oscillating two-photon model: the reference that
the exact frame-rotation propagator of `wva_lab.dynamics` is checked against.

It steps i dpsi/dt = H(t) psi on the same grid as `dynamics.time_grid`, with
fourth-order global error in dt, and never renormalizes the state.
"""

import numpy as np

from wva_lab.dynamics import _ladder_parts, time_grid


def rk4_derivative(params):
    """-i H(t) v, with H(t) = e^{idt} V + e^{-idt} V^dag applied as one
    stacked matrix-vector product."""
    h_plus, h_minus, _ = _ladder_parts(params)
    stacked = np.vstack([h_plus, h_minus])
    dim = params.joint_dim

    def deriv(t, v):
        hv = stacked @ v
        phase = np.exp(1j * params.delta_minus * t)
        return -1j * (phase * hv[:dim] + np.conj(phase) * hv[dim:])

    return deriv


def rk4_evolve(params, psi0, store_every=1):
    """Integrate from psi0 over `time_grid(params, store_every)`; returns the
    stored times and the stored amplitude vectors."""
    nsteps, dt, stored = time_grid(params, store_every)
    deriv = rk4_derivative(params)
    keep = set(stored.tolist())
    v = np.array(psi0.amplitudes, dtype=complex)
    states = [v.copy()]
    for k in range(1, nsteps + 1):
        t = (k - 1) * dt
        k1 = deriv(t, v)
        k2 = deriv(t + dt / 2, v + (dt / 2) * k1)
        k3 = deriv(t + dt / 2, v + (dt / 2) * k2)
        k4 = deriv(t + dt, v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if k in keep:
            states.append(v.copy())
    return stored * dt, states
