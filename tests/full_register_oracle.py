"""The preparation and measurement circuits simulated on the whole
2^(4j+1)-amplitude register (ancilla (x) register 1 (x) register 2): the
reference that `wva_lab.circuits.prep_circuit` and `measure_circuit`, which
simulate only the support of the two Dicke embeddings, are checked against
byte for byte.

Dicke states are embedded by a loop over every register index, so the
vectorized `circuits.embed_dicke` is checked along the way.
"""

from dataclasses import dataclass
from math import comb, sqrt

import numpy as np

from wva_lab.circuits import MeasureCircuitResult, PrepCircuitResult
from wva_lab.linalg import StateVector
from wva_lab.spin import SpinSpace


@dataclass(frozen=True)
class CircuitRegisterState:
    """Amplitude vector over ancilla (x) reg1 (x) reg2, ancilla most significant."""

    two_j: int
    amplitudes: np.ndarray

    def __post_init__(self):
        # ancilla qubit + two registers of two_j qubits each
        dim = 2 ** (2 * self.two_j + 1)
        arr = np.asarray(self.amplitudes, dtype=complex)
        if arr.shape != (dim,):
            raise ValueError(f"expected {dim} amplitudes for two_j = {self.two_j}")
        if abs(np.linalg.norm(arr) - 1.0) > 1e-10:
            raise ValueError("register state must be normalized")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)


def control_swap(state: CircuitRegisterState) -> CircuitRegisterState:
    """Swap registers 1 and 2 on the ancilla-|1> component. Unitary, involutive."""
    d = 2**state.two_j
    block = state.amplitudes.reshape(2, d, d)
    out = block.copy()
    out[1] = block[1].T
    return CircuitRegisterState(two_j=state.two_j, amplitudes=out.reshape(-1))


def embed_dicke_loop(two_j, m):
    """|j,m> as the uniform superposition of bitstrings with j+m ones."""
    ones = two_j - SpinSpace(two_j).index_of(m)
    amps = np.zeros(2**two_j, dtype=complex)
    weight = 1.0 / sqrt(comb(two_j, ones))
    for idx in range(2**two_j):
        if idx.bit_count() == ones:
            amps[idx] = weight
    return amps


def _overlap(zeta, m):
    return complex(np.vdot(embed_dicke_loop(zeta.two_j, m), zeta.vector.amplitudes))


def full_prep_circuit(two_j, m1, m2, alpha, beta, zeta):
    """The preparation circuit on the full register; same conventions and
    return value as `circuits.prep_circuit`."""
    z1, z2 = _overlap(zeta, m1), _overlap(zeta, m2)
    d = 2**two_j
    emb1 = embed_dicke_loop(two_j, m1)
    emb2 = embed_dicke_loop(two_j, m2)
    anc = np.array([alpha, beta], dtype=complex)
    r1 = np.einsum("a,i,k->aik", anc, emb1, emb2).reshape(-1)
    r2 = control_swap(CircuitRegisterState(two_j=two_j, amplitudes=r1))

    w = np.array([abs(z1), abs(z2)])
    block = r2.amplitudes.reshape(2, d, d)
    middle = np.einsum("a,aik,k->i", w, block, zeta.vector.amplitudes.conj())
    success = float(np.vdot(middle, middle).real)

    space = SpinSpace(two_j)
    coeffs = np.zeros(space.dim, dtype=complex)
    for k, m in enumerate(space.m_values()):
        coeffs[k] = np.vdot(embed_dicke_loop(two_j, m), middle)
    leakage = float(np.vdot(middle, middle).real - np.vdot(coeffs, coeffs).real)
    return PrepCircuitResult(
        output_system=StateVector.of(coeffs),
        success_prob=success,
        ancilla_normalized_prob=success / float(w @ w),
        leakage=max(leakage, 0.0),
    )


def full_measure_circuit(two_j, joint_state, m1, m2, alpha, beta, zeta, meter_dim):
    """The measurement circuit on the full register (times the meter); same
    conventions and return value as `circuits.measure_circuit`."""
    z1, z2 = _overlap(zeta, m1), _overlap(zeta, m2)
    lam = 1.0 / sqrt(abs(z1) ** 2 + abs(z2) ** 2)
    nu = lam * np.array([np.conj(z1), np.conj(z2)])
    anc = np.array([np.conj(alpha), np.conj(beta)])

    space = SpinSpace(two_j)
    block = joint_state.amplitudes.reshape(space.dim, meter_dim)
    psi_emb = np.zeros((2**two_j, meter_dim), dtype=complex)
    for k, m in enumerate(space.m_values()):
        psi_emb += np.outer(embed_dicke_loop(two_j, m), block[k])
    amps = np.einsum("a,if,k->aikf", anc, psi_emb, zeta.vector.amplitudes)
    swapped = amps.copy()
    swapped[1] = np.transpose(amps[1], (1, 0, 2))

    emb1 = embed_dicke_loop(two_j, m1)
    emb2 = embed_dicke_loop(two_j, m2)
    meter = np.einsum("a,aikf,i,k->f", nu.conj(), swapped, emb1.conj(), emb2.conj())
    return MeasureCircuitResult(p_tilde=float(np.vdot(meter, meter).real),
                                conditional_meter=StateVector.of(meter))
