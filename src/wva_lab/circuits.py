"""Computational-basis simulation of the superposition-preparation and
postselection-measurement circuits built from an ancilla qubit, two 2j-qubit
registers and a control-SWAP gate.

The register is ancilla (x) register 1 (x) register 2, 2^(4j+1) amplitudes,
but each control-SWAP branch is simulated only on its own nonzero block. With
S1 and S2 the register indices on which the Dicke embeddings of m1 and m2
have weight (disjoint when m1 != m2: the levels have different Hamming
weights), the ancilla-|0> branch lives on S1 x S2 and the swapped ancilla-|1> branch on
S2 x S1. Every other amplitude is an exact zero; dropping those terms keeps
the order of the kept ones in each `einsum` sum, so the results are those of
the full register bit for bit. At two_j = 10 with levels (0, -5), each branch
holds 252 x 1 of the 2^20 amplitudes.

The ancilla is the most significant qubit; the measurement circuit carries
the meter as a trailing factor of register 1's subsystem. Dicke states are
embedded directly as uniform superpositions of fixed-weight bitstrings (the unitaries that would
prepare them on hardware are not decomposed into gates here).

Ancilla conventions, resolved once and used everywhere:

* Preparation: the control ancilla is prepared in alpha|0> + beta|1>; the
  final ancilla measurement contracts against the *overlap-weighted* vector
  w = |<j,m1|zeta>| |0> + |<j,m2|zeta>| |1| left unnormalized. The squared
  norm of the contracted amplitude is reported as `success_prob`; the true
  projective probability with the ancilla direction normalized is reported
  alongside as `ancilla_normalized_prob` (they differ by |w|^2).
* Measurement: (alpha, beta) name the target postselection ket
  alpha|j,m1> + beta|j,m2>, so the prepared ancilla carries the conjugated
  coefficients and the implemented operation is exactly |psi_f><psi_f| on the
  system. For real coefficients this coincides with preparing alpha|0>+beta|1>.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, sqrt

import numpy as np

from .families import check_ancilla
from .linalg import StateVector, _read_only
from .spin import SpinSpace

#: Largest register of the brute-force circuits; larger ones are refused.
#: The sweeps take the closed form above it, so raising it would move their
#: `prep_prob` cells at two_j 12..20 onto the circuit's roundoff.
MAX_REGISTER_TWO_J = 10

REFERENCE_KINDS = ("plus_all", "dicke_superposition")


@dataclass(frozen=True)
class ReferenceState:
    """Reference vector |zeta> on one 2j-qubit register."""

    kind: str
    two_j: int
    vector: StateVector
    m1: float | None = None
    m2: float | None = None


@dataclass(frozen=True)
class PrepCircuitResult:
    output_system: StateVector
    success_prob: float
    ancilla_normalized_prob: float
    leakage: float


@dataclass(frozen=True)
class MeasureCircuitResult:
    p_tilde: float
    conditional_meter: StateVector


def _check_register(two_j: int):
    if two_j < 1:
        raise ValueError("two_j must be a positive integer")
    if two_j > MAX_REGISTER_TWO_J:
        raise ValueError(
            f"register too large for brute-force simulation (two_j = {two_j} > "
            f"{MAX_REGISTER_TWO_J}); use the analytic-overlap functions instead")


def _check_levels(m1: float, m2: float):
    # with one level the two control-SWAP branches interfere and the
    # overlap product is not the preparation weight
    if m1 == m2:
        raise ValueError("m1 and m2 must be two different Dicke levels")


def _popcounts(two_j: int) -> np.ndarray:
    """Number of ones in each register index 0 .. 2^two_j - 1 (the upper
    half of the indices is the lower half with one more bit set;
    `np.bitwise_count` would need NumPy 2)."""
    counts = np.zeros(1, dtype=np.int64)
    for _ in range(two_j):
        counts = np.concatenate([counts, counts + 1])
    return counts


@lru_cache(maxsize=MAX_REGISTER_TWO_J)
def _dicke_embeddings(two_j: int) -> np.ndarray:
    """The embeddings of every level, one row per level in the order of
    `SpinSpace.m_values` (row k has j + m = two_j - k ones), from one
    popcount table: a read-only (2j+1, 2^(2j)) array, built once per
    register size (callers check the size first, so every one fits)."""
    ones = _popcounts(two_j)
    weights = np.array([1.0 / sqrt(comb(two_j, n)) for n in range(two_j + 1)])
    rows = np.zeros((two_j + 1, ones.size), dtype=complex)
    rows[two_j - ones, np.arange(ones.size)] = weights[ones]
    return _read_only(rows)


def embed_dicke(two_j: int, m: float) -> StateVector:
    """|j,m> as the uniform superposition of bitstrings with j+m ones,
    amplitude 1/sqrt(C(2j, j+m)), in a 2^(2j)-dimensional register."""
    _check_register(two_j)
    amps = _dicke_embeddings(two_j)[SpinSpace(two_j).index_of(m)]
    return StateVector(dim=amps.size, amplitudes=amps)


def reference_state(two_j: int, kind: str, m1: float | None = None,
                    m2: float | None = None) -> ReferenceState:
    _check_register(two_j)
    if kind == "plus_all":
        return _plus_all(two_j)
    if kind == "dicke_superposition":
        if m1 is None or m2 is None:
            raise ValueError("dicke_superposition reference needs m1 and m2")
        embs, space = _dicke_embeddings(two_j), SpinSpace(two_j)
        amps = (embs[space.index_of(m1)] + embs[space.index_of(m2)]) / sqrt(2.0)
        return ReferenceState(kind=kind, two_j=two_j, vector=StateVector.of(amps),
                              m1=m1, m2=m2)
    raise ValueError(f"unknown reference kind {kind!r}; valid: {REFERENCE_KINDS}")


@lru_cache(maxsize=MAX_REGISTER_TWO_J)
def _plus_all(two_j: int) -> ReferenceState:
    """|+>^(2j), built once per register size and shared (it is frozen)."""
    dim = 2**two_j
    vec = StateVector(dim=dim, amplitudes=_read_only(np.full(dim, 2.0 ** (-two_j / 2.0),
                                                             dtype=complex)))
    return ReferenceState(kind="plus_all", two_j=two_j, vector=vec)


def reference_overlap(zeta: ReferenceState, m: float) -> complex:
    """<j,m|zeta> with the embedded (normalized) Dicke state."""
    return complex(np.vdot(embed_dicke(zeta.two_j, m).amplitudes, zeta.vector.amplitudes))


def _circuit_levels(two_j: int, m1: float, m2: float, zeta: ReferenceState):
    """The embeddings of every level, those of m1 and m2, and the reference
    overlaps <j,m1|zeta> and <j,m2|zeta>, which must not vanish."""
    embs = _dicke_embeddings(two_j)
    space = SpinSpace(two_j)
    emb1, emb2 = embs[space.index_of(m1)], embs[space.index_of(m2)]
    z1, z2 = (complex(np.vdot(emb, zeta.vector.amplitudes)) for emb in (emb1, emb2))
    if abs(z1) < 1e-14 or abs(z2) < 1e-14:
        raise ValueError("reference state must overlap both Dicke components")
    return embs, emb1, emb2, z1, z2


def prep_circuit(two_j: int, m1: float, m2: float, alpha: complex, beta: complex,
                 zeta: ReferenceState) -> PrepCircuitResult:
    """Run the non-deterministic superposition-preparation circuit by brute
    force and return the conditional middle-register state in the Dicke basis.

    The conditional state is alpha'|j,m1> + beta'|j,m2> where the primed
    coefficients pick up the phases of the reference overlaps; with
    alpha = beta = 1/sqrt2 and a positive-overlap reference it is exactly the
    equal superposition.
    """
    _check_register(two_j)
    _check_levels(m1, m2)
    check_ancilla(alpha, beta)
    embs, emb1, emb2, z1, z2 = _circuit_levels(two_j, m1, m2, zeta)
    s1, s2 = np.flatnonzero(emb1), np.flatnonzero(emb2)
    # Branch a before the swap is anc[a] e1[i] e2[k], nonzero on S1 x S2.
    anc = np.array([alpha, beta], dtype=complex)
    branches = np.einsum("a,i,k->aik", anc, emb1[s1], emb2[s2])

    # Contract the ancilla against the overlap-weighted direction (kept
    # unnormalized by convention) and register 2 against zeta. Branch 0 is
    # not swapped and writes the rows S1; the swap moves branch 1 onto
    # S2 x S1, rows S2. The rows are disjoint, so no sum adds the branches.
    w = np.array([abs(z1), abs(z2)])
    zeta_conj = zeta.vector.amplitudes.conj()
    middle = np.zeros(2**two_j, dtype=complex)
    middle[s1] = np.einsum("a,aik,k->i", w[:1], branches[:1], zeta_conj[s2])
    middle[s2] = np.einsum("a,aik,k->i", w[1:], np.swapaxes(branches[1:], 1, 2).copy(),
                           zeta_conj[s1])
    success = float(np.vdot(middle, middle).real)
    ancilla_normalized = success / float(w @ w)

    coeffs = np.array([np.vdot(emb, middle) for emb in embs])
    leakage = float(np.vdot(middle, middle).real - np.vdot(coeffs, coeffs).real)
    return PrepCircuitResult(
        output_system=StateVector.of(coeffs),
        success_prob=success,
        ancilla_normalized_prob=ancilla_normalized,
        leakage=max(leakage, 0.0),
    )


@lru_cache(maxsize=64)
def _plus_all_weight(two_j: int, index: int) -> float:
    """|<+^(2j)|j,m>|^2 = C(2j, j+m) / 2^(2j) for the level at `index`, by
    exact integer division (correctly rounded; a float power of two times the
    binomial overflows from two_j ~ 1030), computed once per (two_j, index):
    a scripts/run_scaling.py pass needs 33 entries."""
    return comb(two_j, two_j - index) / (1 << two_j)


def prep_probability_analytic(two_j: int, m1: float, m2: float,
                              zeta_kind: str = "plus_all") -> float:
    """Closed-form preparation success weight |<j,m1|zeta>|^2 |<j,m2|zeta>|^2,
    valid for any register size.

    For |+>^(2j) the level farther from m = 0 has the smaller weight, so it
    is evaluated first: where it underflows the product is 0.0 and the
    other level's binomial (C(2j, j) at m = 0) is never built."""
    _check_levels(m1, m2)
    space = SpinSpace(two_j)
    if zeta_kind == "plus_all":
        near, far = sorted((m1, m2), key=abs)
        w_far = _plus_all_weight(two_j, space.index_of(far))
        if w_far == 0.0:
            return 0.0
        return w_far * _plus_all_weight(two_j, space.index_of(near))
    if zeta_kind == "dicke_superposition":
        return 0.25
    raise ValueError(f"unknown reference kind {zeta_kind!r}; valid: {REFERENCE_KINDS}")


def prep_probability_conventions(two_j: int) -> dict:
    """The two published closed forms for the standard configuration
    (m1 = 0, m2 = -j, zeta = |+>^(2j)), reported side by side.

    `normalized_dicke` uses <zeta|j,0> = 2^-j sqrt(C(2j,j)) and equals the
    brute-force circuit value; `unnormalized_dicke` uses the convention that
    omits the symmetric-state normalization, <zeta|j,0> = 2^-j C(2j,j),
    giving the quoted 2^(-4j) C(2j,j)^2.
    """
    if two_j % 2 != 0:
        raise ValueError("the standard configuration needs integer j (even two_j)")
    central, scale = comb(two_j, two_j // 2), 1 << (2 * two_j)
    return {
        "normalized_dicke": central / scale,
        "unnormalized_dicke": central**2 / scale,
    }


def _embed_joint(block: np.ndarray, embs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Map a Dicke-basis system (x) meter state, as its (2j+1, meter_dim)
    amplitude block, onto the register and keep the register indices `rows`:
    an array of shape (len(rows), meter_dim)."""
    out = np.zeros((rows.size, block.shape[1]), dtype=complex)
    for emb, amps in zip(embs[:, rows], block):
        out += np.outer(emb, amps)
    return out


def measure_circuit(two_j: int, joint_state: StateVector, m1: float, m2: float,
                    alpha: complex, beta: complex, zeta: ReferenceState,
                    meter_dim: int) -> MeasureCircuitResult:
    """Run the postselection-measurement circuit by brute force.

    `joint_state` is the evolved system (x) meter state in the Dicke basis;
    (alpha, beta) are the coefficients of the target postselection ket. The
    returned conditional meter state is proportional to
    conj(alpha) <j,m1|Psi> + conj(beta) <j,m2|Psi> and `p_tilde` is the
    measurement probability including the reference-overlap prefactor.
    """
    _check_register(two_j)
    embs, emb1, emb2, z1, z2 = _circuit_levels(two_j, m1, m2, zeta)
    if joint_state.dim != (two_j + 1) * meter_dim:
        raise ValueError("joint state dimension must be (two_j + 1) * meter_dim")
    lam = 1.0 / sqrt(abs(z1) ** 2 + abs(z2) ** 2)
    # <nu|0> = lam <j,m1|zeta> requires nu components lam conj(<j,m1|zeta>).
    nu = lam * np.array([np.conj(z1), np.conj(z2)])
    anc = np.array([np.conj(alpha), np.conj(beta)])

    # The final contraction carries e1*[i] e2*[k], so every nonzero term of
    # both branches has i in S1 and k in S2: branch 0 (not swapped) needs the
    # joint state on S1 and zeta on S2; branch 1, on S2 x S1 before the swap,
    # the joint state on S2 and zeta on S1.
    s1, s2 = np.flatnonzero(emb1), np.flatnonzero(emb2)
    block = joint_state.amplitudes.reshape(two_j + 1, meter_dim)
    zeta_amps = zeta.vector.amplitudes
    kept = np.einsum("a,if,k->aikf", anc[:1], _embed_joint(block, embs, s1), zeta_amps[s2])
    swapped = np.einsum("a,if,k->aikf", anc[1:], _embed_joint(block, embs, s2), zeta_amps[s1])
    branches = np.concatenate([kept, np.swapaxes(swapped, 1, 2)])  # (2, |S1|, |S2|, meter)
    meter = np.einsum("a,aikf,i,k->f", nu.conj(), branches, emb1[s1].conj(), emb2[s2].conj())
    p_tilde = float(np.vdot(meter, meter).real)
    if p_tilde < 1e-300:
        raise ValueError("measurement probability underflow")
    return MeasureCircuitResult(p_tilde=p_tilde, conditional_meter=StateVector.of(meter))


def measure_probability_analytic(two_j: int, m1: float, m2: float,
                                 zeta: ReferenceState | str, success_prob: float) -> float:
    """Closed-form measurement probability: the reference-overlap prefactor
    |z1|^2 |z2|^2 / (|z1|^2 + |z2|^2) times the exact postselection
    probability P_s = ||<psi_f|Psi>||^2 of a target ket psi_f supported on
    |j,m1> and |j,m2> (`measure_circuit` implements |psi_f><psi_f| on the
    system, so only the prefactor depends on the circuit).

    Accepts a reference kind string so it works beyond the brute-force
    register cap.
    """
    if isinstance(zeta, ReferenceState):
        p1, p2 = (abs(reference_overlap(zeta, m)) ** 2 for m in (m1, m2))
    elif zeta == "plus_all":
        space = SpinSpace(two_j)
        p1, p2 = (_plus_all_weight(two_j, space.index_of(m)) for m in (m1, m2))
    elif zeta == "dicke_superposition":
        p1 = p2 = 0.5
    else:
        raise ValueError(f"unknown reference kind {zeta!r}; valid: {REFERENCE_KINDS}")
    return p1 * p2 / (p1 + p2) * success_prob
