"""Full computational-basis simulation of the superposition-preparation and
postselection-measurement circuits built from an ancilla qubit, two 2j-qubit
registers and a control-SWAP gate.

Register layout is fixed: ancilla (most significant qubit) (x) register 1
(x) register 2; the measurement circuit carries the meter as a trailing
factor of register 1's subsystem. Dicke states are embedded directly as
uniform superpositions of fixed-weight bitstrings (the unitaries that would
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
from math import comb, sqrt

import numpy as np

from .linalg import StateVector
from .spin import SpinSpace

#: Full-amplitude simulation cap; 2^(4j+1) amplitudes beyond this are refused.
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
            f"register too large for full-amplitude simulation (two_j = {two_j} > "
            f"{MAX_REGISTER_TWO_J}); use the analytic-overlap functions instead")


def _check_levels(m1: float, m2: float):
    # with one level the two control-SWAP branches interfere and the
    # overlap product is not the preparation weight
    if m1 == m2:
        raise ValueError("m1 and m2 must be two different Dicke levels")


def embed_dicke(two_j: int, m: float) -> StateVector:
    """|j,m> as the uniform superposition of bitstrings with j+m ones,
    amplitude 1/sqrt(C(2j, j+m)), in a 2^(2j)-dimensional register."""
    _check_register(two_j)
    k = SpinSpace(two_j).index_of(m)
    ones = two_j - k  # j + m
    dim = 2**two_j
    amps = np.zeros(dim, dtype=complex)
    weight = 1.0 / sqrt(comb(two_j, ones))
    for idx in range(dim):
        if idx.bit_count() == ones:
            amps[idx] = weight
    return StateVector(dim=dim, amplitudes=amps)


def reference_state(two_j: int, kind: str, m1: float | None = None,
                    m2: float | None = None) -> ReferenceState:
    _check_register(two_j)
    if kind == "plus_all":
        dim = 2**two_j
        vec = StateVector(dim=dim, amplitudes=np.full(dim, 2.0 ** (-two_j / 2.0), dtype=complex))
        return ReferenceState(kind=kind, two_j=two_j, vector=vec)
    if kind == "dicke_superposition":
        if m1 is None or m2 is None:
            raise ValueError("dicke_superposition reference needs m1 and m2")
        amps = (embed_dicke(two_j, m1).amplitudes + embed_dicke(two_j, m2).amplitudes) / sqrt(2.0)
        return ReferenceState(kind=kind, two_j=two_j, vector=StateVector.of(amps),
                              m1=m1, m2=m2)
    raise ValueError(f"unknown reference kind {kind!r}; valid: {REFERENCE_KINDS}")


def reference_overlap(zeta: ReferenceState, m: float) -> complex:
    """<j,m|zeta> with the embedded (normalized) Dicke state."""
    return complex(np.vdot(embed_dicke(zeta.two_j, m).amplitudes, zeta.vector.amplitudes))


def control_swap(state: CircuitRegisterState) -> CircuitRegisterState:
    """Swap registers 1 and 2 on the ancilla-|1> component. Unitary, involutive."""
    d = 2**state.two_j
    block = state.amplitudes.reshape(2, d, d)
    out = block.copy()
    out[1] = block[1].T
    return CircuitRegisterState(two_j=state.two_j, amplitudes=out.reshape(-1))


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
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-10:
        raise ValueError("|alpha|^2 + |beta|^2 must be 1")
    z1 = reference_overlap(zeta, m1)
    z2 = reference_overlap(zeta, m2)
    if abs(z1) < 1e-14 or abs(z2) < 1e-14:
        raise ValueError("reference state must overlap both Dicke components")

    d = 2**two_j
    emb1 = embed_dicke(two_j, m1).amplitudes
    emb2 = embed_dicke(two_j, m2).amplitudes
    anc = np.array([alpha, beta], dtype=complex)
    r1 = np.einsum("a,i,k->aik", anc, emb1, emb2).reshape(-1)
    r2 = control_swap(CircuitRegisterState(two_j=two_j, amplitudes=r1))

    # Contract the ancilla against the overlap-weighted direction (kept
    # unnormalized by convention) and register 2 against zeta.
    w = np.array([abs(z1), abs(z2)])
    block = r2.amplitudes.reshape(2, d, d)
    middle = np.einsum("a,aik,k->i", w, block, zeta.vector.amplitudes.conj())
    success = float(np.vdot(middle, middle).real)
    ancilla_normalized = success / float(w @ w)

    space = SpinSpace(two_j)
    coeffs = np.zeros(space.dim, dtype=complex)
    for k, m in enumerate(space.m_values()):
        coeffs[k] = np.vdot(embed_dicke(two_j, m).amplitudes, middle)
    leakage = float(np.vdot(middle, middle).real - np.vdot(coeffs, coeffs).real)
    return PrepCircuitResult(
        output_system=StateVector.of(coeffs),
        success_prob=success,
        ancilla_normalized_prob=ancilla_normalized,
        leakage=max(leakage, 0.0),
    )


def _plus_all_weight(two_j: int, index: int) -> float:
    """|<+^(2j)|j,m>|^2 = C(2j, j+m) / 2^(2j) for the level at `index`, by
    exact integer division (correctly rounded; a float power of two times the
    binomial overflows from two_j ~ 1030)."""
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


def _embed_joint(two_j: int, joint: StateVector, meter_dim: int) -> np.ndarray:
    """Map a Dicke-basis system (x) meter state onto the 2^(2j) register,
    returning an array of shape (2^(2j), meter_dim)."""
    space = SpinSpace(two_j)
    if joint.dim != space.dim * meter_dim:
        raise ValueError("joint state dimension must be (two_j + 1) * meter_dim")
    block = joint.amplitudes.reshape(space.dim, meter_dim)
    d = 2**two_j
    out = np.zeros((d, meter_dim), dtype=complex)
    for k, m in enumerate(space.m_values()):
        out += np.outer(embed_dicke(two_j, m).amplitudes, block[k])
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
    z1 = reference_overlap(zeta, m1)
    z2 = reference_overlap(zeta, m2)
    if abs(z1) < 1e-14 or abs(z2) < 1e-14:
        raise ValueError("reference state must overlap both Dicke components")
    lam = 1.0 / sqrt(abs(z1) ** 2 + abs(z2) ** 2)
    # <nu|0> = lam <j,m1|zeta> requires nu components lam conj(<j,m1|zeta>).
    nu = lam * np.array([np.conj(z1), np.conj(z2)])
    anc = np.array([np.conj(alpha), np.conj(beta)])

    d = 2**two_j
    psi_emb = _embed_joint(two_j, joint_state, meter_dim)  # (d, meter)
    amps = np.einsum("a,if,k->aikf", anc, psi_emb, zeta.vector.amplitudes)
    swapped = amps.copy()
    swapped[1] = np.transpose(amps[1], (1, 0, 2))

    emb1 = embed_dicke(two_j, m1).amplitudes
    emb2 = embed_dicke(two_j, m2).amplitudes
    meter = np.einsum("a,aikf,i,k->f", nu.conj(), swapped, emb1.conj(), emb2.conj())
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

    Accepts a reference kind string so it works beyond the full-amplitude
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


@dataclass(frozen=True)
class OverlapExpansionReport:
    max_abs_deviation: float
    max_rel_deviation: float
    prefactor: float
    weak_value_exponent: float


def overlap_expansion_check(two_j: int, kappa: float, g: float,
                            eta: complex = 0.1) -> OverlapExpansionReport:
    """Compare the postselection overlap bra of the exactly evolved nonlinear
    strategy against its closed exponential form
    prefactor * <phi_i| exp(i g A_w B), A_w = (j^2 + 2j + j/sqrt(kappa))/2.

    The deviation is the second-order error of collapsing the two-branch
    phase sum into a single exponential; it grows as O(g^2).
    """
    from .wva import evolved_joint, strategy_nonlinear_joint

    strat = strategy_nonlinear_joint(two_j, kappa, g=g, eta=eta)
    j = strat.system_space.j
    space = strat.system_space
    block = evolved_joint(strat).amplitudes.reshape(space.dim, strat.meter_space.dim)

    alpha = strat.psi_f.amplitudes[space.index_of(0.0)]
    beta = strat.psi_f.amplitudes[space.index_of(-j)]
    lhs = np.conj(alpha * block[space.index_of(0.0)] + beta * block[space.index_of(-j)])

    a_w = 0.5 * (j**2 + 2 * j + j / sqrt(kappa))
    prefactor = sqrt(kappa) * j / sqrt(1.0 + kappa * j**2)
    n_diag = strat.B.entries.real
    rhs = prefactor * np.conj(strat.phi_i.amplitudes) * np.exp(1j * g * a_w * n_diag)

    dev = np.abs(lhs - rhs)
    scale = float(np.max(np.abs(rhs)))
    return OverlapExpansionReport(
        max_abs_deviation=float(np.max(dev)),
        max_rel_deviation=float(np.max(dev)) / scale,
        prefactor=prefactor,
        weak_value_exponent=a_w,
    )
