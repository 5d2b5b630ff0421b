"""Weak-value amplification with collective nonlinear probes.

Numerical library for weak values, postselection success probabilities,
collective scaling advantages, the associated preparation/measurement
circuits, Fisher-information accounting, and validation of the nonlinear
dispersive model against the oscillating two-photon collective model.
"""

from .boson import CutoffError, FockSpace, coherent_state, min_cutoff, op_annihilate, op_create, op_number
from .dynamics import (
    EvolutionTrace,
    TwoPhotonTCParams,
    effective_model_fidelity,
    evolve_effective,
    evolve_full,
    hamiltonian_full,
)
from .experiments import FitResult, ScalingRecord, fit_loglog, sweep
from .fisher import (
    FisherReport,
    postselected_fisher_ratio,
    qfi_nonlinear_coherent,
    qfi_product,
    qfi_pure_generator,
)
from .linalg import (
    NullPostselectionError,
    Operator,
    Projection,
    StateVector,
    eig_hermitian,
    expectation,
    expm_i,
    fidelity,
    inner,
    project,
    project_left,
    tensor,
)
from .spin import CollectiveObservable, SpinSpace, collective_op, dicke_state, nonlinear_observable, superpose_dicke, variance
from .wva import (
    PostselectionResult,
    WeakValueStrategy,
    collective_success,
    evolved_joint,
    max_weak_value_bound,
    meter_readout,
    orthogonal_complement_state,
    postselect,
    postselection_state_fixed_Ps,
    sigma_advantage,
    strategy_linear_fixed_sigma,
    strategy_linear_optimal,
    strategy_near_deterministic,
    strategy_nonlinear_joint,
    strategy_uncorrelated,
    success_probability,
    weak_value,
)

__version__ = "0.1.0"
