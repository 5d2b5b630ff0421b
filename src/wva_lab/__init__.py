"""Weak-value amplification with collective nonlinear probes.

Numerical library for weak values, postselection success probabilities,
collective scaling advantages, the associated preparation/measurement
circuits, Fisher-information accounting, and validation of the nonlinear
dispersive model against the oscillating two-photon collective model.

Importing the package loads no submodule: each name below is imported from
its submodule on first access (PEP 562), so `wva-lab` pays only for what a
command runs.
"""

from importlib import import_module

#: public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("CutoffError", "FockSpace", "coherent_state", "min_cutoff",
                     "op_annihilate", "op_number"), "boson"),
    **dict.fromkeys(("EvolutionTrace", "TwoPhotonTCParams", "effective_model_fidelity"),
                    "dynamics"),
    **dict.fromkeys(("FitResult", "ScalingRecord", "fit_loglog", "sweep"), "experiments"),
    **dict.fromkeys(("FisherReport", "postselected_fisher_ratio", "qfi_nonlinear_coherent",
                     "qfi_product"), "fisher"),
    **dict.fromkeys(("NullPostselectionError", "Operator", "Projection", "StateVector",
                     "expectation", "fidelity", "inner", "project_left"), "linalg"),
    **dict.fromkeys(("SpinSpace", "collective_op", "dicke_state", "nonlinear_observable",
                     "superpose_dicke", "variance"), "spin"),
    **dict.fromkeys(("PostselectionResult", "WeakValueStrategy", "collective_success",
                     "evolved_joint", "meter_readout", "orthogonal_complement_state",
                     "postselect", "postselection_state_fixed_Ps", "sigma_advantage",
                     "strategy_two_level", "strategy_uncorrelated", "success_probability",
                     "weak_value"), "wva"),
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
