"""The package namespace resolves each public name from its submodule on
first access (PEP 562)."""

import importlib

import pytest

import wva_lab

#: Every name the package exports, with the submodule that defines it.
EXPORTS = {
    "boson": ("CutoffError", "FockSpace", "coherent_state", "min_cutoff", "op_annihilate",
              "op_number"),
    "dynamics": ("EvolutionTrace", "TwoPhotonTCParams", "effective_model_fidelity"),
    "experiments": ("FitResult", "ScalingRecord", "fit_loglog", "sweep"),
    "fisher": ("FisherReport", "postselected_fisher_ratio", "qfi_nonlinear_coherent",
               "qfi_product"),
    "linalg": ("NullPostselectionError", "Operator", "Projection", "StateVector", "expectation",
               "fidelity", "inner", "project_left"),
    "spin": ("SpinSpace", "collective_op", "dicke_state", "nonlinear_observable",
             "superpose_dicke", "variance"),
    "wva": ("PostselectionResult", "WeakValueStrategy", "collective_success", "evolved_joint",
            "meter_readout", "orthogonal_complement_state", "postselect",
            "postselection_state_fixed_Ps", "sigma_advantage", "strategy_two_level",
            "strategy_uncorrelated", "success_probability", "weak_value"),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_the_export_table_is_complete():
    assert len(NAMES) == 44
    assert sorted(wva_lab.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_export_resolves_to_its_submodule(module, name):
    namespace = {}
    exec(f"from wva_lab import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"wva_lab.{module}"), name)
    assert name in dir(wva_lab)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'bogus'"):
        wva_lab.bogus  # noqa: B018
    with pytest.raises(ImportError):
        exec("from wva_lab import bogus", {})


def test_submodules_still_import_by_name():
    from wva_lab import cli, families

    assert cli is importlib.import_module("wva_lab.cli")
    assert families.FAMILIES is importlib.import_module("wva_lab.experiments").FAMILIES
