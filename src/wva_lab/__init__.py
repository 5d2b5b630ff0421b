"""Weak-value amplification with collective nonlinear probes.

Numerical library for weak values, postselection success probabilities,
collective scaling advantages, the associated preparation/measurement
circuits, Fisher-information accounting, and validation of the nonlinear
dispersive model against the oscillating two-photon collective model.

Every name is imported from the submodule that defines it
(`from wva_lab.experiments import sweep`); importing the package itself
loads no submodule, so `wva-lab` pays only for what a command runs.
"""

__version__ = "0.1.0"
