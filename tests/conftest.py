import importlib

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_state(rng, dim):
    from wva_lab.linalg import StateVector

    raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector.of(raw)


def random_hermitian(rng, dim):
    from wva_lab.linalg import Operator

    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Operator(dim, (raw + raw.conj().T) / 2, hermitian=True)


def nonlinear_ratio_limit(two_j, kappa, eta):
    """g -> 0 postselected information ratio of the collective nonlinear
    strategy, P_s A_w^2 / (<A^2> + Var(A) |eta|^2), from the closed forms of
    its success probability, weak value and the moments of A = J^2 - Jz^2 on
    (|j,0> + |j,-j>)/sqrt2 (the ingredients of the joint-state QFI)."""
    j = two_j / 2
    ps = kappa * j**2 / (1 + kappa * j**2)
    a_w = (j**2 + 2 * j) / 2 + j / (2 * kappa**0.5)
    a2 = (j**4 + 2 * j**3 + 2 * j**2) / 2
    var_a = j**4 / 4
    return ps * a_w**2 / (a2 + var_a * abs(eta) ** 2)


def spy_everywhere(monkeypatch, name, calls):
    """Count calls of the package function `name` under every module that
    holds it, since callers look it up where they imported it."""
    modules = [importlib.import_module(f"wva_lab.{m}")
               for m in ("linalg", "spin", "boson", "wva", "circuits", "fisher", "dynamics",
                         "experiments", "cli")]
    real = next(getattr(m, name) for m in modules if hasattr(m, name))

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    for module in modules:
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, spy)


#: A valid parameter of each strategy family (experiments.FAMILIES) for
#: register sizes two_j = 4..8.
FAMILY_PARAMETERS = {
    "linear_fixed_aw": 250.0,
    "linear_fixed_sigma": 0.0025,
    "nonlinear_joint": 1e-4,
    "near_deterministic": 0.04,
    "uncorrelated_baseline": 0.05,
}
