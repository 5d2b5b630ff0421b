"""The strategy-family table and the checks that run before NumPy is imported.

FAMILIES holds one row per strategy family; a two-level family is one row,
built by `wva.strategy_two_level`. The command-line flags, the `scaling
--family` names, the even-two-j rule, the sigma baseline and the two Dicke
levels that `circuit-measure` postselects on all come from it.

This module uses only the standard library, so `wva-lab` can read the table
and check its arguments before NumPy is imported; `Family.build` imports
`wva` on its first call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import sqrt
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from .wva import WeakValueStrategy


def require_integer_j(two_j: int, what: str):
    if two_j % 2 != 0:
        raise ValueError(f"{what} requires integer j (even two_j); got two_j = {two_j}")


def require_register(two_j: int):
    """The register-size rule of `spin.SpinSpace`."""
    if two_j < 1:
        raise ValueError("two_j must be a positive integer")


def check_ancilla(alpha: complex, beta: complex):
    """Reject control-ancilla coefficients alpha|0> + beta|1> off the unit sphere."""
    if not abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError("|alpha|^2 + |beta|^2 must be 1")


def _check_probe_ps(two_j: int, probe_ps: float):
    require_register(two_j)
    target = two_j * probe_ps
    if not 0.0 < target < 1.0:
        raise ValueError(f"2j * probe_ps = {target} must lie strictly between 0 and 1")


def _check_kappa(two_j: int, kappa: float):
    require_register(two_j)
    j = two_j / 2.0
    if kappa <= 0.0 or kappa * j**2 >= 0.1:
        raise ValueError(f"need 0 < kappa * j^2 < 0.1; got {kappa * j**2:.3g}")


def _check_epsilon(two_j: int, epsilon: float):
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")


@cache
def _wva():
    """The `wva` module, imported once, on the first strategy built."""
    from . import wva

    return wva


@dataclass(frozen=True)
class Family:
    """One strategy family. A collective row gives the diagonal observable
    `kind` of `spin.collective_op`, the two Dicke levels `levels(j)` of psi_i
    and psi_f, `check_parameter(two_j, p)` and `psi_f(two_j, j, p)`, the
    psi_f keywords of `wva.strategy_two_level`. The uncorrelated baseline has
    no levels: its two_j counts independent single-qubit probes."""

    name: str
    cli_name: str
    param_key: str
    sigma_baseline: str
    kind: str | None = None
    levels: Callable[[float], tuple[float, float]] | None = None
    check_parameter: Callable[[int, float], None] = lambda two_j, parameter: None
    psi_f: Callable[[int, float, float], dict] | None = None
    integer_j: bool = False

    def check(self, two_j: int, parameter: float):
        """The family's integer-j and parameter checks, in the order its build runs them."""
        if self.integer_j:
            require_integer_j(two_j, "nonlinear strategy")
        self.check_parameter(two_j, parameter)

    def build(self, two_j: int, parameter: float, **kw) -> WeakValueStrategy:
        """The strategy (g=, eta= as in `wva`); its constructor is looked up on
        `wva` per call, so a rebound one (a tracer, a test double) is seen."""
        if self.levels is None:
            return _wva().strategy_uncorrelated(parameter, **kw)
        self.check(two_j, parameter)
        j = two_j / 2.0
        return _wva().strategy_two_level(two_j, self.kind, *self.levels(j),
                                         **self.psi_f(two_j, j, parameter), **kw)

    def components(self, strat: WeakValueStrategy):
        """(m1, m2, alpha, beta): the two levels and psi_f's amplitudes there."""
        m1, m2 = self.levels(strat.system_space.j)
        space, amps = strat.system_space, strat.psi_f.amplitudes
        return m1, m2, complex(amps[space.index_of(m1)]), complex(amps[space.index_of(m2)])


FAMILIES = {family.name: family for family in (
    # psi_f = (j + A_w)|j,j> + (j - A_w)|j,-j>: A_w on target, P_s = j^2/(j^2 + A_w^2)
    Family("linear_fixed_aw", "linear-fixed-aw", "a_w", "fixed_weak_value",
           kind="jz", levels=lambda j: (j, -j),
           psi_f=lambda two_j, j, a_w: {"coefficients": (j + a_w, j - a_w)}),
    # sigma = 1: P_s pinned to 2j times a per-probe baseline, |A_w| ~ sqrt(j)
    Family("linear_fixed_sigma", "linear-fixed-sigma", "probe_ps", "fixed_per_probe_success",
           kind="jz", levels=lambda j: (j, -j), check_parameter=_check_probe_ps,
           psi_f=lambda two_j, j, probe_ps: {"target_ps": two_j * probe_ps}),
    # A_w = (j^2 + 2j)/2 + j/(2 sqrt(kappa)), P_s = kappa j^2 / (1 + kappa j^2)
    Family("nonlinear_joint", "nonlinear-joint", "kappa", "fixed_per_probe_success",
           kind="nonlinear", levels=lambda j: (0.0, -j), check_parameter=_check_kappa,
           psi_f=lambda two_j, j, kappa: {"target_ps": kappa * j**2, "approx_small_ps": True},
           integer_j=True),
    # P_s = 1/(1 + eps) ~ 1 - eps, A_w grows as j^2
    Family("near_deterministic", "near-deterministic", "epsilon", "fixed_per_probe_success",
           kind="nonlinear", levels=lambda j: (0.0, -j), check_parameter=_check_epsilon,
           psi_f=lambda two_j, j, eps: {"coefficients": (1.0 + sqrt(eps), 1.0 - sqrt(eps))},
           integer_j=True),
    Family("uncorrelated_baseline", "uncorrelated", "theta", "fixed_per_probe_success"),
)}
