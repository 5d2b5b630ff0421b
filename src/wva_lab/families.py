"""The strategy-family table and the integer-j rule of the nonlinear families.

FAMILIES holds one entry per strategy family; adding a family means adding
an entry (and its `wva.strategy_*` constructor). The command-line flags, the
`scaling --family` names, the even-two-j rule, the sigma baseline and the two
Dicke levels that `circuit-measure` postselects on all come from it.

This module uses only the standard library, so `wva-lab` can read the table
and check its arguments before NumPy is imported; `Family.build` imports
`wva` on its first call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from .wva import WeakValueStrategy


def require_integer_j(two_j: int, what: str):
    if two_j % 2 != 0:
        raise ValueError(f"{what} requires integer j (even two_j); got two_j = {two_j}")


@cache
def _wva():
    """The `wva` module, imported once, on the first strategy built."""
    from . import wva

    return wva


@dataclass(frozen=True)
class Family:
    """One strategy family. `build(two_j, parameter, g=, eta=)` looks the
    `wva.strategy_*` constructor up at call time, so a rebound module
    attribute (a tracer, a test double) is seen. `levels(j)` gives the two
    Dicke levels (m1, m2) where psi_f has weight; None for the uncorrelated
    baseline, whose two_j counts independent single-qubit probes."""

    name: str
    cli_name: str
    param_key: str
    build: Callable[..., WeakValueStrategy]
    levels: Callable[[float], tuple[float, float]] | None
    integer_j: bool
    sigma_baseline: str

    def components(self, strat: WeakValueStrategy):
        """(m1, m2, alpha, beta): the two levels and psi_f's amplitudes there."""
        m1, m2 = self.levels(strat.system_space.j)
        space, amps = strat.system_space, strat.psi_f.amplitudes
        return m1, m2, complex(amps[space.index_of(m1)]), complex(amps[space.index_of(m2)])


FAMILIES = {family.name: family for family in (
    Family("linear_fixed_aw", "linear-fixed-aw", "a_w",
           lambda two_j, p, **kw: _wva().strategy_linear_optimal(two_j, p, **kw),
           lambda j: (j, -j), False, "fixed_weak_value"),
    Family("linear_fixed_sigma", "linear-fixed-sigma", "probe_ps",
           lambda two_j, p, **kw: _wva().strategy_linear_fixed_sigma(two_j, p, **kw),
           lambda j: (j, -j), False, "fixed_per_probe_success"),
    Family("nonlinear_joint", "nonlinear-joint", "kappa",
           lambda two_j, p, **kw: _wva().strategy_nonlinear_joint(two_j, p, **kw),
           lambda j: (0.0, -j), True, "fixed_per_probe_success"),
    Family("near_deterministic", "near-deterministic", "epsilon",
           lambda two_j, p, **kw: _wva().strategy_near_deterministic(two_j, p, **kw),
           lambda j: (0.0, -j), True, "fixed_per_probe_success"),
    Family("uncorrelated_baseline", "uncorrelated", "theta",
           lambda two_j, p, **kw: _wva().strategy_uncorrelated(p, **kw),
           None, False, "fixed_per_probe_success"),
)}
