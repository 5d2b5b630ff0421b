"""The quantum Fisher information of a state family by finite differences:
the reference that the exact QFIs of `wva_lab.fisher` are checked against.
"""

import numpy as np


def qfi_from_family(family, g: float, step: float, richardson: bool = True) -> float:
    """Pure-state QFI of a normalized state family by central differences,
    optionally Richardson-extrapolated once (step and step/2)."""

    def estimate(h: float) -> float:
        fp = family(g + h).amplitudes
        fm = family(g - h).amplitudes
        f0 = family(g).amplitudes
        d = (fp - fm) / (2.0 * h)
        return 4.0 * (float(np.real(np.vdot(d, d))) - abs(np.vdot(d, f0)) ** 2)

    if not richardson:
        return estimate(step)
    coarse = estimate(step)
    fine = estimate(step / 2.0)
    return (4.0 * fine - coarse) / 3.0
