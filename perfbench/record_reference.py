#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Writes perfbench/reference/: the stdout of every good `wva-lab` call of the
cli-cold workload, a copy of results/, and dispersive.json with this
commit's RK4 values for every dispersive-validation task. The committed
references were recorded at the commit that introduced the benchmark; a
change that claims a performance gain must not re-record them, since that
would hide any change in output.

For dispersive.json it also solves the oscillating model exactly (a frame
rotation of a static Hamiltonian, psi(t) = e^{i d Jz t} exp(-i (K + d Jz) t)
psi0) and evaluates the fidelity against the effective model with the
opposite dispersive sign, and refuses a `min_fidelity` tolerance that would
reject the exact solver or accept the wrong sign.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from wva_lab.dynamics import _ladder_parts, effective_generator_diag  # noqa: E402
from wva_lab.spin import SpinSpace  # noqa: E402

RULES = {
    # min_fidelity must match the reference within this absolute tolerance.
    "min_fidelity_abs_tol": 1e-7,
    # charge drift and conservation residual may not exceed
    # max(ceiling_factor * seed value, ceiling_floor).
    "ceiling_factor": 1.1,
    "ceiling_floor": 1e-12,
}


def exact_min_fidelity(params, psi0, commutator: bool, sign: float) -> float:
    """Minimum fidelity on the RK4 time grid, with the full model solved
    exactly and the effective generator multiplied by `sign`."""
    h_plus, h_minus, _ = _ladder_parts(params)
    jz = np.repeat(SpinSpace(params.two_j).m_values(), params.fock_cutoff + 1)
    evals, evecs = np.linalg.eigh(h_plus + h_minus + np.diag(params.delta_minus * jz))
    coeffs = evecs.conj().T @ psi0.amplitudes
    steps = max(int(np.ceil(params.t_final / params.dt - 1e-9)), 1)
    times = np.arange(steps + 1) * (params.t_final / steps)
    gen = sign * effective_generator_diag(params, commutator)
    lowest = 1.0
    for chunk in np.array_split(times, max(1, len(times) // 1000)):
        rotating = (evecs[None] * np.exp(-1j * np.outer(chunk, evals))[:, None, :]) @ coeffs
        full = np.exp(1j * params.delta_minus * np.outer(chunk, jz)) * rotating
        eff = np.exp(-1j * np.outer(chunk, gen)) * psi0.amplitudes
        lowest = min(lowest, float(np.min(np.abs(np.sum(full.conj() * eff, axis=1)) ** 2)))
    return lowest


def main():
    ref = BENCH / "reference"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    (ref / "cli").mkdir(parents=True, exist_ok=True)
    for name, argv, code in workloads.CLI_CALLS:
        out, err, got, _ = workloads.run_cli(argv, ROOT, env)
        if got != code:
            raise SystemExit(f"{name}: exit code {got}, expected {code}: {err}")
        if code == 0:
            (ref / "cli" / f"{name}.stdout").write_bytes(out)

    shutil.rmtree(ref / "results", ignore_errors=True)
    shutil.copytree(ROOT / "results", ref / "results")

    tol = RULES["min_fidelity_abs_tol"]
    cases = {}
    for case in workloads.DISPERSIVE_CASES:
        params, psi0 = workloads.dispersive_inputs(case)
        commutator = case[4]
        out = workloads.dispersive_task(params, psi0, commutator)
        out["exact_solver_min_fidelity"] = exact_min_fidelity(params, psi0, commutator, 1.0)
        out["opposite_sign_min_fidelity"] = exact_min_fidelity(params, psi0, commutator, -1.0)
        exact_gap = abs(out["min_fidelity"] - out["exact_solver_min_fidelity"])
        sign_gap = abs(out["min_fidelity"] - out["opposite_sign_min_fidelity"])
        print(f"{workloads.case_key(case)}: min_fidelity {out['min_fidelity']:.12f} "
              f"|rk4 - exact| {exact_gap:.1e} |rk4 - opposite sign| {sign_gap:.1e}")
        if exact_gap > tol / 10 or sign_gap < tol * 10:
            raise SystemExit(f"min_fidelity tolerance {tol:g} does not separate the exact "
                             "solver from the opposite sign by a factor of ten each way")
        cases[workloads.case_key(case)] = out
    doc = {"rules": RULES, "cases": cases}
    (ref / "dispersive.json").write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
