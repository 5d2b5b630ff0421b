#!/usr/bin/env python3
"""Sweep every strategy family over its default grid and write CSV + JSON
records with fitted exponents into results/."""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from wva_lab.experiments import fit_loglog, records_to_csv, records_to_json, sweep

RUNS = [
    # family, two_j grid, parameter, coupling
    ("nonlinear_joint", range(4, 21, 2), 1e-4, 1e-4),
    ("nonlinear_joint", range(4, 19, 2), 1e-3, 1e-4),
    ("near_deterministic", range(200, 601, 50), 0.04, 1e-6),
    ("near_deterministic", range(200, 601, 50), 0.01, 1e-6),
    ("linear_fixed_aw", range(4, 21, 2), 250.0, 1e-4),
    ("linear_fixed_sigma", range(4, 21, 2), float(np.sin(0.05) ** 2), 1e-4),
    ("uncorrelated_baseline", range(4, 21, 2), 0.05, 1e-4),
]


def render():
    """Yield (stem, fits, CSV text, JSON text) for every entry of RUNS."""
    for family, grid, parameter, g in RUNS:
        records = sweep(family, grid, parameter, g=g,
                        with_circuits=family != "uncorrelated_baseline")
        fits = {f"{y}_vs_two_j": fit_loglog(records, "two_j", y)
                for y in ("abs_weak_value", "success_prob", "sigma")}
        yield (f"{family}_{parameter:g}", fits, records_to_csv(records, fits),
               records_to_json(family, parameter, records, fits))


def main():
    outdir = pathlib.Path(__file__).resolve().parents[1] / "results"
    outdir.mkdir(exist_ok=True)
    for stem, fits, csv_text, json_text in render():
        (outdir / f"{stem}.csv").write_text(csv_text)
        (outdir / f"{stem}.json").write_text(json_text)
        print(f"{stem}:")
        for name, fit in fits.items():
            print(f"  {name}: slope {fit.slope:+.4f} (r^2 {fit.r_squared:.6f})")
    print(f"\nwrote {2 * len(RUNS)} files to {outdir}")


if __name__ == "__main__":
    main()
