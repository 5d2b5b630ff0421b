"""Scaling sweeps over register size and log-log exponent fits, plus the
CSV/JSON record emission used by the CLI.

The strategy-family table FAMILIES lives in `families` and is re-exported
here. A family's sigma baseline is recorded in every JSON header:
"fixed_weak_value" compares against an uncorrelated single probe tuned to the
*same* weak value, under which the collective linear strategy shows
sigma ~ j; "fixed_per_probe_success" compares against an uncorrelated probe
whose success probability is held fixed across j (postselection angle
BASELINE_THETA), the at-least-one-click comparison.

Everything is closed-form or deterministic arithmetic; two runs with the
same configuration produce byte-identical output. A record evolves and
projects its joint state once, in `fisher.postselected_fisher_ratio`; the
measurement-circuit column is the reference-overlap prefactor times that
exact P_s, and the preparation column runs the brute-force circuit only
within the register cap (two_j <= 10), each control-SWAP branch on its own
nonzero block: about 0.2 ms per record at two_j = 10. The collective families'
observables are diagonal and stored as vectors, so one record costs
O(two_j) memory and the sweeps reach two_j = 10^5. The kick is phased only
on psi_i's two Dicke levels. What depends only on the register size (the
diagonal observables, psi_i, the circuits' Dicke embeddings) is built once
per size, the coherent meter and its moments once per eta, and every array
is validated once, without a copy: a near_deterministic record costs about
0.12 ms at two_j = 200 and 0.15 ms at two_j = 600 (2 cores, CPython 3.11,
NumPy 2.4, one BLAS thread), most of it in evolving, projecting and
reducing the full-length joint state and in building psi_f.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import sin

import numpy as np

from . import circuits, fisher
from .families import FAMILIES, Family
from .wva import (
    BASELINE_THETA,
    DEFAULT_ETA,
    DEFAULT_G,
    WeakValueStrategy,
    collective_success,
    sigma_advantage,
    success_probability,
)


CSV_HEADER = ("two_j,parameter,abs_weak_value,success_prob,sigma,"
              "qfi_total,fisher_ratio,prep_prob,measure_prob")

SCHEMA_VERSION = "wva-lab/scaling-records/v1"


@dataclass(frozen=True)
class ScalingRecord:
    two_j: int
    kappa_or_epsilon: float
    abs_weak_value: float
    success_prob: float
    sigma: float
    qfi_total: float
    fisher_ratio: float
    circuit_prep_prob: float | None
    circuit_measure_prob: float | None


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    points_used: int


def fmt_float(x: float) -> str:
    """12 significant digits; %g switches to scientific below 1e-4."""
    return f"{x:.12g}"


def _lookup(family: str) -> Family:
    if family not in FAMILIES:
        raise ValueError(f"unknown strategy family {family!r}; valid: {tuple(FAMILIES)}")
    return FAMILIES[family]


def _sigma_for(fam: Family, two_j: int, parameter: float, ps: float,
               baseline_theta: float) -> float:
    if fam.levels is None:  # 2j independent probes, each succeeding with ps
        return sigma_advantage(collective_success(ps, two_j).exact, two_j, ps)
    if fam.sigma_baseline == "fixed_weak_value":
        probe = fam.build(1, parameter)
        return sigma_advantage(ps, two_j, success_probability(probe.psi_i, probe.psi_f))
    return sigma_advantage(ps, two_j, sin(baseline_theta) ** 2)


def _circuit_probs(fam: Family, strat: WeakValueStrategy, success_prob: float):
    """Preparation weight and measurement probability for the strategy's
    two-component states. The measurement probability is the closed form:
    the reference-overlap prefactor times the exact postselection
    probability `success_prob`, at every size."""
    two_j = strat.system_space.two_j
    m1, m2 = fam.levels(strat.system_space.j)
    # Brute force within the register cap (each branch on its nonzero
    # block, 2 x 252 x 1 amplitudes at two_j = 10): at two_j = 8 the exact
    # weight 70 x 2^-16 sits on a 12-digit tie that the brute-force roundoff
    # prints as ...437 and the closed form as ...438, and the recorded CLI
    # reference holds ...437 (ROADMAP item 2 re-records it).
    if two_j <= circuits.MAX_REGISTER_TWO_J:
        zeta_prep = circuits.reference_state(two_j, "plus_all")
        prep = circuits.prep_circuit(two_j, m1, m2, 1 / np.sqrt(2), 1 / np.sqrt(2),
                                     zeta_prep).success_prob
    else:
        prep = circuits.prep_probability_analytic(two_j, m1, m2, "plus_all")
    meas = circuits.measure_probability_analytic(two_j, m1, m2, "dicke_superposition",
                                                 success_prob)
    return prep, meas


def _one_record(fam: Family, two_j: int, parameter: float, g: float, eta: complex,
                baseline_theta: float, with_circuits: bool) -> ScalingRecord:
    strat = fam.build(two_j, parameter, g=g, eta=eta)
    # the one evolution and projection of the joint state in a record
    report = fisher.postselected_fisher_ratio(strat)
    # `success_probability` from the overlap the strategy already holds
    ps = min(abs(strat.initial_overlap) ** 2, 1.0)
    sigma = _sigma_for(fam, two_j, parameter, ps, baseline_theta)
    prep = meas = None
    if with_circuits and fam.levels is not None:
        prep, meas = _circuit_probs(fam, strat, report.success_prob)
    # For the uncorrelated family two_j counts independent probes, each a
    # fresh single-qubit strategy; for collective families it is the register.
    return ScalingRecord(
        two_j=two_j,
        kappa_or_epsilon=parameter,
        abs_weak_value=abs(report.weak_value),
        success_prob=ps,
        sigma=sigma,
        qfi_total=report.qfi_total,
        fisher_ratio=report.ratio,
        circuit_prep_prob=prep,
        circuit_measure_prob=meas,
    )


def sweep(family: str, two_j_values, parameter: float, *, g: float = DEFAULT_G,
          eta: complex = DEFAULT_ETA, baseline_theta: float = BASELINE_THETA,
          with_circuits: bool = True, max_workers: int = 1) -> list[ScalingRecord]:
    """One ScalingRecord per register size, sorted by two_j.

    Records for distinct sizes are independent; `max_workers` > 1 computes
    them on a thread pool. Output order and values are identical either way.
    """
    fam = _lookup(family)
    sizes = sorted(set(int(v) for v in two_j_values))
    if not sizes:
        raise ValueError("need at least one two_j value")

    def make(tj):
        return _one_record(fam, tj, parameter, g, eta, baseline_theta, with_circuits)

    if max_workers > 1:
        # imported here: no other caller needs the pool, and it costs every
        # process that imports the package about 3 ms and 0.6 MB
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            records = list(pool.map(make, sizes))
    else:
        records = [make(tj) for tj in sizes]
    return sorted(records, key=lambda r: r.two_j)


def fit_loglog(records, x: str, y: str) -> FitResult:
    """Least squares on (log x, log y) over record fields; the slope is the
    scaling exponent."""
    xs = np.array([getattr(r, x) for r in records], dtype=float)
    ys = np.array([getattr(r, y) for r in records], dtype=float)
    if len(xs) < 4:
        raise ValueError("need at least 4 records for an exponent fit")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs strictly positive values")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - float(np.sum(resid**2)) / ss_tot))
    return FitResult(slope=float(slope), intercept=float(intercept),
                     r_squared=r2, points_used=len(xs))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    return fmt_float(float(value))


def records_to_csv(records, fits: dict | None = None) -> str:
    """CSV per the published schema; fit summaries go into trailing comment
    lines so the record table stays machine-clean."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            str(r.two_j),
            fmt_float(r.kappa_or_epsilon),
            fmt_float(r.abs_weak_value),
            fmt_float(r.success_prob),
            fmt_float(r.sigma),
            fmt_float(r.qfi_total),
            fmt_float(r.fisher_ratio),
            _cell(r.circuit_prep_prob),
            _cell(r.circuit_measure_prob),
        ]))
    if fits:
        for name, fit in fits.items():
            lines.append(f"# fit {name}: slope={fmt_float(fit.slope)} "
                         f"intercept={fmt_float(fit.intercept)} "
                         f"r_squared={fmt_float(fit.r_squared)} "
                         f"points={fit.points_used}")
    return "\n".join(lines) + "\n"


def _round12(value):
    if value is None:
        return None
    return float(fmt_float(float(value)))


def record_to_dict(r: ScalingRecord) -> dict:
    return {
        "two_j": r.two_j,
        "parameter": _round12(r.kappa_or_epsilon),
        "abs_weak_value": _round12(r.abs_weak_value),
        "success_prob": _round12(r.success_prob),
        "sigma": _round12(r.sigma),
        "qfi_total": _round12(r.qfi_total),
        "fisher_ratio": _round12(r.fisher_ratio),
        "prep_prob": _round12(r.circuit_prep_prob),
        "measure_prob": _round12(r.circuit_measure_prob),
    }


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_members(doc: dict) -> list[str]:
    """The `"key": value` members of a dict with identifier keys and int,
    float or None values, each as `json.dumps` writes it (any other value
    raises TypeError, as there)."""
    members = []
    for key, value in doc.items():
        if value is None:
            text = "null"
        elif isinstance(value, float):
            text = float.__repr__(value)
            text = _JSON_NON_FINITE.get(text, text)
        else:
            text = int.__repr__(value)
        members.append(f'"{key}": {text}')
    return members


def _json_object(members: list[str], level: int) -> str:
    """A non-empty JSON object at nesting depth `level`, laid out as
    `json.dumps(indent=2)` lays it out, from its encoded members."""
    pad = "  " * (level + 1)
    return "{\n" + pad + (",\n" + pad).join(members) + "\n" + "  " * level + "}"


def records_to_json(family: str, parameter: float, records,
                    fits: dict | None = None) -> str:
    """The records document: byte for byte what `json.dumps(doc, indent=2)`
    writes, without its pure-Python indenting encoder, which costs several
    times this direct layout."""
    head = _json_members({"parameter": _round12(parameter)})
    baseline = _lookup(family).sigma_baseline
    blocks = [_json_object(_json_members(record_to_dict(r)), 2) for r in records]
    members = [f'"schema": {json.dumps(SCHEMA_VERSION)}', f'"family": {json.dumps(family)}',
               *head, f'"sigma_baseline": {json.dumps(baseline)}',
               '"records": ' + ("[\n    " + ",\n    ".join(blocks) + "\n  ]" if blocks else "[]")]
    if fits:
        members.append('"fits": ' + _json_object([
            f"{json.dumps(name)}: " + _json_object(_json_members({
                "slope": _round12(fit.slope),
                "intercept": _round12(fit.intercept),
                "r_squared": _round12(fit.r_squared),
                "points_used": fit.points_used,
            }), 2)
            for name, fit in fits.items()], 1))
    return _json_object(members, 0) + "\n"
