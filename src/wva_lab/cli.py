"""Command-line front end.

Subcommands: weak-value, scaling, circuit-prep, circuit-measure, fisher,
dynamics. A flat JSON config file can seed any run; explicit flags override
file values. Exit codes: 0 success, 1 null postselection, 2 configuration or
usage error.

Every number printed comes from a library call; the CLI only formats
(12 significant digits, scientific below 1e-4). Identical configurations
produce byte-identical output. WVA_LAB_THREADS caps sweep parallelism.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import circuits, dynamics, experiments, fisher
from .boson import coherent_state, FockSpace
from .experiments import _round12
from .linalg import NullPostselectionError, StateVector, fidelity, project_left
from .spin import SpinSpace, dicke_state
from .wva import (
    BASELINE_THETA,
    DEFAULT_ETA,
    DEFAULT_G,
    centered_quadrature,
    evolved_joint,
    meter_readout,
    postselect,
)

#: `scaling --family` values, from the family table.
BY_CLI_NAME = {fam.cli_name: fam for fam in experiments.FAMILIES.values()}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Merged flag/file configuration for one run."""

    command: str
    values: dict = field(default_factory=dict)

    def get(self, key, default=None):
        return self.values.get(key, default)

    def require(self, key):
        v = self.values.get(key)
        if v is None:
            raise ConfigError(f"{key.replace('_', '-')}: required for this command")
        return v


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return _round12(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": _round12(obj.real), "im": _round12(obj.imag)}
    return obj


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, output: str | None):
    _emit(json.dumps(_jsonify(doc), indent=2) + "\n", output)


def _merge_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config: cannot read {path}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config: top level must be a flat JSON object")
        values.update(file_values)
    for key, val in vars(args).items():
        if key in ("command", "config", "func"):
            continue
        if val is not None:
            values[key] = val
    return RunConfig(command=args.command, values=values)


def _positive(cfg: RunConfig, key: str, kind=float):
    v = kind(cfg.require(key))
    if v <= 0:
        raise ConfigError(f"{key.replace('_', '-')}: must be positive, got {v}")
    return v


def _integer(cfg: RunConfig, key: str, default=None) -> int:
    """An integer setting: an int or integral float, never a bool or str."""
    v = cfg.require(key) if default is None else cfg.get(key, default)
    if isinstance(v, bool) or not (isinstance(v, int)
                                   or isinstance(v, float) and v.is_integer()):
        raise ConfigError(f"{key.replace('_', '-')}: must be an integer, got {v!r}")
    return int(v)


def _switch(cfg: RunConfig, key: str) -> bool:
    """An on/off setting: a flag, or a JSON boolean in a config file."""
    v = cfg.get(key, False)
    if not isinstance(v, bool):
        raise ConfigError(f"{key.replace('_', '-')}: must be true or false, got {v!r}")
    return v


def _build_single_strategy(cfg: RunConfig):
    """The strategy of the one family whose parameter is set, and its entry."""
    chosen = [fam for fam in experiments.FAMILIES.values() if cfg.get(fam.param_key) is not None]
    if len(chosen) != 1:
        flags = " / ".join(f"--{fam.param_key.replace('_', '-')}"
                           for fam in experiments.FAMILIES.values())
        raise ConfigError(f"choose exactly one of {flags}")
    fam = chosen[0]
    # the uncorrelated baseline is a single probe: it takes no register size
    two_j = _integer(cfg, "two_j") if fam.levels is not None else 1
    strat = fam.build(two_j, float(cfg.get(fam.param_key)),
                      g=float(cfg.get("g", DEFAULT_G)),
                      eta=complex(cfg.get("eta", DEFAULT_ETA)))
    return strat, fam


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_weak_value(cfg: RunConfig) -> int:
    strat, fam = _build_single_strategy(cfg)
    result = postselect(strat)
    r_op = centered_quadrature(strat)
    shift_exact, shift_formula = meter_readout(result, r_op, strat)
    doc = {
        "command": "weak-value",
        "family": fam.name,
        "two_j": strat.system_space.two_j,
        "g": strat.g,
        "weak_value": result.weak_value,
        "abs_weak_value": abs(result.weak_value),
        "success_prob_exact": result.success_prob_exact,
        "success_prob_zeroth": result.success_prob_zeroth,
        "fidelity_exact_vs_firstorder": result.fidelity_exact_vs_firstorder,
        "meter_shift_exact": shift_exact,
        "meter_shift_firstorder": shift_formula,
    }
    _emit_json(doc, cfg.get("output"))
    return 0


def cmd_scaling(cfg: RunConfig) -> int:
    family_flag = cfg.require("family")
    if family_flag not in BY_CLI_NAME:
        raise ConfigError(f"family: unknown {family_flag!r}; "
                          f"valid: {', '.join(sorted(BY_CLI_NAME))}")
    fam = BY_CLI_NAME[family_flag]
    parameter = float(cfg.require(fam.param_key))
    j_min = _integer(cfg, "j_min", 4)
    j_max = _integer(cfg, "j_max", 20)
    j_step = _integer(cfg, "j_step", 2)
    if j_min < 1 or j_max < j_min or j_step < 1:
        raise ConfigError("j-min/j-max/j-step: need 1 <= j-min <= j-max and j-step >= 1")
    sizes = list(range(j_min, j_max + 1, j_step))
    if fam.integer_j:
        sizes = [tj for tj in sizes if tj % 2 == 0]
        if not sizes:
            raise ConfigError(f"{fam.name} requires integer j: no even two-j "
                              "values in the requested range")
    max_workers = max(int(os.environ.get("WVA_LAB_THREADS", "1")), 1)
    records = experiments.sweep(
        fam.name, sizes, parameter,
        g=float(cfg.get("g", DEFAULT_G)),
        eta=complex(cfg.get("eta", DEFAULT_ETA)),
        baseline_theta=float(cfg.get("baseline_theta", BASELINE_THETA)),
        with_circuits=not _switch(cfg, "no_circuits"),
        max_workers=max_workers,
    )
    fits = {}
    if len(records) >= 4:
        for name in ("abs_weak_value", "success_prob", "sigma"):
            fits[f"{name}_vs_two_j"] = experiments.fit_loglog(records, "two_j", name)
    fmt = cfg.get("format", "json")
    if fmt == "csv":
        _emit(experiments.records_to_csv(records, fits), cfg.get("output"))
    elif fmt == "json":
        _emit(experiments.records_to_json(fam.name, parameter, records, fits),
              cfg.get("output"))
    else:
        raise ConfigError(f"format: unknown {fmt!r}; valid: csv, json")
    return 0


def cmd_circuit_prep(cfg: RunConfig) -> int:
    two_j = _integer(cfg, "two_j")
    m1 = float(cfg.require("m1"))
    m2 = float(cfg.require("m2"))
    alpha = float(cfg.get("alpha", 1 / np.sqrt(2)))
    beta = float(cfg.get("beta", 1 / np.sqrt(2)))
    zeta_kind = cfg.get("zeta", "plus-all").replace("-", "_")
    doc = {"command": "circuit-prep", "two_j": two_j, "m1": m1, "m2": m2,
           "zeta": zeta_kind}
    analytic = circuits.prep_probability_analytic(two_j, m1, m2, zeta_kind)
    if two_j <= circuits.MAX_REGISTER_TWO_J and not _switch(cfg, "analytic"):
        zeta = circuits.reference_state(two_j, zeta_kind, m1, m2)
        res = circuits.prep_circuit(two_j, m1, m2, alpha, beta, zeta)
        doc.update({
            "success_prob": res.success_prob,
            "ancilla_normalized_prob": res.ancilla_normalized_prob,
            "analytic_prob": analytic,
            "leakage": res.leakage,
            "output_amplitudes": [complex(c) for c in res.output_system.amplitudes],
        })
    else:
        doc["analytic_prob"] = analytic
    if two_j % 2 == 0 and m1 == 0.0 and abs(m2 + two_j / 2.0) < 1e-12 \
            and zeta_kind == "plus_all":
        doc["overlap_conventions"] = circuits.prep_probability_conventions(two_j)
    _emit_json(doc, cfg.get("output"))
    return 0


def cmd_circuit_measure(cfg: RunConfig) -> int:
    strat, fam = _build_single_strategy(cfg)
    if fam.levels is None:
        raise ConfigError(f"circuit-measure: {fam.name} has no two-component "
                          "postselection state")
    two_j = strat.system_space.two_j
    m1, m2, alpha, beta = fam.components(strat)
    meter_dim = strat.meter_space.dim
    joint = evolved_joint(strat)
    projection = project_left(joint, strat.psi_f, meter_dim)
    doc = {"command": "circuit-measure", "two_j": two_j, "g": strat.g,
           "alpha": alpha, "beta": beta,
           "analytic_p_tilde": circuits.measure_probability_analytic(
               two_j, m1, m2, "dicke_superposition", projection.probability)}
    if two_j <= circuits.MAX_REGISTER_TWO_J and not _switch(cfg, "analytic"):
        zeta = circuits.reference_state(two_j, "dicke_superposition", m1, m2)
        res = circuits.measure_circuit(two_j, joint, m1, m2, alpha, beta, zeta,
                                       meter_dim)
        doc.update({
            "p_tilde": res.p_tilde,
            "conditional_meter_fidelity_vs_postselect":
                fidelity(res.conditional_meter, projection.collapsed),
        })
    _emit_json(doc, cfg.get("output"))
    return 0


def cmd_fisher(cfg: RunConfig) -> int:
    strat, fam = _build_single_strategy(cfg)
    report = fisher.postselected_fisher_ratio(strat)
    doc = {
        "command": "fisher",
        "family": fam.name,
        "two_j": strat.system_space.two_j,
        "g": strat.g,
        "qfi_total": report.qfi_total,
        "qfi_postselected": report.qfi_postselected,
        "qfi_meter_unweighted": report.qfi_meter_unweighted,
        "success_prob": report.success_prob,
        "ratio": report.ratio,
        "ratio_prediction": report.ratio_prediction,
        "small_eta_prediction": report.small_eta_prediction,
    }
    if fam.integer_j:  # the closed forms describe only the nonlinear state
        eta = complex(cfg.get("eta", DEFAULT_ETA))
        exact, approx = fisher.qfi_nonlinear_coherent(strat.system_space.two_j, eta)
        doc["qfi_closed_form_exact"] = exact
        doc["qfi_closed_form_small_eta"] = approx
    _emit_json(doc, cfg.get("output"))
    return 0


def cmd_dynamics(cfg: RunConfig) -> int:
    two_j = _integer(cfg, "two_j", 2)
    g0 = _positive(cfg, "g0")
    delta = float(cfg.require("delta_minus"))
    cutoff = _integer(cfg, "fock_cutoff", 6)
    g_disp = 4.0 * g0**2 / delta
    t_final = float(cfg.get("t_final", 2 * np.pi / abs(g_disp)))
    dt = float(cfg.get("dt", 0.05 / abs(delta)))
    params = dynamics.TwoPhotonTCParams(two_j=two_j, g0=g0, delta_minus=delta,
                                        fock_cutoff=cutoff, t_final=t_final, dt=dt)
    space = SpinSpace(two_j)
    m_init = float(cfg.get("m_init", 0.0))
    meter_eta = float(cfg.get("meter_eta", 0.25))
    if meter_eta == 0.0:
        meter = StateVector.basis(cutoff + 1, 0)
    else:
        # validation probe: a renormalized truncated coherent state is fine
        meter = coherent_state(FockSpace(cutoff, tail_tolerance=1e-6), meter_eta)
    sys0 = dicke_state(space, m_init)
    psi0 = StateVector(space.dim * (cutoff + 1),
                       np.kron(sys0.amplitudes, meter.amplitudes))
    min_fid, trace = dynamics.effective_model_fidelity(
        params, psi0, store_every=_integer(cfg, "store_every", 200),
        include_commutator_terms=_switch(cfg, "commutator_terms"))
    doc = {
        "command": "dynamics",
        "two_j": two_j,
        "g0": g0,
        "delta_minus": delta,
        "g_dispersive": params.g_dispersive,
        "fock_cutoff": cutoff,
        "t_final": t_final,
        "dt": dynamics.time_grid(params)[1],
        "min_fidelity": min_fid,
        "max_infidelity": 1.0 - min_fid,
        "max_norm_drift": trace.max_norm_drift,
        "conservation_residual": dynamics.conservation_residual(params),
        "charge_drift": dynamics.charge_drift(params, trace),
    }
    _emit_json(doc, cfg.get("output"))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat JSON config file; flags override it")
    p.add_argument("--output", help="write result to this path instead of stdout")


def _add_strategy_flags(p: argparse.ArgumentParser):
    """--g, --eta and one flag per family parameter, from the family table."""
    for fam in experiments.FAMILIES.values():
        p.add_argument(f"--{fam.param_key.replace('_', '-')}", dest=fam.param_key, type=float)
    p.add_argument("--g", type=float)
    p.add_argument("--eta", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wva-lab",
        description="Weak-value amplification with collective nonlinear probes: "
                    "strategies, scaling sweeps, circuits, Fisher accounting and "
                    "effective-model validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weak-value", help="one postselection run")
    p.add_argument("--two-j", dest="two_j", type=int)
    _add_strategy_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_weak_value)

    p = sub.add_parser("scaling", help="sweep register sizes and fit exponents")
    p.add_argument("--family", choices=sorted(BY_CLI_NAME))
    p.add_argument("--j-min", dest="j_min", type=int)
    p.add_argument("--j-max", dest="j_max", type=int)
    p.add_argument("--j-step", dest="j_step", type=int)
    _add_strategy_flags(p)
    p.add_argument("--baseline-theta", dest="baseline_theta", type=float)
    p.add_argument("--no-circuits", dest="no_circuits", action="store_true",
                   default=None)
    p.add_argument("--format", choices=["csv", "json"])
    _add_common(p)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("circuit-prep", help="superposition-preparation circuit")
    p.add_argument("--two-j", dest="two_j", type=int)
    p.add_argument("--m1", type=float)
    p.add_argument("--m2", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--zeta", choices=["plus-all", "dicke-superposition"])
    p.add_argument("--analytic", action="store_true", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_circuit_prep)

    p = sub.add_parser("circuit-measure", help="postselection-measurement circuit")
    p.add_argument("--two-j", dest="two_j", type=int)
    _add_strategy_flags(p)
    p.add_argument("--analytic", action="store_true", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_circuit_measure)

    p = sub.add_parser("fisher", help="Fisher-information report")
    p.add_argument("--two-j", dest="two_j", type=int)
    _add_strategy_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_fisher)

    p = sub.add_parser("dynamics", help="effective-model fidelity validation")
    p.add_argument("--two-j", dest="two_j", type=int)
    p.add_argument("--g0", type=float)
    p.add_argument("--delta-minus", dest="delta_minus", type=float)
    p.add_argument("--fock-cutoff", dest="fock_cutoff", type=int)
    p.add_argument("--t-final", dest="t_final", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--meter-eta", dest="meter_eta", type=float)
    p.add_argument("--m-init", dest="m_init", type=float)
    p.add_argument("--store-every", dest="store_every", type=int)
    p.add_argument("--commutator-terms", dest="commutator_terms",
                   action="store_true", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_dynamics)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _merge_config(args)
        return args.func(cfg)
    except NullPostselectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
