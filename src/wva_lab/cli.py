"""Command-line front end.

Subcommands: weak-value, scaling, circuit-prep, circuit-measure, fisher,
dynamics. A flat JSON config file can seed any run; explicit flags override
file values. Exit codes: 0 success, 1 null postselection, 2 configuration or
usage error.

Every number printed comes from a library call; the CLI only formats
(12 significant digits, scientific below 1e-4). Identical configurations
produce byte-identical output.

At load this module imports only the standard library and the family table.
Each subcommand checks every setting first and then imports the library
modules it runs, so a rejected call never loads NumPy and `circuit-prep`
loads no `dynamics`, `experiments` or `fisher`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

from .families import FAMILIES, check_ancilla, require_integer_j

#: `scaling --family` values, from the family table.
BY_CLI_NAME = {fam.cli_name: fam for fam in FAMILIES.values()}

#: `scaling --format` values.
FORMATS = ("csv", "json")


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
            raise ConfigError(f"{_flag(key)}: required for this command")
        return v


def _flag(key: str) -> str:
    return key.replace("_", "-")


def _round12(value) -> float:
    """`value` at 12 significant digits, as `experiments.fmt_float` prints it
    (`experiments._round12`, which this module does not import at load)."""
    return float(f"{float(value):.12g}")


def _jsonify(obj):
    import numpy as np  # every command that prints a document has loaded it

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
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"output: cannot write {output}: {exc}") from exc
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


def _number(cfg: RunConfig, key: str, default=None, kind=float):
    """A real (or, with kind=complex, complex) setting; `default` when unset.
    A value of another type, such as a JSON list, is a ConfigError; a string
    that is no number raises the ValueError of `kind`."""
    v = cfg.get(key, default)
    if v is None:
        return None
    try:
        return kind(v)
    except TypeError:
        raise ConfigError(f"{_flag(key)}: must be a number, got {v!r}") from None


def _real(cfg: RunConfig, key: str) -> float:
    """A required real setting."""
    cfg.require(key)
    return _number(cfg, key)


def _positive(cfg: RunConfig, key: str) -> float:
    v = _real(cfg, key)
    if v <= 0:
        raise ConfigError(f"{_flag(key)}: must be positive, got {v}")
    return v


def _integer(cfg: RunConfig, key: str, default=None) -> int:
    """An integer setting: an int or integral float, never a bool or str."""
    v = cfg.require(key) if default is None else cfg.get(key, default)
    if isinstance(v, bool) or not (isinstance(v, int)
                                   or isinstance(v, float) and v.is_integer()):
        raise ConfigError(f"{_flag(key)}: must be an integer, got {v!r}")
    return int(v)


def _finite(cfg: RunConfig, key: str) -> float:
    """A required real setting that must be finite."""
    v = _real(cfg, key)
    if not math.isfinite(v):
        raise ConfigError(f"{_flag(key)}: must be finite, got {v}")
    return v


def _switch(cfg: RunConfig, key: str) -> bool:
    """An on/off setting: a flag, or a JSON boolean in a config file."""
    v = cfg.get(key, False)
    if not isinstance(v, bool):
        raise ConfigError(f"{_flag(key)}: must be true or false, got {v!r}")
    return v


def _keywords(**values) -> dict:
    """The settings that are set, as keyword arguments: an unset one keeps
    the library's default."""
    return {key: v for key, v in values.items() if v is not None}


def _single_family(cfg: RunConfig):
    """(family, two_j, parameter, g/eta keywords) of the one family whose
    parameter is set, every setting checked but `Family.check`."""
    chosen = [fam for fam in FAMILIES.values() if cfg.get(fam.param_key) is not None]
    if len(chosen) != 1:
        flags = " / ".join(f"--{_flag(fam.param_key)}" for fam in FAMILIES.values())
        raise ConfigError(f"choose exactly one of {flags}")
    fam = chosen[0]
    if fam.levels is None and cfg.get("two_j") is not None:
        raise ConfigError(f"two-j: {fam.name} is a single probe and takes no register size, "
                          f"got {cfg.get('two_j')!r}")
    two_j = _integer(cfg, "two_j") if fam.levels is not None else 1
    parameter = _finite(cfg, fam.param_key)
    kw = _keywords(g=_number(cfg, "g"), eta=_number(cfg, "eta", kind=complex))
    if fam.integer_j:
        require_integer_j(two_j, "nonlinear strategy")
    return fam, two_j, parameter, kw


def _null_postselection(exc: ValueError) -> bool:
    """Whether `exc` is the library's NullPostselectionError; it cannot be
    before the library is loaded, so this loads nothing."""
    linalg = sys.modules.get(f"{__package__}.linalg")
    return linalg is not None and isinstance(exc, linalg.NullPostselectionError)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_weak_value(cfg: RunConfig) -> int:
    fam, two_j, parameter, kw = _single_family(cfg)
    fam.check(two_j, parameter)
    from .wva import centered_quadrature, meter_readout, postselect

    strat = fam.build(two_j, parameter, **kw)
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
    parameter = _finite(cfg, fam.param_key)
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
    kw = _keywords(g=_number(cfg, "g"), eta=_number(cfg, "eta", kind=complex),
                   baseline_theta=_number(cfg, "baseline_theta"))
    with_circuits = not _switch(cfg, "no_circuits")
    fmt = cfg.get("format", "json")
    if fmt not in FORMATS:
        raise ConfigError(f"format: unknown {fmt!r}; valid: {', '.join(FORMATS)}")
    from . import experiments

    records = experiments.sweep(fam.name, sizes, parameter, with_circuits=with_circuits, **kw)
    fits = {}
    if len(records) >= 4:
        for name in ("abs_weak_value", "success_prob", "sigma"):
            fits[f"{name}_vs_two_j"] = experiments.fit_loglog(records, "two_j", name)
    if fmt == "csv":
        _emit(experiments.records_to_csv(records, fits), cfg.get("output"))
    else:
        _emit(experiments.records_to_json(fam.name, parameter, records, fits),
              cfg.get("output"))
    return 0


def cmd_circuit_prep(cfg: RunConfig) -> int:
    two_j = _integer(cfg, "two_j")
    m1 = _finite(cfg, "m1")
    m2 = _finite(cfg, "m2")
    alpha = _number(cfg, "alpha", 1 / math.sqrt(2))
    beta = _number(cfg, "beta", 1 / math.sqrt(2))
    zeta = cfg.get("zeta", "plus-all")
    if not isinstance(zeta, str):
        raise ConfigError(f"zeta: must be a reference name, got {zeta!r}")
    zeta_kind = zeta.replace("-", "_")
    analytic_only = _switch(cfg, "analytic")
    check_ancilla(alpha, beta)
    from . import circuits

    doc = {"command": "circuit-prep", "two_j": two_j, "m1": m1, "m2": m2,
           "zeta": zeta_kind}
    analytic = circuits.prep_probability_analytic(two_j, m1, m2, zeta_kind)
    if two_j <= circuits.MAX_REGISTER_TWO_J and not analytic_only:
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
    fam, two_j, parameter, kw = _single_family(cfg)
    if fam.levels is None:
        raise ConfigError(f"circuit-measure: {fam.name} has no two-component "
                          "postselection state")
    analytic_only = _switch(cfg, "analytic")
    fam.check(two_j, parameter)
    from . import circuits
    from .linalg import fidelity, project_left
    from .wva import evolved_joint

    strat = fam.build(two_j, parameter, **kw)
    m1, m2, alpha, beta = fam.components(strat)
    meter_dim = strat.meter_space.dim
    joint = evolved_joint(strat)
    projection = project_left(joint, strat.psi_f, meter_dim)
    doc = {"command": "circuit-measure", "two_j": two_j, "g": strat.g,
           "alpha": alpha, "beta": beta,
           "analytic_p_tilde": circuits.measure_probability_analytic(
               two_j, m1, m2, "dicke_superposition", projection.probability)}
    if two_j <= circuits.MAX_REGISTER_TWO_J and not analytic_only:
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
    fam, two_j, parameter, kw = _single_family(cfg)
    fam.check(two_j, parameter)
    from . import fisher
    from .wva import DEFAULT_ETA

    strat = fam.build(two_j, parameter, **kw)
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
        exact, approx = fisher.qfi_nonlinear_coherent(strat.system_space.two_j,
                                                      kw.get("eta", DEFAULT_ETA))
        doc["qfi_closed_form_exact"] = exact
        doc["qfi_closed_form_small_eta"] = approx
    _emit_json(doc, cfg.get("output"))
    return 0


def cmd_dynamics(cfg: RunConfig) -> int:
    two_j = _integer(cfg, "two_j", 2)
    g0 = _positive(cfg, "g0")
    delta = _real(cfg, "delta_minus")
    if delta == 0.0 or not math.isfinite(delta):  # before the default t_final and dt divide by it
        raise ConfigError(f"delta_minus must be nonzero and finite, got {delta}")
    cutoff = _integer(cfg, "fock_cutoff", 6)
    t_final = _number(cfg, "t_final")
    dt = _number(cfg, "dt", 0.05 / abs(delta))
    m_init = _number(cfg, "m_init", 0.0)
    meter_eta = _number(cfg, "meter_eta", 0.25)
    store_every = _integer(cfg, "store_every", 200)
    commutator_terms = _switch(cfg, "commutator_terms")
    import numpy as np

    from . import dynamics
    from .boson import FockSpace, coherent_state
    from .linalg import StateVector
    from .spin import SpinSpace, dicke_state

    g_disp = dynamics.dispersive_coupling(g0, delta)
    if g_disp == 0.0 or not math.isfinite(g_disp):  # before the default t_final divides by it
        raise ConfigError(f"g_dispersive = 4 g0^2 / delta_minus must be nonzero and finite, "
                          f"got {g_disp} for g0 = {g0}, delta_minus = {delta}")
    if t_final is None:
        t_final = 2 * math.pi / abs(g_disp)
    params = dynamics.TwoPhotonTCParams(two_j=two_j, g0=g0, delta_minus=delta,
                                        fock_cutoff=cutoff, t_final=t_final, dt=dt)
    space = SpinSpace(two_j)
    # validation probe: a renormalized truncated coherent state is fine
    meter = coherent_state(FockSpace(cutoff, tail_tolerance=1e-6), meter_eta)
    sys0 = dicke_state(space, m_init)
    psi0 = StateVector(space.dim * (cutoff + 1),
                       np.kron(sys0.amplitudes, meter.amplitudes))
    min_fid, trace = dynamics.effective_model_fidelity(
        params, psi0, store_every=store_every, include_commutator_terms=commutator_terms)
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
    for fam in FAMILIES.values():
        p.add_argument(f"--{_flag(fam.param_key)}", dest=fam.param_key, type=float)
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
    p.add_argument("--format", choices=FORMATS)
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
    except ValueError as exc:  # ConfigError too
        print(f"error: {exc}", file=sys.stderr)
        return 1 if _null_postselection(exc) else 2


def main():  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
