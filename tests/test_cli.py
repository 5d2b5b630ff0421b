import json
import pathlib
import subprocess
import sys
import warnings

import pytest

from wva_lab.cli import BY_CLI_NAME, run
from wva_lab.experiments import FAMILIES, records_to_csv, records_to_json, sweep

from conftest import FAMILY_PARAMETERS, spy_everywhere


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_weak_value_json(capsys):
    code, out = capture(capsys, ["weak-value", "--two-j", "4", "--kappa", "0.001",
                                 "--g", "1e-4", "--eta", "0.1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["abs_weak_value"] == pytest.approx(35.6227766017, abs=1e-9)
    assert doc["weak_value"]["im"] == 0.0
    assert doc["success_prob_zeroth"] == pytest.approx(0.004 / 1.004, abs=1e-10)


def test_weak_value_odd_two_j_exits_2(capsys):
    code = run(["weak-value", "--two-j", "3", "--kappa", "0.001"])
    err = capsys.readouterr().err
    assert code == 2
    assert "nonlinear strategy requires integer j" in err


def test_unknown_flag_exits_2(capsys):
    assert run(["weak-value", "--bogus-flag", "1"]) == 2


def test_null_postselection_exits_1(capsys):
    assert run(["weak-value", "--theta", "0.0"]) == 1
    assert "null" in capsys.readouterr().err.lower() or True


def test_missing_parameter_exits_2(capsys):
    assert run(["weak-value", "--two-j", "4"]) == 2
    assert run(["scaling", "--family", "nonlinear-joint"]) == 2


def test_scaling_csv_and_determinism(tmp_path):
    args = ["scaling", "--family", "nonlinear-joint", "--j-min", "4", "--j-max", "12",
            "--kappa", "1e-4", "--format", "csv"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--output", str(p1)]) == 0
    assert run(args + ["--output", str(p2)]) == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    lines = b1.decode().strip().split("\n")
    assert lines[0].startswith("two_j,parameter,")
    assert any(line.startswith("# fit abs_weak_value") for line in lines)


def test_scaling_json_fits(capsys):
    code, out = capture(capsys, ["scaling", "--family", "near-deterministic",
                                 "--j-min", "8", "--j-max", "20", "--epsilon", "0.04",
                                 "--g", "1e-6", "--format", "json", "--no-circuits"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "wva-lab/scaling-records/v1"
    assert {r["two_j"] for r in doc["records"]} == {8, 10, 12, 14, 16, 18, 20}
    assert "abs_weak_value_vs_two_j" in doc["fits"]
    for r in doc["records"]:
        assert r["success_prob"] == pytest.approx(1 / 1.04, abs=1e-9)


def test_scaling_odd_only_range_rejected(capsys):
    code = run(["scaling", "--family", "nonlinear-joint", "--j-min", "3",
                "--j-max", "3", "--kappa", "1e-4"])
    assert code == 2


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"two_j": 4, "kappa": 0.001, "g": 1e-4, "eta": 0.1}))
    code, out = capture(capsys, ["weak-value", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["two_j"] == 4
    code, out = capture(capsys, ["weak-value", "--config", str(cfg), "--two-j", "8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["two_j"] == 8
    assert doc["abs_weak_value"] == pytest.approx((16 + 8) / 2 + 4 / (2 * 0.001**0.5),
                                                  abs=1e-8)


def test_circuit_prep_cli(capsys):
    code, out = capture(capsys, ["circuit-prep", "--two-j", "2", "--m1", "0",
                                 "--m2", "-1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["success_prob"] == pytest.approx(0.125)
    assert doc["overlap_conventions"]["unnormalized_dicke"] == pytest.approx(0.25)
    # beyond the register cap only the closed form is emitted
    code, out = capture(capsys, ["circuit-prep", "--two-j", "16", "--m1", "0",
                                 "--m2", "-8"])
    assert code == 0
    assert "analytic_prob" in json.loads(out)


@pytest.mark.parametrize("zeta", ["plus-all", "dicke-superposition"])
def test_circuit_prep_one_level_exits_2(capsys, zeta):
    # a doubled level makes the two branches interfere (success_prob 2.0)
    assert run(["circuit-prep", "--two-j", "2", "--m1", "0", "--m2", "0", "--zeta", zeta]) == 2
    assert "two different Dicke levels" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--two-j", "4", "--m1", "0", "--m2", "-2"],
    ["--two-j", "4", "--m1", "0", "--m2", "-2", "--analytic"],
    ["--two-j", "16", "--m1", "0", "--m2", "-8"],
], ids=["brute-force", "analytic", "beyond-register-cap"])
def test_circuit_prep_bad_ancilla_exits_2_on_every_path(capsys, argv):
    assert run(["circuit-prep", *argv, "--alpha", "5", "--beta", "7"]) == 2
    assert "|alpha|^2 + |beta|^2 must be 1" in capsys.readouterr().err


def test_circuit_measure_cli(capsys):
    code, out = capture(capsys, ["circuit-measure", "--two-j", "4", "--kappa",
                                 "0.001", "--g", "1e-4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["conditional_meter_fidelity_vs_postselect"] >= 1 - 1e-9
    assert doc["p_tilde"] == pytest.approx(doc["analytic_p_tilde"], rel=1e-9)


def test_circuit_measure_evolves_and_projects_once(capsys, monkeypatch):
    calls = []
    for name in ("evolved_joint", "project_left"):
        spy_everywhere(monkeypatch, name, calls)
    code, _ = capture(capsys, ["circuit-measure", "--two-j", "4", "--kappa", "0.001",
                               "--g", "1e-4"])
    assert code == 0
    assert calls == ["evolved_joint", "project_left"]


@pytest.mark.parametrize("argv", [["--two-j", "5", "--a-w", "40"],
                                  ["--two-j", "4", "--probe-ps", "0.01"]])
def test_circuit_measure_linear_families(capsys, argv):
    # the (j, -j) levels of the table: brute force agrees with the closed form
    code, out = capture(capsys, ["circuit-measure", *argv])
    assert code == 0
    doc = json.loads(out)
    assert doc["conditional_meter_fidelity_vs_postselect"] >= 1 - 1e-9
    assert doc["p_tilde"] == pytest.approx(doc["analytic_p_tilde"], rel=1e-9)


def test_circuit_measure_single_probe_exits_2(capsys):
    assert run(["circuit-measure", "--theta", "0.05"]) == 2
    assert "no two-component postselection state" in capsys.readouterr().err


def test_fisher_cli(capsys):
    code, out = capture(capsys, ["fisher", "--two-j", "12", "--kappa", "1e-3",
                                 "--eta", "0.05", "--g", "1e-4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["qfi_total"] == pytest.approx(9.0081, rel=1e-9)
    assert doc["ratio"] == pytest.approx(0.545058, abs=1e-4)
    assert doc["qfi_closed_form_small_eta"] == pytest.approx(6.48)


def test_fisher_cli_linear_omits_nonlinear_closed_forms(capsys):
    code, out = capture(capsys, ["fisher", "--two-j", "10", "--a-w", "40"])
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "linear_fixed_aw"
    assert "qfi_closed_form_exact" not in doc
    assert "qfi_closed_form_small_eta" not in doc


def test_dynamics_cli(capsys):
    code, out = capture(capsys, ["dynamics", "--two-j", "2", "--g0", "0.05",
                                 "--delta-minus", "1.0", "--fock-cutoff", "4",
                                 "--t-final", "200"])
    assert code == 0
    doc = json.loads(out)
    assert doc["g_dispersive"] == pytest.approx(0.01)
    assert doc["conservation_residual"] < 1e-10
    assert 0.9 < doc["min_fidelity"] < 1.0


def test_readme_dynamics_stdout_is_pinned(capsys):
    # the README `dynamics` example, whose stdout no benchmark reference holds
    golden = pathlib.Path(__file__).parent / "reference" / "dynamics_readme.stdout"
    code, out = capture(capsys, ["dynamics", "--two-j", "2", "--g0", "0.02",
                                 "--delta-minus", "1.0", "--fock-cutoff", "6"])
    assert code == 0
    assert out.encode() == golden.read_bytes()


@pytest.mark.parametrize("eta", ["0", "-0.0"])
def test_dynamics_vacuum_meter_stdout_is_pinned(capsys, eta):
    # the vacuum meter is the coherent state at eta = 0, whose bits are those
    # of the basis state |0> that this call once built on a path of its own
    golden = pathlib.Path(__file__).parent / "reference" / "dynamics_vacuum_meter.stdout"
    code, out = capture(capsys, ["dynamics", "--two-j", "2", "--g0", "0.02",
                                 "--delta-minus", "1.0", "--fock-cutoff", "6",
                                 "--meter-eta", eta])
    assert code == 0
    assert out.encode() == golden.read_bytes()


@pytest.mark.parametrize("eta", ["30", "38"])
def test_weak_value_large_meter_prints_finite_json(capsys, eta):
    # the coherent recurrence used to overflow: eta 30 exited 2 with "state
    # not normalized", and eta 38 printed NaN (not JSON) with exit 0
    def reject(constant):
        raise ValueError(f"{constant} is not a JSON number")

    code, out = capture(capsys, ["weak-value", "--two-j", "4", "--kappa", "0.001",
                                 "--eta", eta])
    assert code == 0
    doc = json.loads(out, parse_constant=reject)
    assert 0.0 < doc["success_prob_exact"] < 1.0


def test_dynamics_validation_exits_2(capsys):
    assert run(["dynamics", "--two-j", "2", "--g0", "0.9", "--delta-minus", "1.0"]) == 2
    for bad in ("0", "-3"):
        assert run(["dynamics", "--two-j", "2", "--g0", "0.05", "--delta-minus", "1.0",
                    "--t-final", "5", "--store-every", bad]) == 2
    # the default t_final and dt divide by delta_minus
    assert run(["dynamics", "--g0", "0.02", "--delta-minus", "0"]) == 2
    assert "delta_minus must be nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--delta-minus", "1", "--t-final", "inf"], "t_final must be finite"),
    (["--delta-minus", "1", "--dt", "nan"], "dt must be finite"),
    (["--delta-minus", "nan"], "delta_minus must be nonzero and finite"),
    (["--delta-minus", "inf"], "delta_minus must be nonzero and finite"),
])
def test_dynamics_non_finite_parameters_exit_2(capsys, argv, message):
    # inf used to overflow in the time grid (a traceback, exit 1), and nan
    # reached int() before any check named it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["dynamics", "--g0", "0.02"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert message in captured.err


@pytest.mark.parametrize("eta", ["inf", "nan", "1e300"])
def test_dynamics_non_finite_meter_eta_exits_2(eta):
    # a fresh process with a timeout, so that a hang fails the test: inf
    # used to spin forever in the coherent tail sum, nan printed NaN (not
    # JSON) with exit 0, and 1e300 died with an OverflowError traceback
    code = "import sys; from wva_lab.cli import run; sys.exit(run(sys.argv[1:]))"
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", code, "dynamics", "--two-j", "2", "--g0", "0.05",
         "--delta-minus", "1.0", "--fock-cutoff", "4", "--t-final", "5", "--meter-eta", eta],
        capture_output=True, text=True, timeout=60,
        cwd=pathlib.Path(__file__).resolve().parents[1] / "src")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.splitlines() == [out.stderr.strip()]
    assert "coherent amplitude eta" in out.stderr


@pytest.mark.parametrize("argv", [
    ["weak-value", "--two-j", "4", "--kappa", "0.001", "--eta", "3000"],
    ["dynamics", "--two-j", "2", "--g0", "0.05", "--delta-minus", "1.0", "--fock-cutoff", "4",
     "--t-final", "5", "--meter-eta", "1e154"],
], ids=["weak-value", "dynamics"])
def test_a_meter_mean_no_cutoff_holds_exits_2(argv):
    # the cutoff search summed the Poisson tail up to the mean (9e6 and
    # 1e308 terms per sum), so a fresh process with a timeout
    code = "import sys; from wva_lab.cli import run; sys.exit(run(sys.argv[1:]))"
    out = subprocess.run([sys.executable, "-W", "error", "-c", code, *argv],
                         capture_output=True, text=True, timeout=60,
                         cwd=pathlib.Path(__file__).resolve().parents[1] / "src")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.splitlines() == [out.stderr.strip()]
    assert "error: no Fock cutoff up to 10000 keeps the coherent tail" in out.stderr


@pytest.mark.parametrize("argv, message", [
    (["--g0", "1e-200", "--delta-minus", "1"], "g_dispersive = 4 g0^2 / delta_minus must be"),
    (["--g0", "1e200", "--delta-minus", "1e201"], "g_dispersive = 4 g0^2 / delta_minus must be"),
    (["--g0", "0.02", "--delta-minus", "1e300"], "no finite step count"),
], ids=["g-disp-underflows", "g-disp-overflows", "step-count-overflows"])
def test_dynamics_degenerate_defaults_exit_2(capsys, argv, message):
    # finite inputs whose derived defaults vanish or overflow: the default
    # t_final used to divide by a g_dispersive of 0.0 (ZeroDivisionError),
    # and t_final / dt = inf reached int() in the time grid (OverflowError)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["dynamics"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert message in captured.err


@pytest.mark.parametrize("command", ["fisher", "weak-value"])
def test_non_finite_eta_exits_2(capsys, command):
    # `fisher --eta nan` used to exit 0 and print NaN, which is not JSON
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--two-j", "4", "--kappa", "0.001", "--eta", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eta must be finite, got (nan+0j)\n"


@pytest.mark.parametrize("argv", [
    ["weak-value", "--two-j", "4", "--kappa", "0.001", "--g", "nan"],
    ["weak-value", "--two-j", "4", "--kappa", "0.001", "--g", "inf"],
    ["weak-value", "--theta", "nan"],
    ["weak-value", "--two-j", "4", "--a-w", "nan"],
    ["fisher", "--two-j", "4", "--kappa", "0.001", "--g", "nan"],
    ["circuit-prep", "--two-j", "2", "--m1", "0", "--m2", "-1", "--alpha", "nan",
     "--beta", "0.7"],
    ["scaling", "--family", "nonlinear-joint", "--kappa", "1e-4", "--baseline-theta", "nan"],
], ids=["weak-value-g-nan", "weak-value-g-inf", "theta-nan", "a-w-nan", "fisher-g-nan",
        "circuit-prep-alpha-nan", "scaling-baseline-theta-nan"])
def test_non_finite_inputs_exit_2(capsys, argv):
    # each used to exit 0 and print NaN, Infinity or nan cells, with
    # RuntimeWarnings on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.splitlines() == [captured.err.strip()]


@pytest.mark.parametrize("argv, message", [
    (["weak-value", "--theta", "inf"], "theta: must be finite, got inf"),
    (["weak-value", "--two-j", "4", "--kappa", "nan"], "kappa: must be finite, got nan"),
    (["weak-value", "--two-j", "4", "--a-w", "inf"], "a-w: must be finite, got inf"),
    (["weak-value", "--two-j", "4", "--epsilon", "inf"], "epsilon: must be finite, got inf"),
    (["circuit-prep", "--two-j", "2", "--m1", "nan", "--m2", "-1"], "m1: must be finite, got nan"),
    (["circuit-prep", "--two-j", "2", "--m1", "0", "--m2=-inf"], "m2: must be finite, got -inf"),
    (["scaling", "--family", "nonlinear-joint", "--kappa", "nan"],
     "kappa: must be finite, got nan"),
], ids=["theta-inf", "kappa-nan", "a-w-inf", "epsilon-inf", "m1-nan", "m2-inf",
        "scaling-kappa-nan"])
def test_a_non_finite_flag_is_named(capsys, argv, message):
    # `--theta inf` printed `math domain error`, `--kappa nan` a P_s range
    # error and `--m1 nan` `cannot convert float NaN to integer`
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


KICK_OVERFLOW = ["weak-value", "--two-j", "4", "--kappa", "0.001", "--g", "1e308"]


def test_an_overflowing_kick_phase_exits_2(capsys):
    for argv, phase in ((KICK_OVERFLOW, "g = 1e+308 makes the exact-kick phase g a b overflow"),
                        (KICK_OVERFLOW[:-1] + ["3e306"],
                         "g = 3e+306 makes the first-order phase g A_w b overflow")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {phase}\n"


def run_fresh(argv):
    """One CLI call in a fresh interpreter, where warnings are not errors."""
    code = "import sys; from wva_lab.cli import run; sys.exit(run(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=60,
                          cwd=pathlib.Path(__file__).resolve().parents[1] / "src")


def test_an_overflowing_kick_phase_prints_one_error_line():
    # a fresh process, where NumPy's RuntimeWarnings used to reach stderr
    out = run_fresh(KICK_OVERFLOW)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "error: g = 1e+308 makes the exact-kick phase g a b overflow\n"


def test_fisher_with_an_overflowing_kick_phase_prints_one_error_line():
    # it printed the two-line `|eta g A_w| ~ inf` weak-kick warning first
    out = run_fresh(["fisher", *KICK_OVERFLOW[1:]])
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "error: g = 1e+308 makes the exact-kick phase g a b overflow\n"


HUGE_WEAK_VALUE = ["weak-value", "--two-j", "10", "--a-w", "1e300"]
#: (j + A_w, j - A_w) round to (1e300, -1e300): psi_f is orthogonal to psi_i
HUGE_WEAK_VALUE_ERROR = "error: undefined weak value: <psi_f|psi_i> = 0\n"


def test_a_weak_value_target_whose_norm_overflows_is_a_null_postselection(capsys):
    # it printed `overflow encountered in dot` and called the finite
    # coefficients (5.0, 1e+300), (-5.0, -1e+300) not finite, exit 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(HUGE_WEAK_VALUE) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == HUGE_WEAK_VALUE_ERROR
    out = run_fresh(HUGE_WEAK_VALUE)
    assert (out.returncode, out.stdout, out.stderr) == (1, "", HUGE_WEAK_VALUE_ERROR)


def test_importing_the_cli_loads_no_thread_pool():
    code = "import sys, wva_lab.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, cwd=pathlib.Path(__file__).resolve().parents[1] / "src")
    assert (out.returncode, out.stdout, out.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("argv", [
    ["fisher", "--two-j", "4", "--kappa", "0.001", "--eta", "0"],
    ["scaling", "--family", "nonlinear-joint", "--j-min", "4", "--j-max", "10",
     "--kappa", "1e-3", "--eta", "0", "--no-circuits"],
], ids=["fisher", "scaling"])
def test_zero_total_qfi_exits_2(capsys, argv):
    # a meter with no spread carries no information on g: no ratio, and no
    # `Infinity` in the JSON or CSV output
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "total QFI is 0" in captured.err


def test_weak_value_linear_family(capsys):
    code, out = capture(capsys, ["weak-value", "--two-j", "10", "--a-w", "40"])
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "linear_fixed_aw"
    assert doc["abs_weak_value"] == pytest.approx(40.0, rel=1e-10)


@pytest.mark.parametrize("fam", FAMILIES.values(), ids=lambda fam: fam.name)
def test_scaling_reads_the_family_table(fam, capsys):
    assert BY_CLI_NAME[fam.cli_name] is fam
    parameter = FAMILY_PARAMETERS[fam.name]
    args = ["scaling", "--family", fam.cli_name, "--j-min", "4", "--j-max", "8",
            f"--{fam.param_key.replace('_', '-')}", repr(parameter)]
    records = sweep(fam.name, [4, 6, 8], parameter)  # three records: no fits
    code, out = capture(capsys, args + ["--format", "csv"])
    assert code == 0 and out == records_to_csv(records)
    code, out = capture(capsys, args + ["--format", "json"])
    assert code == 0 and out == records_to_json(fam.name, parameter, records)


def _run_config(tmp_path, command, values):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(values))
    return run([command, "--config", str(path)])


DYNAMICS = {"two_j": 2, "g0": 0.05, "delta_minus": 1.0, "t_final": 5.0}
SCALING = {"family": "nonlinear-joint", "kappa": 1e-4, "j_max": 8}


@pytest.mark.parametrize("command, values", [
    ("weak-value", {"two_j": 4.7, "kappa": 1e-3}),
    ("weak-value", {"two_j": True, "a_w": 40.0}),
    ("fisher", {"two_j": "4", "kappa": 1e-3}),
    ("scaling", {**SCALING, "j_min": 4.9}),
    ("scaling", {**SCALING, "j_max": 8.5}),
    ("scaling", {**SCALING, "j_step": True}),
    ("circuit-prep", {"two_j": 2.5, "m1": 0, "m2": -1}),
    ("dynamics", {**DYNAMICS, "two_j": 2.2}),
    ("dynamics", {**DYNAMICS, "fock_cutoff": 4.5}),
    ("dynamics", {**DYNAMICS, "store_every": False}),
])
def test_config_integer_rejects_fraction_bool_string(tmp_path, capsys, command, values):
    assert _run_config(tmp_path, command, values) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_config_integral_float_is_an_integer(tmp_path, capsys):
    assert _run_config(tmp_path, "weak-value", {"two_j": 4.0, "kappa": 1e-3}) == 0
    from_file = capsys.readouterr().out
    code, from_flag = capture(capsys, ["weak-value", "--two-j", "4", "--kappa", "1e-3"])
    assert code == 0 and from_file == from_flag


@pytest.mark.parametrize("command, values", [
    ("scaling", {**SCALING, "no_circuits": "false"}),
    ("circuit-prep", {"two_j": 2, "m1": 0, "m2": -1, "analytic": 0}),
    ("circuit-measure", {"two_j": 4, "kappa": 1e-3, "analytic": "true"}),
    ("dynamics", {**DYNAMICS, "commutator_terms": 1}),
])
def test_config_switch_must_be_json_boolean(tmp_path, capsys, command, values):
    assert _run_config(tmp_path, command, values) == 2
    assert "must be true or false" in capsys.readouterr().err


def test_config_switch_json_boolean(tmp_path, capsys):
    assert _run_config(tmp_path, "scaling", {**SCALING, "no_circuits": True}) == 0
    assert all(r["prep_prob"] is None for r in json.loads(capsys.readouterr().out)["records"])
    assert _run_config(tmp_path, "scaling", {**SCALING, "no_circuits": False}) == 0
    assert all(r["prep_prob"] is not None
               for r in json.loads(capsys.readouterr().out)["records"])


def test_scaling_near_deterministic_beyond_two_j_1000(capsys):
    # the closed-form circuit weights once overflowed from two_j ~ 1030
    code, out = capture(capsys, ["scaling", "--family", "near-deterministic",
                                 "--epsilon", "0.04", "--j-min", "1000", "--j-max", "1100",
                                 "--j-step", "100", "--g", "1e-7"])
    assert code == 0
    records = json.loads(out)["records"]
    assert [r["two_j"] for r in records] == [1000, 1100]
    assert all(r["prep_prob"] is not None and r["measure_prob"] > 0 for r in records)


def test_circuit_prep_analytic_two_j_600(capsys):
    # C(600, 300)^2 overflows a float; the convention weights must not
    code, out = capture(capsys, ["circuit-prep", "--two-j", "600", "--m1", "0",
                                 "--m2", "-300", "--analytic"])
    assert code == 0
    doc = json.loads(out)
    assert doc["analytic_prob"] == doc["overlap_conventions"]["normalized_dicke"] > 0
    assert 0 < doc["overlap_conventions"]["unnormalized_dicke"] < 1


PREP = {"two_j": 2, "m1": 0, "m2": -1}


@pytest.mark.parametrize("command, values, message", [
    ("circuit-prep", {**PREP, "zeta": 1}, "zeta: must be a reference name, got 1"),
    ("weak-value", {"two_j": 4, "kappa": 1e-3, "g": [1]}, "g: must be a number, got [1]"),
    ("fisher", {"two_j": 4, "kappa": 1e-3, "eta": [0.1]}, "eta: must be a number, got [0.1]"),
    ("circuit-prep", {**PREP, "alpha": [1]}, "alpha: must be a number, got [1]"),
    ("circuit-prep", {**PREP, "beta": {"re": 1}}, "beta: must be a number, got {'re': 1}"),
    ("scaling", {**SCALING, "baseline_theta": [0.05]},
     "baseline-theta: must be a number, got [0.05]"),
], ids=["zeta", "g", "eta", "alpha", "beta", "baseline-theta"])
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, command, values, message):
    # these raised AttributeError or TypeError, a traceback with exit 1
    assert _run_config(tmp_path, command, values) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_unwritable_output_exits_2(tmp_path, capsys):
    # used to raise FileNotFoundError, a traceback with exit 1
    path = tmp_path / "missing" / "x.json"
    assert run(["circuit-prep", "--two-j", "2", "--m1", "0", "--m2", "-1",
                "--output", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: output: cannot write {path}: ")
    assert err.count("\n") == 1 and not path.parent.exists()


def test_scaling_rejects_an_unknown_format_before_the_sweep(tmp_path, capsys, monkeypatch):
    calls = []
    spy_everywhere(monkeypatch, "sweep", calls)
    assert _run_config(tmp_path, "scaling", {**SCALING, "format": "xml"}) == 2
    assert capsys.readouterr().err == "error: format: unknown 'xml'; valid: csv, json\n"
    assert calls == []


def test_config_switch_is_checked_beyond_the_register_cap(tmp_path, capsys):
    # `analytic` used to be read only where the brute-force circuit could run
    assert _run_config(tmp_path, "circuit-prep",
                       {"two_j": 12, "m1": 0, "m2": -6, "analytic": 0}) == 2
    assert "analytic: must be true or false" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["weak-value", "fisher", "circuit-measure"])
def test_a_register_size_for_the_single_probe_exits_2(tmp_path, capsys, command):
    # weak-value and fisher used to drop the explicit two_j and print "two_j": 1
    message = ("error: two-j: uncorrelated_baseline is a single probe and takes no "
               "register size, got 7\n")
    assert run([command, "--two-j", "7", "--theta", "0.05"]) == 2
    assert capsys.readouterr() == ("", message)
    assert _run_config(tmp_path, command, {"two_j": 7, "theta": 0.05}) == 2
    assert capsys.readouterr() == ("", message)
    # two family flags still fail first
    assert run([command, "--two-j", "4", "--kappa", "0.001", "--theta", "0.1"]) == 2
    assert capsys.readouterr().err.startswith("error: choose exactly one of ")
