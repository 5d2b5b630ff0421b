import json

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


def test_dynamics_validation_exits_2(capsys):
    assert run(["dynamics", "--two-j", "2", "--g0", "0.9", "--delta-minus", "1.0"]) == 2
    for bad in ("0", "-3"):
        assert run(["dynamics", "--two-j", "2", "--g0", "0.05", "--delta-minus", "1.0",
                    "--t-final", "5", "--store-every", bad]) == 2


def test_weak_value_linear_family(capsys):
    code, out = capture(capsys, ["weak-value", "--two-j", "10", "--a-w", "40"])
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "linear_fixed_aw"
    assert doc["abs_weak_value"] == pytest.approx(40.0, rel=1e-10)


def test_thread_env_does_not_change_output(tmp_path, monkeypatch):
    args = ["scaling", "--family", "nonlinear-joint", "--j-min", "4", "--j-max",
            "12", "--kappa", "1e-4", "--format", "csv", "--no-circuits"]
    p1, p2 = tmp_path / "serial.csv", tmp_path / "threaded.csv"
    assert run(args + ["--output", str(p1)]) == 0
    monkeypatch.setenv("WVA_LAB_THREADS", "4")
    assert run(args + ["--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


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
