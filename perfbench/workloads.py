"""The four benchmark workloads: their inputs, one task runner each, and the
checks that every output is correct.

A workload is a fixed list of tasks (see `Workload`). One pass runs every
task once, in an order shuffled by the seed; the seed changes nothing else.

Sweeps run with ``max_workers=1`` and the CLI runs one child process at a
time, so no workload uses more than the BLAS threads the runner allows.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import selectors
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import wva_lab
from wva_lab import cli
from wva_lab.boson import FockSpace, coherent_state
from wva_lab.dynamics import TwoPhotonTCParams, charge_drift, conservation_residual, effective_model_fidelity
from wva_lab.experiments import fit_loglog, records_to_csv, records_to_json, sweep
from wva_lab.linalg import StateVector
from wva_lab.spin import SpinSpace, dicke_state

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"

#: Relative tolerance for the finite-difference `fisher_ratio` column; every
#: other scaling cell must be byte-identical.
FISHER_RATIO_RTOL = 1e-9

#: Longest a single cold CLI call may take before it counts as failed.
CLI_TIMEOUT_S = 60.0


class Workload:
    """A fixed list of `tasks` and what to do with each.

    * ``run(task)``: the timed work of one task; returns its output.
    * ``check(task, output)``: untimed; returns a list of problems (empty if
      the output is correct).
    * ``finish(outputs)``: timed work after the last task of a pass; returns
      the pass artifact.
    * ``check_pass(artifact)``: untimed; returns {task: problems} for the
      tasks whose pass-level output is wrong.
    """

    tasks: list

    def finish(self, outputs):
        return None

    def check_pass(self, artifact) -> dict:
        return {}


class ScalingWorkload(Workload):
    """Scaling sweeps of scripts/run_scaling.py, one record per task.

    A task is ``sweep(family, [two_j], parameter, ...)``; after a pass each
    family is fitted and serialized to CSV and JSON as scripts/run_scaling.py
    does, and the text is compared with the committed ``results/`` files.
    """

    def __init__(self, runs, results_dir: Path):
        self.runs = runs
        self.results_dir = results_dir
        self.tasks = [(family, two_j, parameter, g)
                      for family, grid, parameter, g in runs for two_j in grid]
        self.reference = {}
        for family, _, parameter, _ in runs:
            stem = _stem(family, parameter)
            self.reference[stem] = {
                ext: (results_dir / f"{stem}.{ext}").read_text() for ext in ("csv", "json")}
        #: (file, line) of every fisher_ratio cell accepted within tolerance.
        self.cells_not_identical: set = set()

    def run(self, task):
        family, two_j, parameter, g = task
        return sweep(family, [two_j], parameter, g=g,
                     with_circuits=family != "uncorrelated_baseline", max_workers=1)[0]

    def check(self, task, output):
        if output.two_j != task[1]:
            return [f"{_stem(task[0], task[2])}: record for two_j={output.two_j}, "
                    f"asked for {task[1]}"]
        return []

    def finish(self, outputs):
        texts = {}
        for family, _, parameter, _ in self.runs:
            records = sorted((rec for task, rec in outputs.items()
                              if task[0] == family and task[2] == parameter),
                             key=lambda r: r.two_j)
            fits = {f"{y}_vs_two_j": fit_loglog(records, "two_j", y)
                    for y in ("abs_weak_value", "success_prob", "sigma")}
            stem = _stem(family, parameter)
            texts[stem] = {"csv": records_to_csv(records, fits),
                           "json": records_to_json(family, parameter, records, fits)}
        return texts

    def check_pass(self, texts):
        failed = {}
        for stem, by_ext in texts.items():
            problems = []
            for ext, text in by_ext.items():
                problems += _compare_text(f"{stem}.{ext}", text, self.reference[stem][ext],
                                          self.cells_not_identical)
            if problems:
                failed.update({task: problems for task in self.tasks
                               if _stem(task[0], task[2]) == stem})
        return failed


def _stem(family: str, parameter: float) -> str:
    return f"{family}_{parameter:g}"


_JSON_FISHER = re.compile(r'^\s*"fisher_ratio": (\S+?),?$')
_CSV_FISHER_COLUMN = 6  # two_j,parameter,abs_weak_value,success_prob,sigma,qfi_total,fisher_ratio,...


def _compare_text(name: str, produced: str, reference: str, accepted: set) -> list:
    """Byte comparison line by line. A `fisher_ratio` cell may differ by up to
    FISHER_RATIO_RTOL relative; each such cell is added to `accepted`."""
    got, want = produced.split("\n"), reference.split("\n")
    if len(got) != len(want):
        return [f"{name}: {len(got)} lines, reference has {len(want)}"]
    problems = []
    for lineno, (a, b) in enumerate(zip(got, want), start=1):
        if a == b:
            continue
        cells = _fisher_cells(name, a, b)
        if cells is None:
            problems.append(f"{name}:{lineno}: {a!r} != reference {b!r}")
            continue
        x, y = cells
        if abs(x - y) > FISHER_RATIO_RTOL * abs(y):
            problems.append(f"{name}:{lineno}: fisher_ratio {x!r} vs reference {y!r} "
                            f"beyond {FISHER_RATIO_RTOL:g} relative")
        else:
            accepted.add((name, lineno))
    return problems


def _fisher_cells(name: str, a: str, b: str):
    """The two fisher_ratio values if that cell is the only difference, else None."""
    if name.endswith(".json"):
        ma, mb = _JSON_FISHER.match(a), _JSON_FISHER.match(b)
        if ma and mb:
            return float(ma.group(1)), float(mb.group(1))
        return None
    ca, cb = a.split(","), b.split(",")
    if len(ca) != len(cb) or len(ca) <= _CSV_FISHER_COLUMN or a.startswith("#"):
        return None
    if any(x != y for i, (x, y) in enumerate(zip(ca, cb)) if i != _CSV_FISHER_COLUMN):
        return None
    return float(ca[_CSV_FISHER_COLUMN]), float(cb[_CSV_FISHER_COLUMN])


class DispersiveWorkload(Workload):
    """Validation of the dispersive model against the oscillating two-photon
    model (scripts/run_dynamics_validation.py at more ratios and a larger
    register). A task is `effective_model_fidelity`, then `charge_drift` and
    `conservation_residual`; outputs are compared with values recorded at the
    commit that introduced the benchmark, in reference/dispersive.json."""

    def __init__(self, cases):
        self.reference = json.loads((REFERENCE / "dispersive.json").read_text())
        self.tasks = list(cases)
        self.inputs = {case: dispersive_inputs(case) for case in cases}

    def run(self, task):
        return dispersive_task(*self.inputs[task], commutator=task[4])

    def check(self, task, output):
        ref = self.reference["cases"][case_key(task)]
        rules = self.reference["rules"]
        problems = []
        if abs(output["min_fidelity"] - ref["min_fidelity"]) > rules["min_fidelity_abs_tol"]:
            problems.append(f"{case_key(task)}: min_fidelity {output['min_fidelity']!r} vs "
                            f"reference {ref['min_fidelity']!r}")
        for key in ("charge_drift", "conservation_residual"):
            ceiling = max(rules["ceiling_factor"] * ref[key], rules["ceiling_floor"])
            if not output[key] <= ceiling:
                problems.append(f"{case_key(task)}: {key} {output[key]:.3e} above {ceiling:.3e}")
        return problems


def dispersive_inputs(case):
    """Model parameters and initial state (Dicke m=0 (x) coherent meter 0.25)
    over a quarter of the effective period at d = 1."""
    two_j, cutoff, ratio, dt, _ = case
    params = TwoPhotonTCParams(two_j=two_j, g0=ratio, delta_minus=1.0, fock_cutoff=cutoff,
                               t_final=0.25 * 2 * np.pi / (4 * ratio**2), dt=dt)
    meter = coherent_state(FockSpace(cutoff, tail_tolerance=1e-6), 0.25)
    sys0 = dicke_state(SpinSpace(two_j), 0.0)
    return params, StateVector(params.joint_dim, np.kron(sys0.amplitudes, meter.amplitudes))


def dispersive_task(params, psi0, commutator: bool) -> dict:
    min_fid, trace = effective_model_fidelity(params, psi0, store_every=500,
                                              include_commutator_terms=commutator)
    return {"min_fidelity": min_fid,
            "charge_drift": charge_drift(params, trace),
            "conservation_residual": conservation_residual(params)}


def case_key(case) -> str:
    two_j, cutoff, ratio, dt, commutator = case
    generator = "commutator" if commutator else "leading"
    return f"two_j={two_j},cutoff={cutoff},ratio={ratio:g},dt={dt:g},{generator}"


class CliWorkload(Workload):
    """README CLI examples (except `dynamics`) plus three bad-input calls, each
    a fresh `wva-lab` process. Stdout of a good call must match the bytes
    recorded at the commit that introduced the benchmark; a bad call must exit with its stated code and
    print an error line on stderr."""

    def __init__(self, calls, root: Path, env: dict):
        self.root = root
        self.env = env
        self.tasks = [(name, tuple(argv), code) for name, argv, code in calls]
        self.reference = {name: (REFERENCE / "cli" / f"{name}.stdout").read_bytes()
                          for name, _, code in calls if code == 0}
        #: Peak RSS of the largest CLI child, in KiB.
        self.child_maxrss_kib = 0

    def run(self, task):
        out, err, code, maxrss = run_cli(task[1], self.root, self.env)
        self.child_maxrss_kib = max(self.child_maxrss_kib, maxrss)
        return out, err, code

    def run_in_process(self, task):
        """The same call as `cli.run(argv)` in this process."""
        _, argv, _ = task
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
        return out.getvalue().encode(), err.getvalue(), code

    def check(self, task, output):
        name, _, expected = task
        out, err, code = output
        if code != expected:
            return [f"{name}: exit code {code}, expected {expected}; stderr {err[-300:]!r}"]
        if expected == 0 and out != self.reference[name]:
            return [f"{name}: stdout differs from the recorded reference"]
        if expected != 0 and not err.strip():
            return [f"{name}: exit code {code} without an error line on stderr"]
        return []


def run_cli(argv, root: Path, env: dict):
    """One `wva-lab` call in a fresh interpreter, as the console script runs it."""
    cmd = [sys.executable, "-c", "from wva_lab.cli import main; main()", *argv]
    return run_child(cmd, root, env, CLI_TIMEOUT_S)


def run_child(cmd, cwd: Path, env: dict, timeout: float):
    """Run one child to completion. Returns (stdout, stderr, exit code, peak
    RSS in KiB). A child still running after `timeout` seconds is killed and
    reported with exit code None."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + timeout
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    for pipe in chunks:
        pipe.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if timed_out else proc.returncode
    return (b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]).decode(errors="replace"),
            code, usage.ru_maxrss)


# ---------------------------------------------------------------------------
# workload table
# ---------------------------------------------------------------------------

#: family, two_j grid, parameter, coupling -- as in scripts/run_scaling.py.
SCALING_SMALL = (
    ("nonlinear_joint", range(4, 21, 2), 1e-4, 1e-4),
    ("nonlinear_joint", range(4, 19, 2), 1e-3, 1e-4),
    ("linear_fixed_aw", range(4, 21, 2), 250.0, 1e-4),
    ("linear_fixed_sigma", range(4, 21, 2), float(np.sin(0.05) ** 2), 1e-4),
    ("uncorrelated_baseline", range(4, 21, 2), 0.05, 1e-4),
)
SCALING_LARGE = (
    ("near_deterministic", range(200, 601, 50), 0.04, 1e-6),
    ("near_deterministic", range(200, 601, 50), 0.01, 1e-6),
)

#: two_j, Fock cutoff, g0/d, dt, commutator generator. The g0/d = 0.01 point
#: of scripts/run_dynamics_validation.py is left out: at 78k RK4 steps it
#: alone takes about 5 s.
DISPERSIVE_CASES = tuple(
    [(2, 6, ratio, 0.05, commutator) for ratio in (0.02, 0.05, 0.1)
     for commutator in (False, True)]
    + [(8, 8, 0.05, 0.02, commutator) for commutator in (False, True)])

#: name, argv, expected exit code.
CLI_CALLS = (
    ("weak-value", ["weak-value", "--two-j", "4", "--kappa", "0.001", "--g", "1e-4",
                    "--eta", "0.1"], 0),
    ("scaling", ["scaling", "--family", "nonlinear-joint", "--j-min", "4", "--j-max", "20",
                 "--kappa", "1e-4", "--format", "csv"], 0),
    ("circuit-prep", ["circuit-prep", "--two-j", "2", "--m1", "0", "--m2", "-1"], 0),
    ("circuit-measure", ["circuit-measure", "--two-j", "4", "--kappa", "0.001",
                         "--g", "1e-4"], 0),
    ("fisher", ["fisher", "--two-j", "12", "--kappa", "1e-3", "--eta", "0.05",
                "--g", "1e-4"], 0),
    ("null-postselection", ["weak-value", "--theta", "0"], 1),
    ("odd-two-j", ["weak-value", "--two-j", "3", "--kappa", "1e-3"], 2),
    ("two-strategies", ["weak-value", "--two-j", "4", "--kappa", "0.001",
                        "--theta", "0.1"], 2),
)

WORKLOADS = ("scaling-small", "scaling-large", "dispersive-validation", "cli-cold")
TASKS_PER_PASS = {
    "scaling-small": sum(len(grid) for _, grid, _, _ in SCALING_SMALL),
    "scaling-large": sum(len(grid) for _, grid, _, _ in SCALING_LARGE),
    "dispersive-validation": len(DISPERSIVE_CASES),
    "cli-cold": len(CLI_CALLS),
}


def results_dir(root: Path) -> Path:
    """The commit's own results/ when the checkout has it, else the copy
    recorded with the benchmark (results/ is also gitignored, so a checkout
    may leave it out)."""
    own = root / "results"
    return own if own.is_dir() else REFERENCE / "results"


def build(name: str, root: Path, env: dict):
    """Build the inputs of workload `name`."""
    if name == "scaling-small":
        return ScalingWorkload(SCALING_SMALL, results_dir(root))
    if name == "scaling-large":
        return ScalingWorkload(SCALING_LARGE, results_dir(root))
    if name == "dispersive-validation":
        return DispersiveWorkload(DISPERSIVE_CASES)
    if name == "cli-cold":
        return CliWorkload(CLI_CALLS, root, env)
    raise ValueError(f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}")


def check_import_source(root: Path) -> None:
    """Refuse to measure a wva_lab imported from outside the checkout."""
    source = Path(wva_lab.__file__).resolve()
    if not source.is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"wva_lab imported from {source}, not from {root / 'src'}")


def probe(name: str, root: str) -> None:
    """Set-up probe run in a fresh interpreter: import, build the inputs, then
    announce readiness for the first task on stdout."""
    build(name, Path(root), dict(os.environ))
    check_import_source(Path(root))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
