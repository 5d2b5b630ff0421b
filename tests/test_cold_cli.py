"""Cold `wva-lab` calls, each in a fresh interpreter as the cli-cold workload
of perfbench/ runs them: the stdout and exit codes that workload checks, and
the modules each call loads. In process neither shows a missing or extra
import, because pytest has imported every module before the first test.
Nothing under perfbench/ is written.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("cli_cold_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
           PYTHONPATH=os.pathsep.join(
               [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                                      if p]))
CLI = workloads.build("cli-cold", ROOT, ENV)
ARGV = {name: list(argv) for name, argv, _ in CLI.tasks}

#: Runs one call as the console script does, then lists the loaded modules
#: on the last line of stderr.
LOADED = """
import sys
from wva_lab.cli import run
code = run(sys.argv[1:])
print(*sorted(sys.modules), file=sys.stderr)
sys.exit(code)
"""

LIBRARY = {f"wva_lab.{m}" for m in ("boson", "circuits", "dynamics", "experiments", "fisher",
                                    "linalg", "spin", "wva")}


def _loaded(code: str, *argv: str):
    """(exit code, loaded modules, the stderr lines before the module list)."""
    out = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT, env=ENV,
                         capture_output=True, text=True, timeout=60)
    *err, modules = out.stderr.splitlines()
    return out.returncode, set(modules.split()), err


@pytest.mark.parametrize("task", CLI.tasks, ids=lambda task: task[0])
def test_cold_call_matches_the_recorded_output(task):
    # stdout byte for byte for the README calls, exit codes 0, 1 and 2
    assert CLI.check(task, CLI.run(task)) == []


@pytest.mark.parametrize("statement", ["import wva_lab", "import wva_lab.cli"])
def test_importing_the_package_loads_no_numpy(statement):
    code, loaded, _ = _loaded(
        f"import sys\n{statement}\nprint(*sorted(sys.modules), file=sys.stderr)")
    assert code == 0
    assert "numpy" not in loaded
    assert not loaded & LIBRARY


#: rejected call -> (argv, its error line)
REJECTED = {
    "odd-two-j": (ARGV["odd-two-j"],
                  "nonlinear strategy requires integer j (even two_j); got two_j = 3"),
    "two-strategies": (ARGV["two-strategies"],
                       "choose exactly one of --a-w / --probe-ps / --kappa / --epsilon / --theta"),
    "bad-ancilla": (["circuit-prep", "--two-j", "2", "--m1", "0", "--m2", "-1", "--alpha", "2"],
                    "|alpha|^2 + |beta|^2 must be 1"),
    "kappa-range": (["weak-value", "--two-j", "4", "--kappa", "0"],
                    "need 0 < kappa * j^2 < 0.1; got 0"),
    "epsilon-range": (["weak-value", "--two-j", "4", "--epsilon", "1"],
                      "epsilon must lie strictly between 0 and 1"),
    "probe-ps-range": (["weak-value", "--two-j", "4", "--probe-ps", "0.5"],
                       "2j * probe_ps = 2.0 must lie strictly between 0 and 1"),
    "probe-two-j": (["fisher", "--two-j", "7", "--theta", "0.05"],
                    "two-j: uncorrelated_baseline is a single probe and takes no register "
                    "size, got 7"),
}


@pytest.mark.parametrize("name", REJECTED)
def test_rejected_call_loads_no_numpy(name):
    argv, message = REJECTED[name]
    code, loaded, err = _loaded(LOADED, *argv)
    assert (code, err) == (2, [f"error: {message}"])
    assert "numpy" not in loaded
    assert not loaded & LIBRARY


#: README call -> the library modules it must not load.
UNUSED = {
    "weak-value": {"circuits", "dynamics", "experiments", "fisher"},
    "scaling": {"dynamics"},
    "circuit-prep": {"boson", "dynamics", "experiments", "fisher", "wva"},
    "circuit-measure": {"dynamics", "experiments", "fisher"},
    "fisher": {"circuits", "dynamics", "experiments"},
}


@pytest.mark.parametrize("name", sorted(UNUSED))
def test_good_call_loads_only_what_it_runs(name):
    code, loaded, _ = _loaded(LOADED, *ARGV[name])
    assert code == 0
    assert not loaded & {f"wva_lab.{m}" for m in UNUSED[name]}
