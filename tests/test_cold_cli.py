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
    out = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT, env=ENV,
                         capture_output=True, text=True, timeout=60)
    return out.returncode, set(out.stderr.splitlines()[-1].split())


@pytest.mark.parametrize("task", CLI.tasks, ids=lambda task: task[0])
def test_cold_call_matches_the_recorded_output(task):
    # stdout byte for byte for the README calls, exit codes 0, 1 and 2
    assert CLI.check(task, CLI.run(task)) == []


@pytest.mark.parametrize("statement", ["import wva_lab", "import wva_lab.cli"])
def test_importing_the_package_loads_no_numpy(statement):
    code, loaded = _loaded(f"import sys\n{statement}\nprint(*sorted(sys.modules), file=sys.stderr)")
    assert code == 0
    assert "numpy" not in loaded
    assert not loaded & LIBRARY


@pytest.mark.parametrize("name", ["odd-two-j", "two-strategies"])
def test_rejected_call_loads_no_numpy(name):
    code, loaded = _loaded(LOADED, *ARGV[name])
    assert code == 2
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
    code, loaded = _loaded(LOADED, *ARGV[name])
    assert code == 0
    assert not loaded & {f"wva_lab.{m}" for m in UNUSED[name]}
