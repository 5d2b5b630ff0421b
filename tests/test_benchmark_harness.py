"""The benchmark harness under perfbench/ still accepts the tree.

Every workload's tasks run once, traced as `perfbench/run.py --trace 1`
traces them, and are checked the way the benchmark checks them: the scaling
passes against results/, the dispersive cases against
perfbench/reference/dispersive.json, and the CLI calls (in process) against
the recorded stdout and exit codes. A moved output byte fails here instead
of as an incorrect benchmark run. Nothing under perfbench/ is written.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

HARNESS = """
import os, sys
from pathlib import Path

root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import workloads, tracing, record_reference  # noqa: E401,F401

workloads.check_import_source(root)
tracing.Tracer().install(extra_namespaces=[workloads])
problems = []
for name in ("scaling-small", "scaling-large", "dispersive-validation"):
    wl = workloads.build(name, root, dict(os.environ))
    outputs = {}
    for task in wl.tasks:
        outputs[task] = wl.run(task)
        problems += wl.check(task, outputs[task])
    for bad in wl.check_pass(wl.finish(outputs)).values():
        problems += bad
cli = workloads.build("cli-cold", root, dict(os.environ))
assert len(cli.tasks) == 8
for task in cli.tasks:
    problems += cli.check(task, cli.run_in_process(task))
print("\\n".join(problems) or "ok")
"""


def test_benchmark_workloads_accept_the_tree():
    # a fresh interpreter: the tracer rebinds the package's functions
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", HARNESS, str(ROOT)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"


def test_ab_passes_accepts_only_the_benchmark_workloads():
    # a misspelt workload is a usage error, not two children that die
    script = ROOT / "scripts" / "ab_passes.py"
    out = subprocess.run([sys.executable, str(script), str(ROOT), str(ROOT), "--workload",
                          "cli-warm", "--rounds", "2"], capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "invalid choice: 'cli-warm'" in out.stderr
    same = ("import sys; sys.path[:0] = sys.argv[1:]; import ab_passes, run; "
            "print(ab_passes.WORKLOADS == run.WORKLOADS)")
    out = subprocess.run([sys.executable, "-c", same, str(script.parent), str(ROOT / "perfbench")],
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "True\n")


def test_ab_passes_reports_wins_and_the_parent_spread():
    # the two tests of a gain claim: rounds won (ties for neither) and the
    # medians against the parent's interquartile range
    script = ROOT / "scripts" / "ab_passes.py"
    report = ("import sys; sys.path[:0] = sys.argv[1:]; import ab_passes; "
              "print(ab_passes.pass_time_report([(2.0, 1.0), (3.0, 3.0), (1.0, 2.0), (4.0, 1.0),"
              " (5.0, 2.5)], 'scaling-small'))")
    out = subprocess.run([sys.executable, "-c", report, str(script.parent)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "pass time parent/change: median 2.000 [quartiles 0.750, 3.000] over 5 rounds of "
        "scaling-small",
        "rounds won: change 3, parent 1 (ties count for neither)",
        "pass time: parent median 3 s [quartiles 1.5, 4.5; IQR 3], change median 2 s",
    ]
    out = subprocess.run([sys.executable, str(script), str(ROOT), str(ROOT), "--workload",
                          "scaling-small", "--rounds", "3"], capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    won = re.search(r"^rounds won: change (\d), parent (\d) \(ties", out.stdout, re.M)
    assert int(won[1]) + int(won[2]) <= 3
    assert re.search(r"^pass time: parent median .* \[quartiles .*; IQR .*\], change median ",
                     out.stdout, re.M)
