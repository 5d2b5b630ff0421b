#!/usr/bin/env python3
"""Lockstep A/B of one perfbench workload in two checkouts.

    python3 scripts/ab_passes.py PARENT CHANGE --workload NAME --rounds N

Starts one child interpreter per checkout. Each child imports its own
``src/wva_lab`` and ``perfbench/workloads.py``, with BLAS pinned to one
thread as in ``perfbench/run.py``, builds the workload once and then runs
one pass per request with ``perfbench/run.py``'s ``run_pass``, replying with
the pass's busy time (its tasks plus finishing the pass). The first pass of
each side is checked and not timed: a side whose first pass fails a check is
rejected. Then every round asks both sides for one pass with the same seed,
alternating which side goes first, so drift of the host falls on both.

Prints each side's median tasks/s over the rounds and its ``task_s.p50``
(the median over the tasks of each task's median latency in the timed
passes, as ``perfbench/run.py`` reports it), the ratio parent/change of the
two p50s, and the median and quartiles of the per-round ratio parent/change
of the pass time (above 1: the change is faster). It counts the rounds each
side won with the shorter pass, ties counting for neither, and prints the
parent's median pass time with its quartiles next to the change's median, so
a gain claim's two tests (wins in nine rounds of ten, medians apart by more
than the parent's interquartile range) read off one run. Then it prints each
child's peak RSS (``ru_maxrss``) after the rounds. Both children run the same
passes and keep no ``Tally`` across them, so the two peaks differ by the
program's own memory, without the latencies that ``perfbench/run.py`` keeps
for every task. Nothing is written; only ``perfbench/`` is read.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: The workload names, as in perfbench/run.py.
WORKLOADS = ("scaling-small", "scaling-large", "dispersive-validation", "cli-cold")
#: As in perfbench/run.py.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CHILD = r"""
import json, os, random, resource, sys
from pathlib import Path

root, name = Path(sys.argv[1]), sys.argv[2]
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import run
import workloads

workloads.check_import_source(root)
wl = workloads.build(name, root, dict(os.environ))
while True:
    line = sys.stdin.readline()
    if not line:
        break
    tally = run.Tally()
    run.run_pass(wl, random.Random(int(line)), tally)
    reply = {"busy_s": tally.busy_s, "tasks": len(tally.latencies),
             "by_task": [[repr(task), lat] for task, lat in tally.by_task.items()],
             "failed": tally.failed, "problems": tally.problems[:3],
             "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
"""


class Side:
    """One checkout's child interpreter, running one pass per request."""

    def __init__(self, label: str, root: Path, workload: str):
        self.label, self.root = label, root
        env = dict(os.environ)
        for var in THREAD_VARS:
            env[var] = BLAS_THREADS
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        self.proc = subprocess.Popen([sys.executable, "-c", CHILD, str(root), workload],
                                     cwd=root, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.rates, self.failed, self.by_task = [], 0, {}
        #: The child's peak RSS in KiB at its last reply.
        self.maxrss_kib = 0

    def run_pass(self, seed: int) -> dict:
        self.proc.stdin.write(f"{seed}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.label} child exited (code {self.proc.wait()})")
        reply = json.loads(line)
        self.maxrss_kib = reply["maxrss_kib"]
        return reply

    def timed_pass(self, seed: int) -> float:
        reply = self.run_pass(seed)
        self.failed += reply["failed"]
        self.rates.append(reply["tasks"] / reply["busy_s"])
        for task, latencies in reply["by_task"]:
            self.by_task.setdefault(task, []).extend(latencies)
        return reply["busy_s"]

    @property
    def task_p50(self) -> float:
        """Median over the tasks of each task's median latency, as
        ``Tally.task_p50`` in perfbench/run.py."""
        return statistics.median(statistics.median(v) for v in self.by_task.values())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def pass_time_report(rounds, workload: str) -> str:
    """The per-round pass times [(parent s, change s), ...] summarized: the
    ratio parent/change, the rounds each side won, and each side's median
    with the parent's quartiles."""
    ratios = [parent / change for parent, change in rounds]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    parent_times = [parent for parent, _ in rounds]
    p1, _, p3 = statistics.quantiles(parent_times, n=4)
    return "\n".join([
        f"pass time parent/change: median {statistics.median(ratios):.3f} "
        f"[quartiles {q1:.3f}, {q3:.3f}] over {len(rounds)} rounds of {workload}",
        f"rounds won: change {sum(c < p for p, c in rounds)}, "
        f"parent {sum(p < c for p, c in rounds)} (ties count for neither)",
        f"pass time: parent median {statistics.median(parent_times):.6g} s "
        f"[quartiles {p1:.6g}, {p3:.6g}; IQR {p3 - p1:.3g}], "
        f"change median {statistics.median(c for _, c in rounds):.6g} s",
    ])


def checkout(path: str) -> Path:
    root = Path(path).resolve()
    for part in ("src/wva_lab/__init__.py", "perfbench/workloads.py", "perfbench/run.py"):
        if not (root / part).is_file():
            raise argparse.ArgumentTypeError(f"{root} has no {part}")
    return root


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=checkout)
    parser.add_argument("change", type=checkout)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2 (the ratio quartiles need two rounds)")

    sides = [Side("parent", args.parent, args.workload),
             Side("change", args.change, args.workload)]
    try:
        for side in sides:
            reply = side.run_pass(0)
            if reply["failed"]:
                print(f"error: the {side.label} side ({side.root}) fails its first pass:",
                      *reply["problems"], sep="\n", file=sys.stderr)
                return 1
        rounds = []
        for r in range(args.rounds):
            order = sides if r % 2 == 0 else sides[::-1]
            busy = {side.label: side.timed_pass(r + 1) for side in order}
            rounds.append((busy["parent"], busy["change"]))
    finally:
        for side in sides:
            side.close()

    for side in sides:
        print(f"{side.label}: median {statistics.median(side.rates):.1f} tasks/s and "
              f"task_s.p50 {side.task_p50:.6g} s over {args.rounds} passes, "
              f"{side.failed} failed tasks ({side.root})")
    print(f"task_s.p50 parent/change: {sides[0].task_p50 / sides[1].task_p50:.3f}")
    print(pass_time_report(rounds, args.workload))
    for side in sides:
        print(f"{side.label}: peak RSS {side.maxrss_kib / 1024:.2f} MB after the rounds")
    print(f"peak RSS change/parent: {sides[1].maxrss_kib / sides[0].maxrss_kib:.4f}")
    return 1 if any(side.failed for side in sides) else 0


if __name__ == "__main__":
    sys.exit(main())
