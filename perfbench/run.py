#!/usr/bin/env python3
"""wva-lab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program under test
is the checkout's own ``src/wva_lab``. Workloads: scaling-small,
scaling-large, dispersive-validation, cli-cold (see perfbench/README.md).

With ``--trace 0`` the run measures the end-to-end metrics with no tracing:
``setup_s`` is the median wall time of several fresh interpreters from
start to the first task (importing wva_lab and building the inputs); the
workload then runs whole passes for S seconds after one warm-up pass. With
``--trace 1`` the run measures S/2 seconds untraced, then S/2 seconds with
every public function of the package wrapped, and reports the per-layer
metrics, per pass of the workload; the spans go to .perfbench/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it name the machine and environment
and print every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import resource
import selectors
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: As in workloads.WORKLOADS, which cannot be imported before the BLAS thread
#: variables are set (it imports numpy).
WORKLOADS = ("scaling-small", "scaling-large", "dispersive-validation", "cli-cold")

SETUP_PROBES = 4
#: Warm-up before timing: the tasks of one pass, at most this many seconds.
WARMUP_S = 1.0
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 60.0
#: BLAS/OpenMP threads. The matrices here are small (dim <= 601): a second
#: BLAS thread buys nothing and, on a shared machine, adds stalls of up to a
#: second whenever the other core is busy.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Tally:
    """Tasks of the passes run so far; latencies and busy time only of the
    passes that are measured."""

    latencies: list = field(default_factory=list)
    by_task: dict = field(default_factory=dict)
    busy_s: float = 0.0
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def tasks_per_s(self) -> float:
        return len(self.latencies) / self.busy_s

    @property
    def task_p50(self) -> float:
        """Median over the tasks of each task's median latency. The median of
        all latencies would fall between two tasks whenever a pass holds an
        even number of them, and rest on the slowest run of the one and the
        fastest run of the other."""
        return statistics.median(statistics.median(v) for v in self.by_task.values())


def run_pass(wl, rng: random.Random, tally: Tally, measured: bool = True,
             limit_s: float = float("inf")) -> None:
    """Run every task of the workload once, in shuffled order, then finish
    the pass. Outputs are checked outside the timed regions. With `limit_s`
    (warm-up only) the pass stops after that much wall time and is not
    finished."""
    order = list(wl.tasks)
    rng.shuffle(order)
    outputs, failed = {}, set()
    busy = 0.0
    latencies = []
    for task in order:
        if sum(latencies) >= limit_s:
            order = order[:len(latencies)]
            break
        start = time.perf_counter()
        try:
            output = wl.run(task)
        except Exception:  # a task that raises is a failed task; keep measuring
            latencies.append(time.perf_counter() - start)
            failed.add(task)
            tally.problems.append(f"{task!r} raised:\n{traceback.format_exc()}")
            continue
        latencies.append(time.perf_counter() - start)
        problems = wl.check(task, output)
        if problems:
            failed.add(task)
            tally.problems += problems
        else:
            outputs[task] = output
    busy += sum(latencies)
    if not failed and len(order) == len(wl.tasks):
        start = time.perf_counter()
        try:
            artifact = wl.finish(outputs)
            busy += time.perf_counter() - start
            bad = wl.check_pass(artifact)
        except Exception:
            bad = {task: [f"finishing the pass raised:\n{traceback.format_exc()}"]
                   for task in order}
        for task, problems in bad.items():
            failed.add(task)
            tally.problems += problems
    tally.attempted += len(order)
    tally.failed += len(failed)
    if measured:
        for task, latency in zip(order, latencies):
            tally.by_task.setdefault(task, []).append(latency)
        tally.latencies += latencies
        tally.busy_s += busy
        tally.passes += 1


def measure(wl, rng: random.Random, seconds: float, tally: Tally) -> None:
    """Whole passes until `seconds` of wall time have passed."""
    start = time.perf_counter()
    while True:
        run_pass(wl, rng, tally)
        if time.perf_counter() - start >= seconds:
            return


# ---------------------------------------------------------------------------
# fresh-interpreter probes
# ---------------------------------------------------------------------------


def setup_time(workload: str, env: dict) -> float:
    """Wall time from starting a fresh interpreter until it has imported
    wva_lab, built the workload's inputs and is ready for the first task."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import workloads; "
            f"workloads.probe({workload!r}, {str(ROOT)!r})")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        ready = bool(sel.select(CHILD_TIMEOUT_S))
    line = proc.stdout.readline() if ready else b""
    elapsed = time.perf_counter() - start
    if not ready:
        proc.kill()
    proc.stdout.close()
    code = proc.wait()
    if line != b"ready\n" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit code {code})")
    return elapsed


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)$")


def import_times(env: dict) -> tuple[float, float]:
    """(wva_lab, scipy) cumulative import seconds from `python -X importtime`.
    The scipy figure sums the outermost scipy modules, i.e. what importing
    scipy costs on top of what was already imported."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import wva_lab"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    entries = []  # (depth, name, cumulative us), in completion order
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    wva, scipy_us = 0, 0
    # Reversed, every module comes before the modules it imported.
    open_parents: list[str] = []
    for depth, name, cumulative in reversed(entries):
        del open_parents[depth:]
        parent = open_parents[-1] if open_parents else ""
        if name == "wva_lab":
            wva = cumulative
        if _is_scipy(name) and not _is_scipy(parent):
            scipy_us += cumulative
        open_parents.append(name)
    return wva / 1e6, scipy_us / 1e6


def _is_scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def run_untraced(workloads, args, env) -> tuple[dict, Tally, object]:
    setup = [setup_time(args.workload, env) for _ in range(SETUP_PROBES + 1)][1:]
    wl = workloads.build(args.workload, ROOT, env)
    rng = random.Random(args.seed)
    tally = Tally()
    if args.workload != "cli-cold":
        run_pass(wl, rng, tally, measured=False, limit_s=WARMUP_S)
    measure(wl, rng, args.seconds, tally)
    if args.workload == "cli-cold":
        peak_kib = wl.child_maxrss_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "tasks_per_s": (tally.tasks_per_s, "1/s"),
        "task_s.p50": (tally.task_p50, "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    return metrics, tally, wl


def run_traced(workloads, tracing, args, env) -> tuple[dict, Tally, object]:
    imports = [import_times(env) for _ in range(IMPORT_PROBES)]
    wl = workloads.build(args.workload, ROOT, env)
    rng = random.Random(args.seed)
    tally = Tally()
    cli = args.workload == "cli-cold"
    cold_mean = 0.0
    if cli:
        # Cold calls untraced first; the in-process halves run cli.run(argv).
        cold = Tally()
        measure(wl, rng, args.seconds / 3, cold)
        tally.attempted, tally.failed, tally.problems = cold.attempted, cold.failed, cold.problems
        cold_mean = statistics.fmean(cold.latencies)
        wl.run = wl.run_in_process
        span = args.seconds / 3
    else:
        span = args.seconds / 2
    run_pass(wl, rng, tally, measured=False, limit_s=WARMUP_S)
    untraced = Tally()
    measure(wl, rng, span, untraced)
    tracer = tracing.Tracer()
    tracer.install(extra_namespaces=[workloads])
    traced = Tally()
    measure(wl, rng, span, traced)
    for part in (untraced, traced):
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.problems += part.problems
    tally.latencies, tally.busy_s, tally.passes = traced.latencies, traced.busy_s, traced.passes

    raw = tracer.layer_metrics()
    per_pass = {k: v / traced.passes for k, v in raw.items()}
    records = raw.pop("experiments.records")
    metrics = {
        "import.wva_lab_s": (statistics.median(t[0] for t in imports), "s"),
        "import.scipy_s": (statistics.median(t[1] for t in imports), "s"),
    }
    for name in list(tracing.COUNTS) + ["linalg.operator.bytes", "circuits.brute.amplitudes",
                                        "dynamics.time_points"]:
        unit = "B/pass" if name.endswith(".bytes") else "count/pass"
        metrics[name] = (per_pass[name], unit)
    for name in tracing.SELF_TIME:
        metrics[name] = (per_pass[name], "s/pass")
    metrics["wva.postselect_per_record"] = (
        raw["wva.postselect.count"] / records if records else 0.0, "ratio")
    metrics["circuits.brute_share"] = (raw["circuits.brute.self_s"] / traced.busy_s, "ratio")
    metrics["experiments.cells_not_identical"] = (
        float(len(getattr(wl, "cells_not_identical", ()))), "count")
    metrics["cli.cold_overhead_s"] = (
        cold_mean - statistics.fmean(untraced.latencies) if cli else 0.0, "s")
    metrics["trace.overhead_ratio"] = (traced.tasks_per_s / untraced.tasks_per_s, "ratio")

    out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(out, {"workload": args.workload, "seed": args.seed,
                       "traced_passes": traced.passes, "traced_busy_s": traced.busy_s})
    print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    return metrics, tally, wl


def environment(workloads, args, tally: Tally, wl) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cores_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "tasks_per_pass": workloads.TASKS_PER_PASS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes_measured": tally.passes,
        "tasks_measured": len(tally.latencies),
        "results_reference": str(getattr(wl, "results_dir", "-")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "wva_lab" / "__init__.py").is_file():
        print(f"error: no wva_lab package under {SRC}; run inside a checkout "
              "of the repository", file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path[:0] = [str(SRC), str(BENCH)]
    env = dict(os.environ)

    import workloads  # after the thread variables: imports numpy

    workloads.check_import_source(ROOT)
    if args.trace:
        import tracing

        metrics, tally, wl = run_traced(workloads, tracing, args, env)
    else:
        metrics, tally, wl = run_untraced(workloads, args, env)

    print(json.dumps({"env": environment(workloads, args, tally, wl)}))
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    n = len(tally.latencies)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    if not args.trace:
        print(f"{'task_s.n':34s} {n} tasks in {tally.passes} passes")
        if n >= 100:  # ten samples beyond the 90th percentile
            p90 = statistics.quantiles(tally.latencies, n=10)[-1]
            print(f"{'task_s.p90':34s} {p90:.6g} s")
        else:
            print(f"{'task_s.p90':34s} omitted: {n} tasks leave fewer than ten beyond it")
        if hasattr(wl, "cells_not_identical"):
            print(f"{'experiments.cells_not_identical':34s} {len(wl.cells_not_identical)} "
                  "fisher_ratio cells within tolerance")
    print(f"{'error_rate':34s} {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} tasks)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
