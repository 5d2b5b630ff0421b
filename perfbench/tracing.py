"""Per-layer tracing from outside the program.

`Tracer.install` wraps every public function of each `wva_lab` module, and
the constructors and public methods of `Operator` and `StateVector` on the
classes themselves. A wrapped call records a span (id, name, parent span,
start, end) in memory. Wrappers replace the original function under every
name that refers to it in the package's modules and in any extra namespace
given, because callers look functions up where they imported them: for
example `experiments` imports the `strategy_*` constructors and `fisher`
imports `postselect` by name.

A span's self time is its duration minus the durations of its direct child
spans. Layer metrics sum self times and counts over the span names listed in
SELF_TIME and COUNTS.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import itertools
import json
import math
import time
from collections import defaultdict

MODULES = ("linalg", "spin", "boson", "wva", "circuits", "fisher", "dynamics",
           "experiments", "cli")
CLASSES = (("linalg", "Operator"), ("linalg", "StateVector"))

BRUTE_CIRCUITS = ("circuits.prep_circuit", "circuits.measure_circuit", "circuits.embed_dicke",
                  "circuits.reference_state", "circuits.reference_overlap",
                  "circuits.control_swap")
CLOSED_CIRCUITS = ("circuits.prep_probability_analytic", "circuits.measure_probability_analytic",
                   "circuits.prep_probability_conventions", "circuits.overlap_expansion_check")

#: metric -> span-name patterns whose calls it counts.
COUNTS = {
    "linalg.operator.count": ("linalg.Operator.__init__",),
    "linalg.statevector.count": ("linalg.StateVector.__init__",),
    "spin.collective_op.count": ("spin.collective_op",),
    "boson.poisson_tail.count": ("boson.poisson_tail",),
    "wva.strategy.count": ("wva.strategy_*",),
    "wva.postselect.count": ("wva.postselect",),
    "circuits.brute.count": ("circuits.prep_circuit", "circuits.measure_circuit"),
    "circuits.closed.count": ("circuits.prep_probability_analytic",
                              "circuits.measure_probability_analytic"),
}

#: metric -> span-name patterns whose self time it sums.
SELF_TIME = {
    "linalg.operator.self_s": ("linalg.Operator.*",),
    "linalg.statevector.self_s": ("linalg.StateVector.*",),
    "spin.collective_op.self_s": ("spin.collective_op",),
    "boson.self_s": ("boson.*",),
    "wva.strategy.self_s": ("wva.strategy_*",),
    "wva.postselect.self_s": ("wva.postselect",),
    "fisher.ratio.self_s": ("fisher.postselected_fisher_ratio", "fisher.qfi_from_family"),
    "fisher.qfi_product.self_s": ("fisher.qfi_product",),
    "circuits.brute.self_s": BRUTE_CIRCUITS,
    "circuits.closed.self_s": CLOSED_CIRCUITS,
    "dynamics.fidelity.self_s": ("dynamics.effective_model_fidelity", "dynamics.evolve_full",
                                 "dynamics.evolve_effective", "dynamics.effective_generator_diag",
                                 "dynamics.effective_phases"),
    "dynamics.diagnostics.self_s": ("dynamics.charge_drift", "dynamics.conservation_residual",
                                    "dynamics.hamiltonian_full", "dynamics.conserved_charge"),
    "experiments.sweep.self_s": ("experiments.sweep",),
    "experiments.serialize.self_s": ("experiments.records_to_csv", "experiments.records_to_json",
                                     "experiments.record_to_dict", "experiments.fmt_float"),
    "cli.run.self_s": ("cli.*",),
}


def _operator_bytes(counters, bound, result):
    counters["linalg.operator.bytes"] += bound["self"].dim ** 2 * 16


def _prep_amplitudes(counters, bound, result):
    counters["circuits.brute.amplitudes"] += 2 ** (2 * bound["two_j"] + 1)


def _measure_amplitudes(counters, bound, result):
    counters["circuits.brute.amplitudes"] += 2 ** (2 * bound["two_j"] + 1) * bound["meter_dim"]


def _fidelity_points(counters, bound, result):
    params = bound["params"]
    steps = max(math.ceil(params.t_final / params.dt - 1e-9), 1)
    counters["dynamics.time_points"] += steps + 1


def _sweep_records(counters, bound, result):
    counters["experiments.records"] += len(result)


#: span name -> counter computed from the call's bound arguments and result,
#: the way the program computes the same quantity.
COMPUTED = {
    "linalg.Operator.__init__": _operator_bytes,
    "circuits.prep_circuit": _prep_amplitudes,
    "circuits.measure_circuit": _measure_amplitudes,
    "dynamics.effective_model_fidelity": _fidelity_points,
    "experiments.sweep": _sweep_records,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (span id, name index, parent span id, start, end)
        self.counters: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        spans, stack, ids, counters = self.spans, self._stack, self._ids, self.counters
        computed = COMPUTED.get(name)
        signature = inspect.signature(fn) if computed else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if computed:
                    bound = signature.bind(*args, **kwargs).arguments
                    computed(counters, bound, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, index, parent, start, end))

        return traced

    def install(self, extra_namespaces=()):
        """Wrap the package's public functions and the linalg classes."""
        package = importlib.import_module("wva_lab")
        modules = {name: importlib.import_module(f"wva_lab.{name}") for name in MODULES}
        namespaces = [package, *modules.values(), *extra_namespaces]
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                traced = self.wrap(fn, f"{short}.{attr}")
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, traced)
        for short, cls_name in CLASSES:
            cls = getattr(modules[short], cls_name)
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_") and attr != "__init__":
                    continue
                name = f"{short}.{cls_name}.{attr}"
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(raw.__func__, name)))
                elif inspect.isfunction(raw):
                    setattr(cls, attr, self.wrap(raw, name))

    def by_name(self) -> dict:
        """name -> [calls, total seconds, self seconds]."""
        child = defaultdict(float)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, index, _, start, end in self.spans:
            row = table[self.names[index]]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[sid]
        return dict(table)

    def layer_metrics(self) -> dict:
        """Raw (not per-pass) counts, self times and computed counters."""
        table = self.by_name()

        def matching(patterns):
            return [row for name, row in table.items()
                    if any(fnmatch.fnmatchcase(name, p) for p in patterns)]

        out = {metric: float(sum(row[0] for row in matching(p))) for metric, p in COUNTS.items()}
        out.update({metric: sum(row[2] for row in matching(p))
                    for metric, p in SELF_TIME.items()})
        for key in ("linalg.operator.bytes", "circuits.brute.amplitudes", "dynamics.time_points",
                    "experiments.records"):
            out[key] = float(self.counters[key])
        return out

    def write(self, path, extra: dict):
        """Write every span (times in microseconds from the first span) and the
        per-name table as one JSON document."""
        origin = min((s[3] for s in self.spans), default=0.0)
        doc = dict(extra)
        doc["by_name"] = {name: {"calls": row[0], "total_s": row[1], "self_s": row[2]}
                          for name, row in sorted(self.by_name().items())}
        doc["names"] = self.names
        doc["spans_fields"] = ["id", "name", "parent", "start_us", "end_us"]
        doc["spans"] = [[sid, index, parent, round((start - origin) * 1e6, 3),
                         round((end - origin) * 1e6, 3)]
                        for sid, index, parent, start, end in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
