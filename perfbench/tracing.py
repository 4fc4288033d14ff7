"""In-process span tracer for the per-layer metrics.

``Tracer.install`` wraps every public (non-underscore) function of each layer
module, plus the public static methods of its public classes, such as
``MetricSolvableAlgebra.create``.  It patches the defining module and every
``solvstrat`` module that imported the name with ``from .x import y``;
``uninstall`` restores the originals.  Spans (name, start, end, parent span,
operation id) stay in memory until ``write``.

A span's self time is its duration minus the time its child spans cover; a
layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "solvstrat"
LAYERS = ("linalg", "bracket", "minnorm", "strata", "flow", "solvable", "jsonio", "cli")


# Per-function result probes, evaluated after the span has ended.
OBSERVERS = {
    "linalg.solve_integer": lambda args, kw, res: res is not None,
    "minnorm.min_norm_point": lambda args, kw, res: (args[0], res),
    "flow.flow_to_critical": lambda args, kw, res: res.iterations,
    "bracket.derivations": lambda args, kw, res: len(res),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, op, probe]
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                rec[5] = observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        replaced = {}   # id(original function) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self._wrap(name, obj, OBSERVERS.get(name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, val in list(vars(obj).items()):
                        if isinstance(val, staticmethod) and not meth.startswith("_"):
                            name = f"{layer}.{meth}"
                            wrapped = self._wrap(name, val.__func__, OBSERVERS.get(name))
                            self._restore.append((obj, meth, val))
                            setattr(obj, meth, staticmethod(wrapped))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, replaced[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("op,span,name,start_ns,end_ns,parent\n")
            for idx, (name, start, end, parent, op, _) in enumerate(self.spans):
                fh.write(f"{op},{idx},{name},{start},{end},{parent}\n")


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from the recorded spans."""
    n = len(spans)
    child = [0] * n
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    incl = defaultdict(int)     # inclusive time, outermost span of a name only
    self_ns = defaultdict(int)
    layer_self = defaultdict(int)
    for idx, (name, start, end, parent, _, _) in enumerate(spans):
        calls[name] += 1
        own = end - start - child[idx]
        self_ns[name] += own
        layer_self[name.split(".", 1)[0]] += own
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            incl[name] += end - start

    def probes(name):
        return [s[5] for s in spans if s[0] == name]

    solves = probes("linalg.solve_integer")
    active = []
    for ps, res in probes("minnorm.min_norm_point"):
        nsq = sum(x * x for x in res.point)
        active.append(sum(1 for p in ps.points
                          if sum(a * b for a, b in zip(res.point, p)) == nsq))
    iterations = sum(probes("flow.flow_to_critical"))
    # the exponential stepper calls expm_sym twice per attempted step
    attempts = sum(1 for s in spans if s[0] == "flow.expm_sym" and s[3] >= 0
                   and spans[s[3]][0] == "flow.flow_to_critical") // 2

    def sec(ns):
        return ns / 1e9

    m = {
        "linalg.solve_integer.calls": (calls["linalg.solve_integer"], "count"),
        "linalg.solve_integer.hit_ratio": (sum(solves) / len(solves) if solves else 0.0, "ratio"),
        "linalg.solve_integer.s": (sec(incl["linalg.solve_integer"]), "s"),
        "linalg.rref.calls": (calls["linalg.rref"], "count"),
        "linalg.rref.s": (sec(incl["linalg.rref"]), "s"),
        "linalg.is_psd.s": (sec(incl["linalg.is_psd"]), "s"),
        "linalg.matmul.calls": (calls["linalg.matmul"], "count"),
        "linalg.matmul.s": (sec(incl["linalg.matmul"]), "s"),
        "minnorm.min_norm_point.self_s": (sec(self_ns["minnorm.min_norm_point"]), "s"),
        "minnorm.min_norm_point.calls": (calls["minnorm.min_norm_point"], "count"),
        "minnorm.active_max": (max(active, default=0), "count"),
        "minnorm.active_sum": (sum(active), "count"),
        "minnorm.brute_force_min_norm.s": (sec(incl["minnorm.brute_force_min_norm"]), "s"),
        "bracket.rep.calls": (calls["bracket.rep"], "count"),
        "bracket.rep.s": (sec(incl["bracket.rep"]), "s"),
        "bracket.derivations.s": (sec(incl["bracket.derivations"]), "s"),
        "bracket.derivations.dim_sum": (sum(probes("bracket.derivations")), "count"),
        "bracket.jacobi_residual.s": (sec(incl["bracket.jacobi_residual"]), "s"),
        "bracket.lower_central_series.s": (sec(incl["bracket.lower_central_series"]), "s"),
        "bracket.act_array.calls": (calls["bracket.act_array"], "count"),
        "bracket.act_array.s": (sec(incl["bracket.act_array"]), "s"),
        "bracket.rep_array.calls": (calls["bracket.rep_array"], "count"),
        "bracket.rep_array.s": (sec(incl["bracket.rep_array"]), "s"),
        "flow.flow_to_critical.self_s": (sec(self_ns["flow.flow_to_critical"]), "s"),
        "flow.iterations": (iterations, "count"),
        "flow.step_attempts": (attempts, "count"),
        "flow.accept_ratio": (iterations / attempts if attempts else 0.0, "ratio"),
        "flow.expm_sym.calls": (calls["flow.expm_sym"], "count"),
        "flow.expm_sym.s": (sec(incl["flow.expm_sym"]), "s"),
        "flow.ric_array.s": (sec(incl["flow.ric_array"]), "s"),
        "strata.beta_of.s": (sec(incl["strata.beta_of"]), "s"),
        "strata.certify_candidate.self_s": (sec(self_ns["strata.certify_candidate"]), "s"),
        "strata.derivation_certificates.self_s":
            (sec(self_ns["strata.derivation_certificates"]), "s"),
        "solvable.create.s": (sec(incl["solvable.create"]), "s"),
        "solvable.curvature_report.self_s": (sec(self_ns["solvable.curvature_report"]), "s"),
        "solvable.killing_form.s": (sec(incl["solvable.killing_form"]), "s"),
        "solvable.standardness_audit.self_s": (sec(self_ns["solvable.standardness_audit"]), "s"),
        "solvable.rank_one_extension.self_s": (sec(self_ns["solvable.rank_one_extension"]), "s"),
        "jsonio.read.s": (sec(incl["jsonio.read_bracket_file"] + incl["jsonio.read_point_set"]),
                          "s"),
        "jsonio.dumps.s": (sec(incl["jsonio.dumps"]), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sec(layer_self[layer]), "s")
    return m


# Counts that must repeat exactly across runs of one seed.
DETERMINISTIC = ("flow.iterations", "linalg.solve_integer.calls", "minnorm.active_sum",
                 "bracket.derivations.dim_sum")
