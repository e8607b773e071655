"""Span tracer installed from outside the program, around comdyn's layers.

Each traced entry point is wrapped where it is defined and the wrapper is
rebound in every ``comdyn`` namespace that holds the same object (``weyl``
imports ``dft`` by name, ``cli`` imports ``validate_channel``, ``generators``
imports ``diagonalize``), so calls from inside the package are caught too.

Coarse entry points record one span each: name, start, end, parent span and
job id. The very hot ones (time-function evaluation and integration, and the
dense ``expm`` the oracle calls per step) are only counted and their time
summed, and that time is charged to the enclosing span so self times still
add up. A layer's self time is its span time minus the time of the spans
and counted calls directly inside it.
"""

from __future__ import annotations

import sys
from time import perf_counter

TIMEFN_CLASSES = ("Constant", "Polynomial", "DampedTrig", "Tabulated",
                  "SumFunction", "ScaledFunction")

#: Layer name -> (entry points as "module:attribute" or "module:Class.attr",
#: the end-to-end metric and workload it should move). A leading ``*`` marks
#: a counted (not spanned) entry point.
LAYERS = {
    "cli.main": (["cli:main"], "wall_s: every job's remainder (argparse, validators)"),
    "cli.load_config": (["cli:load_config"], "run_s on large-state"),
    "cli.write_table": (["cli:write_table"], "run_s on large-state"),
    "cli.write_sidecar": (["cli:write_sidecar"], "run_s on large-state"),
    "cli.run_experiment": (["cli:run_experiment"],
                           "run_s on large-state (self time: inline channel CSV)"),
    "timefn.eval": ([f"*timefn:{c}.__call__" for c in TIMEFN_CLASSES],
                    "run_s, reject_s on small-state"),
    "timefn.integrate": ([f"*timefn:{c}.integrate" for c in TIMEFN_CLASSES],
                         "run_s, reject_s on small-state"),
    "classical.check": (["classical:kolmogorov_check_markov",
                         "classical:kolmogorov_check_nonmarkov"],
                        "run_s, reject_s, validate_s on small-state"),
    "classical.transform": (["classical:dft", "classical:idft", "classical:convolve"],
                            "run_s, peak_rss_mb on large-state"),
    "classical.propagate": (["classical:propagate"], "reject_s on small-state"),
    "qubit.propagate": (["qubit:propagate"], "run_s, oracle_s on small-state"),
    "qubit.classify": (["qubit:classify"], "run_s, validate_s on small-state"),
    "qubit.build_generator": (["qubit:build_generator"], "oracle_s on small-state"),
    "weyl.family": (["weyl:WeylFamily.__init__"], "run_s on large-state; validate_s on small-state"),
    "weyl.evolve": (["weyl:evolve"], "run_s on large-state; validate_s on small-state"),
    "weyl.assemble": (["weyl:WeylSpectrum.assemble"], "run_s on large-state"),
    "weyl.map_from_values": (["weyl:map_from_values"], "oracle_s, validate_s on small-state"),
    "weyl.relations_check": (["weyl:relations_check"], "validate_s on small-state"),
    "superop.validate_channel": (["superop:validate_channel"],
                                 "run_s on large-state; validate_s on small-state"),
    "superop.diagonalize": (["superop:diagonalize"], "oracle_s, validate_s on small-state"),
    "generators.from_generators": (["generators:CommutingGeneratorSet.from_generators"],
                                   "oracle_s, validate_s on small-state"),
    "generators.mixture_map": (["generators:mixture_map"], "oracle_s on small-state"),
    "generators.resolvent_channel": (["generators:resolvent_channel"],
                                     "run_s, validate_s on small-state"),
    "kernel.laplace_table": (["kernel:laplace_table"], "run_s, validate_s on small-state"),
    "oracle.ordered_exp": (["oracle:ordered_exp"], "oracle_s on small-state; not large-state"),
    "oracle.expm": (["*oracle:expm"], "oracle_s on small-state; not large-state"),
}

#: Counters beyond calls and self time: unit, and what they count and
#: should move.
EXTRA = {
    "classical.check.points": ("count", "summed condition-grid length; "
                                        "run_s, reject_s on small-state"),
    "classical.transform.bytes": ("bytes", "computed: 16 B x size^2 dense operator per "
                                           "transform; run_s, peak_rss_mb on large-state"),
    "classical.propagate.wasted_frac": ("ratio", "propagate calls in refused jobs / all; "
                                                 "reject_s on small-state"),
    "oracle.ordered_exp.steps": ("count", "oracle_s on small-state"),
    "trace.overhead_s": ("s", "traced wall_s minus untraced wall_s"),
}


def metric_units() -> dict:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for name, (unit, _) in EXTRA.items():
        units[name] = unit
    return units


class Tracer:
    """Collects spans and counters in memory for one pass."""

    def __init__(self):
        self.job = None
        self.spans = []          # [layer, start, end, parent index, job]
        self.counted_inside = []  # per span: counted-call seconds directly inside
        self.stack = []
        self.counted = {}        # layer -> [calls, seconds]
        self.counters = {"classical.check.points": 0,
                         "classical.transform.bytes": 0,
                         "oracle.ordered_exp.steps": 0}
        self._counting = False

    # -- wrappers ----------------------------------------------------------------

    def spanned(self, layer, fn):
        count = _COUNTS.get(layer)

        def wrapper(*args, **kwargs):
            if count is not None:
                count(self.counters, args, kwargs)
            index = len(self.spans)
            record = [layer, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job]
            self.spans.append(record)
            self.counted_inside.append(0.0)
            self.stack.append(index)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self.stack.pop()
        return wrapper

    def counted_call(self, layer, fn):
        totals = self.counted.setdefault(layer, [0, 0.0])

        def wrapper(*args, **kwargs):
            if self._counting:       # a sum or scaled function calling its terms
                return fn(*args, **kwargs)
            self._counting = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._counting = False
                totals[0] += 1
                totals[1] += elapsed
                if self.stack:
                    self.counted_inside[self.stack[-1]] += elapsed
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap every entry point in LAYERS; comdyn.cli must be imported."""
        import comdyn.cli  # noqa: F401  (imports every layer)
        modules = [m for name, m in sys.modules.items()
                   if name == "comdyn" or name.startswith("comdyn.")]
        for layer, (targets, _) in LAYERS.items():
            for target in targets:
                wrap = self.counted_call if target.startswith("*") else self.spanned
                module_name, attr = target.lstrip("*").split(":")
                module = sys.modules[f"comdyn.{module_name}"]
                if "." in attr:          # a method: patch its class
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[method]
                    if isinstance(raw, classmethod):
                        setattr(cls, method, classmethod(wrap(layer, raw.__func__)))
                    else:
                        setattr(cls, method, wrap(layer, raw))
                    continue
                original = getattr(module, attr)
                wrapped = wrap(layer, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapped)

    # -- results ----------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "counted_inside": self.counted_inside,
                "counted": self.counted, "counters": self.counters}


def _count_points(counters, args, kwargs):
    grid = args[1] if len(args) > 1 else kwargs.get("grid", kwargs.get("taus"))
    counters["classical.check.points"] += len(grid)


def _count_bytes(counters, args, kwargs):
    counters["classical.transform.bytes"] += 16 * args[0].size ** 2


def _count_steps(counters, args, kwargs):
    counters["oracle.ordered_exp.steps"] += args[3] if len(args) > 3 else kwargs["steps"]


_COUNTS = {"classical.check": _count_points, "classical.transform": _count_bytes,
           "oracle.ordered_exp": _count_steps}


def layer_metrics(result: dict) -> dict:
    """Per-layer calls and self seconds from one traced pass's result."""
    trace = result["trace"]
    refused = {job["id"] for job in result["jobs"] if job["rc"] == 2}
    spans = trace["spans"]
    self_s = [end - start - inside for (_, start, end, _, _), inside
              in zip(spans, trace["counted_inside"])]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    for (layer, _, _, _, _), seconds in zip(spans, self_s):
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += seconds
    for layer, (calls, seconds) in trace["counted"].items():
        out[f"{layer}.calls"] += calls
        out[f"{layer}.self_s"] += seconds
    out.update(trace["counters"])
    propagates = [job for layer, _, _, _, job in spans if layer == "classical.propagate"]
    wasted = sum(job in refused for job in propagates)
    out["classical.propagate.wasted_frac"] = wasted / len(propagates) if propagates else 0.0
    return out
