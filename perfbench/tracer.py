"""In-memory span tracer around masec's public functions.

Each traced layer is a public function named in ``LAYERS``.  ``Tracer.install``
replaces that function, by identity, in every loaded ``masec`` module
namespace that holds it (the defining module, the package and every module
that imported the name), so calls made through any of those names are
recorded.  Span stacks are per thread, so a span opened on a worker thread
of ``run_sweep``'s pool has the right parent.

A span records (layer, start, end, id, parent id, thread).  A layer's self
time is its span's duration minus the time covered by its traced children.
A layer whose function a later change removes is reported as absent; its
metrics read 0 and the run goes on.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time

LAYERS = {
    "surrogate.fit": ("masec.surrogate", "fit_linear_surrogate"),
    "surrogate.load": ("masec.surrogate", "load_table"),
    "surrogate.lookup": ("masec.surrogate", "surrogate_lookup"),
    "gammainc.inv": ("masec.gammainc", "inverse_lower_incomplete_gamma"),
    "gammainc.p": ("masec.gammainc", "lower_incomplete_gamma_reg"),
    "ascent.bisect": ("masec.ascent", "bisection_outage_min"),
    "ascent.apga": ("masec.ascent", "apga_solve"),
    "outage.closed_form": ("masec.outage", "secrecy_outage_closed_form"),
    "outage.mc": ("masec.outage", "monte_carlo_outage"),
    "zf.pgd": ("masec.zf", "pgd_solve"),
    "zf.loss": ("masec.zf", "bob_gain_loss"),
    "zf.loss_grad": ("masec.zf", "bob_gain_loss_grad"),
    "zf.outage": ("masec.zf", "zf_outage"),
    "zf.beamformer": ("masec.zf", "zf_beamformer"),
    "model.project": ("masec.model", "project_positions"),
    "model.random_positions": ("masec.model", "random_feasible_positions"),
    "bench.run_scheme": ("masec.bench", "run_scheme"),
    "bench.sweep": ("masec.bench", "run_sweep"),
}

# Per-layer metrics as (name, unit, how it is derived); every value is per
# traced round.  "self" is summed self time, "calls" the call count, "incl"
# the summed span duration, "extra:<key>" a counter read off the call.
METRICS = [
    ("cli.import_s", "s", "import"),
    ("surrogate.fit_s", "s", "surrogate.fit self"),
    ("surrogate.fit_calls", "count", "surrogate.fit calls"),
    ("surrogate.load_s", "s", "surrogate.load self"),
    ("surrogate.lookup_calls", "count", "surrogate.lookup calls"),
    ("gammainc.inv_calls", "count", "gammainc.inv calls"),
    ("gammainc.inv_elems", "count", "gammainc.inv extra:elems"),
    ("gammainc.inv_s", "s", "gammainc.inv self"),
    ("gammainc.p_calls", "count", "gammainc.p calls"),
    ("gammainc.p_elems", "count", "gammainc.p extra:elems"),
    ("gammainc.p_s", "s", "gammainc.p self"),
    ("ascent.bisect_calls", "count", "ascent.bisect calls"),
    ("ascent.bisect_s", "s", "ascent.bisect self"),
    ("ascent.probes", "count", "ascent.apga calls"),
    ("ascent.iterations", "count", "ascent.apga extra:iterations"),
    ("ascent.capped_probes", "count", "ascent.apga extra:capped"),
    ("ascent.apga_s", "s", "ascent.apga self"),
    ("ascent.us_per_iter", "us", "us_per_iter"),
    ("outage.closed_form_calls", "count", "outage.closed_form calls"),
    ("outage.closed_form_s", "s", "outage.closed_form self"),
    ("outage.mc_draws", "count", "outage.mc extra:draws"),
    ("outage.mc_s", "s", "outage.mc self"),
    ("zf.pgd_calls", "count", "zf.pgd calls"),
    ("zf.pgd_iterations", "count", "zf.pgd extra:iterations"),
    ("zf.pgd_s", "s", "zf.pgd self"),
    ("zf.loss_calls", "count", "zf.loss calls"),
    ("zf.loss_s", "s", "zf.loss self"),
    ("zf.loss_grad_calls", "count", "zf.loss_grad calls"),
    ("zf.loss_grad_s", "s", "zf.loss_grad self"),
    ("zf.outage_calls", "count", "zf.outage calls"),
    ("zf.outage_s", "s", "zf.outage self"),
    ("zf.beamformer_calls", "count", "zf.beamformer calls"),
    ("zf.beamformer_s", "s", "zf.beamformer self"),
    ("model.project_calls", "count", "model.project calls"),
    ("model.random_positions_calls", "count", "model.random_positions calls"),
    ("bench.run_scheme_calls", "count", "bench.run_scheme calls"),
    ("bench.run_scheme_self_s", "s", "bench.run_scheme self"),
    ("bench.sweep_s", "s", "bench.sweep incl"),
    ("bench.sweep_jobs", "count", "bench.sweep extra:jobs"),
    ("bench.sweep_skipped", "count", "bench.sweep extra:skipped"),
    ("bench.sweep_job_s", "s", "bench.sweep extra:job_s"),
    ("trace.overhead_s", "s", "overhead"),
    ("trace.spans", "count", "spans"),
]


def _extras(layer, args, kwargs, result) -> dict:
    """Counters read off one call; an unexpected signature yields none."""
    try:
        if layer in ("gammainc.p", "gammainc.inv"):
            return {"elems": int(getattr(result, "size", 1))}
        if layer == "ascent.apga":
            return {"iterations": int(result.n_iter),
                    "capped": int(not result.converged)}
        if layer == "zf.pgd":
            return {"iterations": int(result.n_iter)}
        if layer == "outage.mc":
            trials = kwargs["n_trials"] if "n_trials" in kwargs else args[3]
            return {"draws": int(trials)}
        if layer == "bench.sweep":
            return {"jobs": len(result.rows) + len(result.skipped),
                    "skipped": len(result.skipped),
                    "job_s": float(sum(r.seconds for r in result.rows))}
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        pass
    return {}


class Tracer:
    """Records spans and per-layer totals while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stats = {layer: {"calls": 0, "self": 0.0, "incl": 0.0}
                      for layer in LAYERS}
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._threads: dict[int, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._replaced: list[tuple] = []

    def install(self) -> None:
        wrappers = {}
        self.absent = []
        for layer, (modname, fname) in LAYERS.items():
            try:
                fn = getattr(importlib.import_module(modname), fname, None)
            except ImportError:
                fn = None
            if not callable(fn):
                self.absent.append(layer)
                continue
            wrappers[id(fn)] = (fn, self._wrap(layer, fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "masec"
                                   or modname.startswith("masec.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._replaced.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._replaced):
            setattr(mod, attr, value)
        self._replaced = []

    def _wrap(self, layer, fn):
        stats = self.stats[layer]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else None
            frame = [next(self._ids), 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                with self._lock:
                    stats["calls"] += 1
                    stats["incl"] += duration
                    stats["self"] += duration - frame[1]
                    thread = self._threads.setdefault(
                        threading.get_ident(), len(self._threads))
                    self.spans.append((layer, start, end, frame[0],
                                       parent[0] if parent else 0, thread))
            extra = _extras(layer, args, kwargs, result)
            if extra:
                with self._lock:
                    for key, value in extra.items():
                        stats[key] = stats.get(key, 0) + value
            return result

        return traced

    def dump(self) -> dict:
        return {"stats": self.stats, "absent": self.absent,
                "spans": self.spans}


def merge_stats(into: dict, other: dict) -> None:
    """Add one process's per-layer totals into ``into``."""
    for layer, values in other.items():
        target = into.setdefault(layer, {"calls": 0, "self": 0.0, "incl": 0.0})
        for key, value in values.items():
            target[key] = target.get(key, 0) + value


def layer_metrics(stats: dict, rounds: int, import_times: list[float],
                  overhead_s: float, n_spans: int) -> dict:
    """Per-layer metrics, each divided by the number of traced rounds."""
    out = {}
    for name, unit, rule in METRICS:
        if rule == "import":
            value = statistics.median(import_times) if import_times else 0.0
        elif rule == "overhead":
            value = overhead_s
        elif rule == "spans":
            value = n_spans / rounds
        elif rule == "us_per_iter":
            apga = stats.get("ascent.apga", {})
            iters = apga.get("iterations", 0)
            value = 1e6 * apga.get("incl", 0.0) / iters if iters else 0.0
        else:
            layer, key = rule.split()
            key = key.split(":", 1)[-1]
            value = stats.get(layer, {}).get(key, 0) / rounds
        out[name] = {"value": value, "unit": unit}
    return out


def write_spans(path, processes: list[dict]) -> None:
    """Write every process's spans as one JSON document."""
    with open(path, "w") as fh:
        json.dump({"fields": ["layer", "start", "end", "id", "parent",
                              "thread"], "processes": processes}, fh)
