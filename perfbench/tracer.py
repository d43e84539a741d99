"""Span tracer that wraps jpta's public functions from outside the package.

No code under ``src/`` is changed: ``install`` replaces each listed function
with a wrapper that records a span, and rebinds the name in every ``jpta``
module that holds the original. The rebinding matters because ``sysim`` and
``cli`` bind names at import time (``from .link import select_rate``), so
patching only the defining module would miss their call sites.

Spans stay in memory as ``[name, parent_index, start, end]`` and are reduced
by ``summarize`` when the run ends. A span's self time is its duration minus
the durations of its direct children; calls are sequential, so children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

# layer -> public functions wrapped in it; every name is reported as
# "<layer>.<function>" with .calls, .busy_s and .self_s
LAYERS = {
    "cli": ("main",),
    "config": ("load_config",),
    "sysim": ("throughput_sweep", "run_paa", "run_jpta", "write_results_csv",
              "write_summary_csv", "coverage_distance"),
    "link": ("select_rate",),
    "codebook": ("design_type1", "type1_objective", "design_type2",
                 "paa_codebook", "export_codebook_csv", "import_codebook_csv"),
    "antenna": ("pattern_map", "beam_gain_db"),
}

# work counts derived from argument sizes, not measured inside the program
COMPUTED_COUNTS = ("link.rate_candidates", "link.eesm_terms",
                   "codebook.delay_scan_cells", "antenna.pattern_cells")


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self._stack = []

    def add(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span called ``name``. ``count(tracer,
        bound_arguments, result)`` runs after each call, outside the span."""
        spans = self.spans
        stack = self._stack
        clock = self.clock
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, bound.arguments, result)
            return result

        return wrapper


def summarize(spans) -> dict:
    """Per-name ``calls``, ``busy_s`` and ``self_s`` from a span list.

    Each span is ``[name, parent_index, start, end]`` with parent -1 at the
    top. Also returns, under ``by_parent``, busy time keyed by
    ``(name, parent_name)`` and, under ``durations``, every span duration per
    name. No wrapped function calls itself, so busy time is a plain sum.
    """
    child_s = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_s[parent] += end - start
    stats = {}
    by_parent = {}
    durations = {}
    for i, (name, parent, start, end) in enumerate(spans):
        dur = end - start
        entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                        "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += dur
        entry["self_s"] += dur - child_s[i]
        key = (name, spans[parent][0] if parent >= 0 else None)
        by_parent[key] = by_parent.get(key, 0.0) + dur
        durations.setdefault(name, []).append(dur)
    return {"stats": stats, "by_parent": by_parent, "durations": durations}


# --- computed work counts ---------------------------------------------------

def _count_select_rate(tracer, args, decision):
    total = len(args["available_rbs"])
    betas = args["eesm_betas"]
    num_betas = 1 if betas is None else int(np.unique(betas).size)
    first = sys.modules["jpta.link"].MIN_RBS_PER_GRANT
    tracer.add("link.decisions", 1)
    tracer.add("link.outages", int(decision.outage))
    tracer.add("link.rate_candidates", max(0, total - (first - 1)))
    # sum over n = first..total of n RB terms per distinct beta
    if total >= first:
        tracer.add("link.eesm_terms", num_betas * (
            total * (total + 1) // 2 - (first - 1) * first // 2))


def _count_design_type1(tracer, args, _result):
    freqs = args["grid"].num_rbs * (12 if args["per_subcarrier"] else 1)
    taus = args["constraint"].num_steps + 1
    tracer.add("codebook.delay_scan_cells",
               taus * freqs * args["cfg"].num_elements)


def _count_pattern_map(tracer, args, _result):
    tracer.add("antenna.pattern_cells", len(args["angle_grid_rad"])
               * args["grid"].num_rbs * args["cfg"].num_elements)


COUNTERS = {
    "link.select_rate": _count_select_rate,
    "codebook.design_type1": _count_design_type1,
    "antenna.pattern_map": _count_pattern_map,
}


def install(tracer: Tracer):
    """Wrap every function in LAYERS and rebind it wherever jpta imported it.

    Returns a function that restores the original bindings.
    """
    homes = {layer: importlib.import_module("jpta." + layer)
             for layer in LAYERS}
    modules = [m for name, m in list(sys.modules.items()) if m is not None
               and (name == "jpta" or name.startswith("jpta."))]
    restore = []
    for layer, functions in LAYERS.items():
        home = homes[layer]
        for fn_name in functions:
            original = getattr(home, fn_name)
            span_name = "%s.%s" % (layer, fn_name)
            wrapper = tracer.wrap(span_name, original,
                                  COUNTERS.get(span_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        restore.append((module, attr, original))

    def uninstall():
        for module, attr, original in reversed(restore):
            setattr(module, attr, original)

    return uninstall
