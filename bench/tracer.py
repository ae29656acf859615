"""Spans around the public functions of each `cslowsim` layer.

The wrappers are installed from here, at the module attributes the callers
look up (`cslowsim.retime.simulate` is the name `check_equivalence` calls,
`cslowsim.cslow.run` the one `sequential_baseline` calls), so nothing in the
package changes.  Each span records its name, start, end, parent and the
counts taken at that boundary; spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def s(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.s - self.child_s


# Count hooks: (args, kwargs, result) -> (name suffix, counts).
def _run_steps(args, kwargs, result):
    return "", {"steps": result.cycles}


def _run_all_ticks(args, kwargs, result):
    machine = args[0]
    return "." + machine.config.mode.value, {
        "ticks": result.fast_cycles_total,
        "idle_slots": result.fast_cycles_total - sum(result.per_thread_cycles)}


def _trace_bytes(args, kwargs, result):
    return "", {"bytes": os.path.getsize(args[0])}


def _node_cycles(args, kwargs, result):
    cycles = args[2] if len(args) > 2 else kwargs["cycles"]
    return "", {"node_cycles": len(args[0].nodes) * cycles}


def _nodes(args, kwargs, result):
    return "", {"nodes": len(args[0].nodes)}


class Tracer:
    """Installs timing wrappers on `cslowsim` and collects their spans."""

    def __init__(self, modules):
        self.modules = modules  # name -> imported cslowsim submodule
        self.spans = []
        self._open = []
        self._saved = []

    def _wrap(self, fn, name, hook=None, alloc=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=tracer._open[-1] if tracer._open else None)
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._open.append(index)
            if alloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
                if span.parent is not None:
                    tracer.spans[span.parent].child_s += span.s
                if alloc:
                    span.counts["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if hook is not None:
                suffix, counts = hook(args, kwargs, result)
                span.name += suffix
                span.counts.update(counts)
            return result
        return wrapper

    def _patch(self, owner, attr, name, hook=None, alloc=False):
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            patched = classmethod(self._wrap(original.__func__, name, hook, alloc))
        else:
            patched = self._wrap(original, name, hook, alloc)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, patched)

    def install(self):
        m = self.modules
        self._patch(m["cli"], "main", "cli.main")
        self._patch(m["isa"], "assemble", "isa.assemble")
        self._patch(m["isa"].MemoryImage, "from_text", "isa.MemoryImage.from_text")
        self._patch(m["cslow"], "run", "microcode.run", _run_steps)
        self._patch(m["microcode"], "write_trace", "microcode.write_trace", _trace_bytes)
        self._patch(m["cslow"].CslowMachine, "run_all", "cslow.run_all", _run_all_ticks)
        for attr in ("compare", "sequential_baseline", "machine_report"):
            self._patch(m["cslow"], attr, "cslow." + attr)
        self._patch(m["netlist"], "parse", "netlist.parse")
        self._patch(m["netlist"], "critical_path", "netlist.critical_path")
        self._patch(m["retime"], "critical_path", "netlist.critical_path")
        self._patch(m["retime"], "simulate", "netlist.simulate", _node_cycles)
        self._patch(m["retime"], "min_period_retime", "retime.min_period_retime",
                    _nodes, alloc=True)
        for attr in ("cslow_transform", "apply_retiming", "area_report",
                     "check_cslow_equivalence", "check_equivalence"):
            self._patch(m["retime"], attr, "retime." + attr)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self):
        """The spans recorded since the last call, and forget them."""
        spans, self.spans = self.spans, []
        return spans


def layer_totals(spans) -> dict:
    """Per span name: total seconds, self seconds, calls and summed counts."""
    totals = {}
    for span in spans:
        t = totals.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        t["s"] += span.s
        t["self_s"] += span.self_s
        t["calls"] += 1
        for key, value in span.counts.items():
            if key == "peak_alloc_bytes":
                t[key] = max(t.get(key, 0), value)
            else:
                t[key] = t.get(key, 0) + value
    return totals
