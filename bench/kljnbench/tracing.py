"""In-memory spans around the public functions of the `kljn` modules.

The tracer wraps each public function (and public method of a public
class) of the layer modules and patches the wrapper in wherever the
function is looked up: its own module, every other `kljn` module that
imported it by name, and the package namespace.  Each call records a
span (name, start, end, parent span, trace id); the trace id is the
CLI command the span belongs to.  Spans stay in compact arrays until
the run ends.

A few spans also feed counters through result hooks: session status
counts, table statistics, family-sweep points and CSV rows/bytes
written.  An exception leaving a span counts as
``<span>.failed`` and as ``<span>.failed.<ExceptionClass>``.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
import sys
import time
from array import array
from collections import Counter

import numpy as np

#: The package's layer modules, in call-stack order.
LAYERS = ("cli", "config", "protocol", "physics", "resolver", "lookup",
          "adversary", "report")

#: Private functions also wrapped, with the layer they are charged to.
#: `cli._dump_rows` is the second CSV writer (table and attack dumps).
EXTRA_SPANS = {"cli._dump_rows": "report"}

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check_metric_name(name: str) -> str:
    if not METRIC_NAME.fullmatch(name) or len(name) > 64:
        raise ValueError(f"invalid metric name {name!r}")
    return name


def span_layer(name: str) -> str:
    return EXTRA_SPANS.get(name, name.split(".", 1)[0])


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    duration = end - start
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=duration[nested],
                             minlength=len(duration))
    return duration - child_time


class Tracer:
    """Spans in parallel arrays: start, end, parent index (-1 for a
    root), name id and trace id."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.trace = array("q")
        self.trace_id = 0
        self.counters: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, func, on_result=None):
        """`func` recording one span per call under `name`."""
        name_id = self._name_id(name)
        clock = self._clock
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(stack[-1] if stack else -1)
            self.name.append(name_id)
            self.trace.append(self.trace_id)
            stack.append(index)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                self.counters[f"{name}.failed"] += 1
                self.counters[f"{name}.failed.{type(exc).__name__}"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.start[index] = t0
                self.end[index] = t1
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def clear(self):
        """Drop recorded spans and counters, keeping installed patches."""
        for buf in (self.start, self.end, self.parent, self.name, self.trace):
            del buf[:]
        self.counters.clear()
        self.gauges.clear()

    # -- aggregation -----------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "name": np.frombuffer(self.name, dtype=np.int64).copy(),
                "trace": np.frombuffer(self.trace, dtype=np.int64).copy()}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s and total_s."""
        spans = self.arrays()
        own = self_times(spans["start"], spans["end"], spans["parent"])
        n_names = len(self.names)
        calls = np.bincount(spans["name"], minlength=n_names)
        self_s = np.bincount(spans["name"], weights=own, minlength=n_names)
        total_s = np.bincount(spans["name"],
                              weights=spans["end"] - spans["start"],
                              minlength=n_names)
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                       "total_s": float(total_s[i])}
                for i, name in enumerate(self.names)}

    def layer_self_times(self, summary) -> dict[str, float]:
        """Self time per layer, from `summary()`."""
        layers = dict.fromkeys(LAYERS, 0.0)
        for name, stats in summary.items():
            layer = span_layer(name)
            layers[layer] = layers.get(layer, 0.0) + stats["self_s"]
        return layers

    # -- patching --------------------------------------------------------

    def install(self, package: str = "kljn"):
        """Wrap the layer modules' public functions and patch every lookup."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == package or name.startswith(package + ".")}
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = modules[f"{package}.{layer}"]
            for attr, obj in vars(module).items():
                span = f"{layer}.{attr}"
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                        and (not attr.startswith("_") or span in EXTRA_SPANS):
                    wrappers[id(obj)] = self.wrap(span, obj, _HOOKS.get(span))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__ \
                        and not attr.startswith("_"):
                    for method, func in list(vars(obj).items()):
                        if inspect.isfunction(func) and not method.startswith("_"):
                            name = f"{span}.{method}"
                            self._patch(obj, method,
                                        self.wrap(name, func, _HOOKS.get(name)))
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])

    def _patch(self, owner, attr: str, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# -- result hooks ------------------------------------------------------------

def _on_session(tracer: Tracer, args, report):
    for status, count in report.counts.items():
        tracer.counters[f"protocol.status.{status}"] += count
    tracer.counters[f"protocol.{report.variant}.bits"] += report.total_bits
    tracer.counters[f"protocol.{report.variant}.secure"] += \
        report.counts.get("secure", 0)


def _on_table(tracer: Tracer, args, table):
    singular = int(np.sum(table.cell_sizes[table.cell_singular]))
    tracer.gauges["lookup.n_settings"] = table.n_settings
    tracer.gauges["lookup.n_cells"] = table.n_cells
    tracer.gauges["lookup.singular_fraction"] = singular / table.n_settings


def _on_family(tracer: Tracer, args, family):
    tracer.counters["adversary.eve_rrrt_solution_family.points"] += len(family)


def _on_write_report(tracer: Tracer, args, _):
    report, path = args
    tracer.counters["report.rows_written"] += len(report.rows)
    tracer.counters["report.bytes_written"] += os.path.getsize(path)


def _on_dump_rows(tracer: Tracer, args, text):
    tracer.counters["report.rows_written"] += len(args[0])
    if args[3]:
        tracer.counters["report.bytes_written"] += len(text)


_HOOKS = {
    "protocol.run_session": _on_session,
    "lookup.build_table": _on_table,
    "adversary.eve_rrrt_solution_family": _on_family,
    "report.write_report": _on_write_report,
    "cli._dump_rows": _on_dump_rows,
}
