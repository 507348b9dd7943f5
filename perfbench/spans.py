"""Layer spans recorded from outside the program.

:func:`install` wraps the public entry point of each layer of
``repro`` (the table in :data:`TARGETS`) so that every call records a
span: name, start, end, parent span and run id.  Spans stay in memory
until :meth:`Tracer.dump` writes them out.  Nothing under ``src/`` is
edited; the wrappers replace module and class attributes in the running
process and :func:`install` returns the function that puts the
originals back.

:func:`layer_metrics` folds a span list into the per-layer metrics the
benchmark reports.  A layer's ``calls`` counts entries into the layer
(spans whose parent belongs to another layer), and its ``self_s`` is
the time spent in the layer's spans minus the time their child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from metrics import self_times

#: (module, attribute, span name).  An attribute ``Class.method`` wraps
#: the method on the class; a plain attribute is replaced in every
#: loaded ``repro`` module that bound the same function object, so
#: ``from x import f`` copies are traced too.  The span name is
#: ``layer:operation``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sweep.runner", "compute_grid", "sweep.runner:compute_grid"),
    ("repro.circuits.workloads", "build_workload", "circuits.workloads:build"),
    ("repro.sim.cache", "simulate_optimized", "sim.cache:simulate_optimized"),
    ("repro.sim.scheduler", "adder_schedule", "sim.scheduler:adder_schedule"),
    ("repro.sim.levels", "simulate_hierarchy_run", "sim.levels:run"),
    # The reference split-transaction engine, entered from
    # simulate_hierarchy_run when fastsplit cannot take the cell.
    ("repro.sim.levels", "_SplitTransactionRun.run", "sim.levels:split_reference"),
    ("repro.sim.fastsplit", "simulate_split_fast", "sim.fastsplit:run"),
    # The one extraction call site shared by the per-cell reservation
    # path (simulate_hierarchy_run) and the batched path.
    ("repro.sim.replay", "_extract", "sim.replay:extract"),
    ("repro.sim.replay", "price_movement_trace", "sim.replay:price"),
    ("repro.sim.replay", "price_movement_trace_batch", "sim.replay:price"),
    ("repro.sim.replay", "price_movement_traces_multi", "sim.replay:price"),
    ("repro.sim.residency", "simulate_fidelity_run", "sim.residency:run"),
    ("repro.sim.residency", "accrue_residency", "sim.residency:accrue"),
    ("repro.ecc.montecarlo", "logical_error_rate", "ecc.montecarlo:logical_error_rate"),
    ("repro.analysis.tables", "render_table_from_store", "analysis.tables:render"),
    ("repro.service.server", "SweepService.status_payload", "service:status"),
    ("repro.service.server", "SweepService.table_text", "service:table"),
    ("repro.service.server", "SweepService.cell_payload", "service:cell"),
    ("repro.service.server", "SweepService.cells_payload", "service:cells"),
) + tuple(
    (module, f"{cls}.{method}", f"perf.store:{kind}.{method}")
    for module, cls in (
        ("repro.perf.store", "ResultStore"),
        ("repro.perf.backends", "SqliteStore"),
    )
    for kind, methods in (
        ("write", ("put", "clear_failure", "index_add")),
        ("read", ("get", "record", "has", "keys", "status")),
    )
    for method in methods
)

#: Traced separately: a hit is a call that never invoked ``extract``.
TRACE_CACHE = ("repro.perf.tracecache", "TraceCache", "load_or_extract")

#: Every layer the benchmark reports, in pipeline order.
LAYERS = (
    "sweep.runner",
    "circuits.workloads",
    "sim.cache",
    "sim.scheduler",
    "sim.levels",
    "sim.fastsplit",
    "sim.replay",
    "sim.residency",
    "ecc.montecarlo",
    "perf.tracecache",
    "perf.store",
    "analysis.tables",
    "service",
)

#: Service routes with their own request count and self time.
ROUTES = ("status", "table", "cell")

#: Modules imported before patching, so that every module-level
#: ``from x import f`` copy already exists when the scan runs.
_PRELOAD = ("repro.sweep.cli", "repro.core.design_space")


class Tracer:
    """Collects spans in memory; thread-safe, one parent stack per thread."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, object]]:
        """Record one span around the block; the yielded dict's entries
        are stored with the span as extra attributes."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        attrs: Dict[str, object] = {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
                "run": self.run_id,
            }
            record.update(attrs)
            with self._lock:
                self.spans.append(record)

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def load(path) -> List[Dict[str, object]]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target; returns the function that undoes it."""
    for module in _PRELOAD + tuple(t[0] for t in TARGETS):
        importlib.import_module(module)
    patches: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    for module_name, attr, name in TARGETS:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            patch(cls, method, tracer.wrap(cls.__dict__[method], name))
            continue
        original = getattr(module, attr)
        traced = tracer.wrap(original, name)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not loaded_name.startswith("repro"):
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    patch(loaded, binding, traced)

    module_name, cls_name, method = TRACE_CACHE
    cls = getattr(sys.modules[module_name], cls_name)
    original = cls.__dict__[method]

    @functools.wraps(original)
    def load_or_extract(self, key, extract):
        with tracer.span("perf.tracecache:load_or_extract") as attrs:
            attrs["hit"] = True

            def counted():
                attrs["hit"] = False
                return extract()

            return original(self, key, counted)

    patch(cls, method, load_or_extract)

    def restore() -> None:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)

    return restore


def _layer(name: str) -> str:
    return name.split(":", 1)[0]


def layer_metrics(
    spans: Sequence[Dict[str, object]],
) -> Dict[str, Tuple[float, str]]:
    """``{metric: (value, unit)}`` for every layer in :data:`LAYERS`.

    Spans are grouped by ``run`` before parents are resolved, so span
    lists from several traced processes can be passed together.
    """
    by_key = {(span["run"], span["id"]): span for span in spans}
    own = {}
    for run in {span["run"] for span in spans}:
        group = [span for span in spans if span["run"] == run]
        for span_id, value in self_times(group).items():
            own[(run, span_id)] = value

    def parent(span) -> Optional[Dict[str, object]]:
        if span["parent"] is None:
            return None
        return by_key[(span["run"], span["parent"])]

    def group_of(match: Callable[[str], bool]):
        chosen = [span for span in spans if match(span["name"])]
        entries = [
            span
            for span in chosen
            if parent(span) is None or not match(parent(span)["name"])
        ]
        busy = sum(own[(span["run"], span["id"])] for span in chosen)
        return entries, busy

    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        entries, busy = group_of(lambda name, layer=layer: _layer(name) == layer)
        out[f"{layer}.calls"] = (len(entries), "count")
        out[f"{layer}.self_s"] = (busy, "s")

    def ancestor_named(span, name: str) -> bool:
        span = parent(span)
        while span is not None:
            if span["name"] == name:
                return True
            span = parent(span)
        return False

    computed = sum(
        1
        for span in spans
        if span["name"] == "perf.store:write.put"
        and ancestor_named(span, "sweep.runner:compute_grid")
    )
    out["sweep.runner.cells_computed"] = (computed, "count")
    builds = out["circuits.workloads.calls"][0]
    out["circuits.workloads.builds_per_cell"] = (
        builds / computed if computed else 0.0,
        "ratio",
    )
    fast = out["sim.fastsplit.calls"][0]
    reference = sum(1 for s in spans if s["name"] == "sim.levels:split_reference")
    out["sim.fastsplit.fast_ratio"] = (
        fast / (fast + reference) if fast + reference else 0.0,
        "ratio",
    )
    for op in ("extract", "price"):
        entries, busy = group_of(lambda name, op=op: name == f"sim.replay:{op}")
        out[f"sim.replay.{op}_calls"] = (len(entries), "count")
        out[f"sim.replay.{op}_s"] = (busy, "s")
    lookups = [s for s in spans if s["name"] == "perf.tracecache:load_or_extract"]
    hits = sum(1 for s in lookups if s.get("hit"))
    out["perf.tracecache.hit_ratio"] = (
        hits / len(lookups) if lookups else 0.0,
        "ratio",
    )
    for kind, count_name in (("write", "writes"), ("read", "reads")):
        entries, busy = group_of(
            lambda name, kind=kind: name.startswith(f"perf.store:{kind}.")
        )
        out[f"perf.store.{count_name}"] = (len(entries), "count")
        out[f"perf.store.{kind}_s"] = (busy, "s")
    for route in ROUTES:
        entries, busy = group_of(lambda name, route=route: name == f"service:{route}")
        out[f"service.{route}.requests"] = (len(entries), "count")
        out[f"service.{route}.self_s"] = (busy, "s")
    return out
