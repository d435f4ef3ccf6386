"""Span recorder for the traced benchmark run.

The untraced runs import ``repro`` untouched.  A traced run installs
wrappers around each layer's entry points *at the name its caller looks
up* — a ``from x import y`` name is patched in the caller's module, a
method on its class — and records one span per call: name, start, end and
parent.  Parents come from a per-thread stack, so spans opened on server
threads nest correctly; the span list itself is guarded by a lock.

A layer's self time is its span's duration minus the time its child spans
cover.  Per-layer metrics are reported per operation of the traced phase
(one fit, one refresh cycle or one HTTP request), so two runs that
complete a different number of operations stay comparable.
"""

from __future__ import annotations

import importlib
import threading
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Thread-safe span and counter store plus the patches that feed it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.values: dict[str, list[float]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- recording
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record a span around the block, nested under this thread's open span."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, name, start, end, parent))

    @contextmanager
    def paused(self):
        """Let this thread's calls through the wrappers unrecorded."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def record(self, name: str, start: float, end: float) -> None:
        """Record a root span measured elsewhere (e.g. across threads)."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self.spans.append((span_id, name, start, end, None))

    def observe(self, name: str, value: float) -> None:
        """Append one sample of a counter or ratio."""
        with self._lock:
            self.values.setdefault(name, []).append(float(value))

    # ------------------------------------------------------------- patching
    def wrap(self, owner, attribute: str, name: str, on_result=None) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``on_result(tracer, args, kwargs, result)`` runs after the call,
        outside the span, to turn the result into counters.
        """
        original = getattr(owner, attribute)
        tracer = self

        def wrapper(*args, **kwargs):
            if getattr(tracer._local, "paused", False):
                return original(*args, **kwargs)
            with tracer.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def wrap_future(self, owner, attribute: str, name: str) -> None:
        """Wrap a method returning a future: the span ends when it settles."""
        original = getattr(owner, attribute)
        tracer = self

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            future = original(*args, **kwargs)
            future.add_done_callback(
                lambda _done: tracer.record(name, start, time.perf_counter()))
            return future

        wrapper.__wrapped__ = original
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------- analysis
    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count per span name."""
        with self._lock:
            spans = list(self.spans)
        covered: dict[int, float] = {}
        for _span_id, _name, start, end, parent in spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span_id, name, start, end, _parent in spans:
            own = (end - start) - covered.get(span_id, 0.0)
            seconds[name] = seconds.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        return seconds, calls

    def durations(self, name: str) -> list[float]:
        """Wall-clock durations of every span called ``name``."""
        with self._lock:
            return [end - start for _i, span_name, start, end, _p in self.spans
                    if span_name == name]


# ---------------------------------------------------------------- the layers
def _spg_result(tracer: Tracer, _args, _kwargs, result) -> None:
    tracer.observe("subspace.spg_iters", result.n_iterations)
    tracer.observe("subspace.unconverged_types", 0 if result.converged else 1)


def _extension_rows(tracer: Tracer, args, kwargs, _result) -> None:
    queries = kwargs["queries"] if "queries" in kwargs else args[2]
    tracer.observe("serve.extension_rows", queries.shape[0])


def _fit_result(tracer: Tracer, _args, _kwargs, result) -> None:
    tracer.observe("core.iterations", result.n_iterations)
    tracer.observe("core.unconverged_fits", 0 if result.converged else 1)
    E_R = result.state.E_R
    stored = getattr(E_R, "n_stored_rows", None)
    if stored is None:
        stored = int(np.count_nonzero(np.any(np.asarray(E_R) != 0.0, axis=1)))
    tracer.observe("core.e_rows_kept_fraction", stored / E_R.shape[0])
    emptied = sum(int(G.shape[1]) - len(np.unique(np.argmax(G, axis=1)))
                  for G in result.state.G_blocks if G.shape[0])
    tracer.observe("core.emptied_clusters", emptied)


#: Every wrapped call site: (module under ``repro``, attribute, span name).
#: A module-level name is patched in the module that calls it; a method on
#: its class.  ``repro.cluster`` exports a ``kmeans`` function as well as
#: the submodule, so modules are imported by their full name.
LAYERS = (
    ("core.rhchme", "RHCHME.fit", "core.fit"),
    ("core.rhchme", "update_association_blocks", "core.s_update"),
    ("core.rhchme", "update_membership_blocks", "core.g_update"),
    ("core.rhchme", "update_error_matrix_blocks", "core.e_update"),
    ("core.rhchme", "evaluate_objective_blocks", "core.objective"),
    ("core.rhchme", "initialize_state", "core.init"),
    # initialize_membership_blocks calls KMeans(...).fit_predict, which
    # delegates to fit.
    ("cluster.kmeans", "KMeans.fit", "cluster.kmeans"),
    ("relational.dataset", "MultiTypeRelationalData.relation_blocks",
     "relational.relation_blocks"),
    ("manifold.ensemble", "HeterogeneousManifoldEnsemble.build_blocks",
     "manifold.build"),
    ("manifold.ensemble", "pnn_affinity", "graph.pnn"),
    ("manifold.ensemble", "laplacian", "graph.laplacian"),
    # SubspaceRepresentation.fit hands SPG lambdas that look the objective
    # and gradient up in this module on every call, and passes the
    # projection by its module-level name.
    ("subspace.representation", "SubspaceRepresentation.fit", "subspace.fit"),
    ("subspace.representation", "spg_minimize", "subspace.spg"),
    ("subspace.representation", "subspace_objective", "subspace.objective"),
    ("subspace.representation", "subspace_objective_gradient",
     "subspace.gradient"),
    ("subspace.representation", "project_nonnegative_zero_diagonal",
     "subspace.project"),
    ("serve.predictor", "BatchPredictor.serve", "serve.predictor"),
    # Eager models and lazily sharded ones each import the extension.
    ("serve.artifact", "out_of_sample_predict", "serve.extension"),
    ("serve.shards", "out_of_sample_predict", "serve.extension"),
    ("runtime.server", "RuntimeServer.submit_request", "runtime.request"),
    # refresh_from_log imports refresh_model from this module per call.
    ("runtime.refresh", "refresh_model", "runtime.refresh"),
    ("stream.log", "ObjectLog.append_objects", "stream.append"),
    ("stream.log", "ObjectLog.append_edges", "stream.append"),
    ("stream.log", "ObjectLog.dataset", "stream.dataset"),
    ("serve.artifact", "RHCHMEModel.save", "serve.save"),
)

_ON_RESULT = {"core.fit": _fit_result, "subspace.spg": _spg_result,
              "serve.extension": _extension_rows}


def install_layers(tracer: Tracer) -> None:
    """Wrap every call site in :data:`LAYERS`."""
    for module_name, attribute, span in LAYERS:
        owner = importlib.import_module(f"repro.{module_name}")
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        if span == "runtime.request":
            # submit_request returns a future settled on a worker thread.
            tracer.wrap_future(owner, name, span)
        else:
            tracer.wrap(owner, name, span, _ON_RESULT.get(span))


#: Self-time metrics: (metric, span name).
SELF_TIME = (
    ("subspace.fit_s", "subspace.fit"),
    ("subspace.spg_s", "subspace.spg"),
    ("subspace.objective_s", "subspace.objective"),
    ("subspace.gradient_s", "subspace.gradient"),
    ("subspace.project_s", "subspace.project"),
    ("manifold.build_s", "manifold.build"),
    ("graph.pnn_s", "graph.pnn"),
    ("graph.laplacian_s", "graph.laplacian"),
    ("relational.relation_blocks_s", "relational.relation_blocks"),
    ("cluster.kmeans_s", "cluster.kmeans"),
    ("core.init_s", "core.init"),
    ("core.s_update_s", "core.s_update"),
    ("core.g_update_s", "core.g_update"),
    ("core.e_update_s", "core.e_update"),
    ("core.objective_s", "core.objective"),
    ("core.fit_s", "core.fit"),
    ("serve.extension_s", "serve.extension"),
    ("serve.predictor_s", "serve.predictor"),
    ("stream.append_s", "stream.append"),
    ("stream.dataset_s", "stream.dataset"),
    ("runtime.refresh_s", "runtime.refresh"),
    ("serve.save_s", "serve.save"),
    ("serve.load_s", "serve.load"),
)

#: Call-count metrics: (metric, span name).
CALLS = (
    ("subspace.objective_calls", "subspace.objective"),
    ("subspace.gradient_calls", "subspace.gradient"),
    ("serve.extension_calls", "serve.extension"),
)

#: Counters summed per operation: (metric, unit).
PER_OP = (("subspace.spg_iters", "count"), ("subspace.unconverged_types", "count"),
          ("core.iterations", "count"), ("core.unconverged_fits", "count"),
          ("core.emptied_clusters", "count"), ("runtime.batches", "count"),
          ("net.rejected", "count"), ("net.errors", "count"),
          ("stream.append_bytes", "bytes"), ("stream.dirty_types", "count"),
          ("serve.save_bytes", "bytes"))

#: Ratios and latencies averaged over their samples: (metric, unit, better).
MEANS = (("core.e_rows_kept_fraction", "fraction", "lower"),
         ("runtime.wait_ms", "ms", "lower"),
         ("runtime.batch_rows_mean", "rows", "higher"),
         ("net.overhead_ms", "ms", "lower"),
         ("serve.mmap_touched_fraction", "fraction", "lower"))

#: (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    [(name, "s", "lower") for name, _span in SELF_TIME]
    + [(name, "count", "lower") for name, _span in CALLS]
    + [("serve.extension_rows_per_call", "rows", "higher")]
    + [(name, unit, "lower") for name, unit in PER_OP]
    + list(MEANS)
    + [("trace.overhead_fraction", "fraction", "lower"),
       ("trace.spans", "count", "lower")]
)

_UNITS = {name: unit for name, unit, _better in PER_LAYER}


def layer_metrics(tracer: Tracer, n_ops: int, overhead: float) -> dict:
    """Every per-layer metric as ``{name: {"value", "unit"}}``."""
    n_ops = max(int(n_ops), 1)
    seconds, calls = tracer.self_times()
    values = {name: list(samples) for name, samples in tracer.values.items()}
    out: dict[str, float] = {}
    for metric, span in SELF_TIME:
        out[metric] = seconds.get(span, 0.0) / n_ops
    for metric, span in CALLS:
        out[metric] = calls.get(span, 0) / n_ops
    rows = values.get("serve.extension_rows", [])
    out["serve.extension_rows_per_call"] = sum(rows) / len(rows) if rows else 0.0
    for metric, _unit in PER_OP:
        out[metric] = sum(values.get(metric, [])) / n_ops
    for metric, _unit, _better in MEANS:
        samples = values.get(metric, [])
        out[metric] = sum(samples) / len(samples) if samples else 0.0
    out["trace.overhead_fraction"] = overhead
    out["trace.spans"] = sum(calls.values()) / n_ops
    return {name: {"value": value, "unit": _UNITS[name]}
            for name, value in out.items()}
