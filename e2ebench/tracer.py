"""In-memory span tracer the benchmark's launcher installs around ``repro``.

The program is not modified: :func:`install` replaces the public entry
points listed in :data:`LAYERS` with wrappers that record one span per
call (name, layer, start, end, thread, parent span, a few arguments).
Spans stay in memory and :meth:`Tracer.report` hands them to the
launcher, which writes them at exit; :func:`chrome_trace` turns the
merged spans of a run into Chrome trace-event JSON and
:func:`layer_metrics` into the per-layer metrics.

A span's parent is the span open on its thread when it starts.  Work
handed to another thread keeps its caller as parent: a task submitted
to a ``ThreadPoolExecutor`` (``run_suite`` runs the drivers that way)
takes the span open on the submitting thread, and ``Advisor.advise`` on
a serve worker thread takes the ``WorkerPool.submit`` span that handed
it the payload (see :data:`HANDOFF`).  A layer's self time is its
spans' durations minus the part of each span that its children cover.
Children on other threads may overlap one another or outlast the
parent, so the covered part is the union of their intervals clipped to
the parent's.  Self time is thread time: while two threads work at
once, the layers' self times add up to more than the wall time.

Work handed to pool processes is one span in the process that hands it
off: forked children inherit the wrappers, but :func:`install` turns
recording off in them.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

#: layer -> ((module, attribute), ...).  ``Class.method`` attributes are
#: wrapped on the class.  The drivers of ``python -m repro.experiments``
#: are wrapped where the experiment registry holds them.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "frontend": (("repro.frontend.parser", "parse_kernel"),),
    "analysis": (
        ("repro.ir.verify", "verify_kernel"),
        ("repro.analysis.framework.lint", "lint_kernel"),
        ("repro.analysis.framework.ranges", "prove_safe"),
        ("repro.analysis.framework.passmanager", "AnalysisManager.get"),
    ),
    "vectorize": (
        ("repro.vectorize.legality", "check_legality"),
        ("repro.vectorize.llv", "vectorize_loop"),
        ("repro.vectorize.slp", "slp_vectorize"),
        ("repro.vectorize.plan", "enumerate_plan_points"),
    ),
    "codegen": (
        ("repro.codegen.scalar_gen", "lower_scalar"),
        ("repro.codegen.vector_gen", "lower_vector"),
        ("repro.codegen.slp_gen", "lower_slp"),
        ("repro.codegen.interleave", "interleave_stream"),
    ),
    "sim.functional": (
        ("repro.sim.measure", "estimate_guard_probs"),
        ("repro.sim.executor", "run_scalar"),
        ("repro.sim.executor", "run_scalar_interpreted"),
        ("repro.sim.native", "prebuild_native"),
    ),
    "sim.timing": (("repro.sim.timing", "analyze_stream"),),
    "costmodel": (
        ("repro.costmodel.featurize", "feature_vector"),
        ("repro.costmodel.matrix", "get_bundle"),
        ("repro.costmodel.llvm_like", "LLVMLikeCostModel.predict_batch"),
        ("repro.costmodel.linear", "LinearCostModel.predict_batch"),
        ("repro.costmodel.speedup", "SpeedupModel.predict_batch"),
        ("repro.serve.registry", "ModelEntry.predict"),
    ),
    "fitting": (
        ("repro.fitting.l2", "LeastSquares.fit"),
        ("repro.fitting.nnls", "NonNegativeLeastSquares.fit"),
        ("repro.fitting.svr", "LinearSVR.fit"),
    ),
    "validation": (
        ("repro.validation.loocv", "loocv_predictions"),
        ("repro.validation.metrics", "evaluate"),
    ),
    "pipeline": (
        ("repro.pipeline.build", "measure_suite"),
        ("repro.pipeline.corpus", "measure_corpus"),
        ("repro.pipeline.cache", "MeasurementCache.get"),
        ("repro.pipeline.cache", "MeasurementCache.put"),
    ),
    "experiments": (
        ("repro.experiments.scheduler", "run_suite"),
        ("repro.experiments.dataset", "build_dataset"),
    ),
    "dse": (
        ("repro.dse.engine", "search_kernel"),
        ("repro.dse.oracle", "score_points"),
        ("repro.dse.oracle", "score_points_entry"),
        ("repro.dse.points", "measure_points"),
        ("repro.dse.oracle", "pick_best"),
    ),
    "serve": (
        ("repro.serve.workers", "WorkerPool.submit"),
        ("repro.serve.advisor", "Advisor.advise"),
    ),
}

#: Calls that hand an object to another thread ("send") and the call
#: there that takes it ("receive"), with the object's position in the
#: arguments.  A receiving span that opens on an empty stack becomes a
#: child of the open sending span that handed over the same object.
HANDOFF = {"WorkerPool.submit": ("send", 1), "Advisor.advise": ("receive", 1)}

#: Span list layout (a list, so the end time can be filled in place).
NAME, LAYER, START, END, TID, PARENT, ARGS = range(7)


class Tracer:
    """Span and counter store of one process."""

    def __init__(self) -> None:
        self.enabled = True
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        #: id(ManagerStats) -> (stats, hits, misses) seen at first use.
        self._managers: dict[int, tuple] = {}
        #: id(object handed to another thread) -> open sending span.
        self._handed: dict[int, list] = {}
        self._baseline: dict[str, float] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, by: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + by

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Record one span around a block (the launcher's ``import repro``)."""
        rec = self._open(name, layer)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name: str, layer: str, handed: Optional[list] = None) -> list:
        """Open a span; on an empty stack its parent is ``handed`` or the
        span carried over from the thread that submitted this task."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = handed or getattr(self._local, "carried", None)
        rec = [name, layer, time.perf_counter_ns(), 0, threading.get_ident(), parent, None]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is rec:
            stack.pop()

    def carry(self, fn: Callable) -> Callable:
        """``fn`` for another thread: the spans it opens on an empty stack
        become children of the span open here now."""
        stack = self._stack()
        if not stack:
            return fn
        parent, local = stack[-1], self._local

        def carried(*args, **kwargs):
            outer = getattr(local, "carried", None)
            local.carried = parent
            try:
                return fn(*args, **kwargs)
            finally:
                local.carried = outer

        return carried

    def wrap(self, layer: str, name: str, fn: Callable, note=None) -> Callable:
        """``fn`` recording a span per call; ``note(tracer, args, kwargs,
        result)`` returns the span's arguments."""
        tracer = self
        before = BEFORE.get(name)
        role, position = HANDOFF.get(name, (None, 0))

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            key = id(args[position]) if role else None
            rec = tracer._open(
                name, layer, tracer._handed.get(key) if role == "receive" else None
            )
            if role == "send":
                tracer._handed[key] = rec
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
                if role == "send":
                    tracer._handed.pop(key, None)
            if note is not None:
                rec[ARGS] = note(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(traced, attr, getattr(fn, attr, None))
        return traced

    # -- counters read from the program's own stats ---------------------------

    def snapshot(self) -> dict:
        from repro.dse import dse_cache_info
        from repro.sim.compile import compile_summary

        summary = compile_summary()
        memo = dse_cache_info()
        return {
            "native_build_s": float(summary["native_build_s"]),
            "native_demoted": int(summary["kernels_native_demoted"]),
            "dse_hits": int(memo["hits"]),
            "dse_misses": int(memo["misses"]),
        }

    def start_counters(self) -> None:
        self._baseline = self.snapshot()

    def report(self) -> dict:
        """Spans (parent as index) and counters of this process."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        now = time.perf_counter_ns()
        spans = [
            [
                rec[NAME],
                rec[LAYER],
                rec[START],
                rec[END] or now,
                rec[TID],
                -1 if rec[PARENT] is None else index.get(id(rec[PARENT]), -1),
                rec[ARGS],
            ]
            for rec in list(self.spans)
        ]
        counters = dict(self.counters)
        end = self.snapshot()
        base = self._baseline or end
        counters["sim.native.build_s"] = end["native_build_s"] - base["native_build_s"]
        counters["sim.native.demotions"] = end["native_demoted"] - base["native_demoted"]
        counters["dse.memo_hits"] = end["dse_hits"] - base["dse_hits"]
        counters["dse.memo_misses"] = end["dse_misses"] - base["dse_misses"]
        hits = misses = 0
        for stats, h0, m0 in self._managers.values():
            hits += stats.hits - h0
            misses += stats.misses - m0
        counters["analysis.hits"] = hits
        counters["analysis.misses"] = misses
        return {"pid": self.pid, "spans": spans, "counters": counters}


# -- argument notes: what a span keeps besides its times -----------------------


def _see_manager(tracer: Tracer, args) -> None:
    # The manager keeps its own hit/miss counts; remember where they
    # stood when tracing first saw it.  Holding the stats object keeps
    # the counts readable after the manager itself is collected.
    stats = args[0].stats
    if id(stats) not in tracer._managers:
        tracer._managers[id(stats)] = (stats, stats.hits, stats.misses)


BEFORE = {"AnalysisManager.get": _see_manager}


def _note_cache_get(tracer: Tracer, args, kwargs, result):
    from repro.pipeline.cache import MISS

    tracer.count("pipeline.cache_misses" if result is MISS else "pipeline.cache_hits")
    return None


def _note_plan_points(tracer: Tracer, args, kwargs, result):
    tracer.count("vectorize.plan_points", len(result))
    return None


def _note_measure_points(tracer: Tracer, args, kwargs, result):
    tracer.count("dse.points_measured", len(result))
    return None


def _note_submit(tracer: Tracer, args, kwargs, result):
    return {
        "request_id": kwargs.get("request_id"),
        "payload": id(args[1]),
        "status": result[0],
    }


def _note_advise(tracer: Tracer, args, kwargs, result):
    return {"payload": id(args[1])}


NOTES = {
    "MeasurementCache.get": _note_cache_get,
    "enumerate_plan_points": _note_plan_points,
    "measure_points": _note_measure_points,
    "WorkerPool.submit": _note_submit,
    "Advisor.advise": _note_advise,
}


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`LAYERS` wherever ``repro`` binds it."""
    originals: dict[int, Callable] = {}
    for layer, entries in LAYERS.items():
        for module_name, attr in entries:
            module = importlib.import_module(module_name)
            owner, _, method = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            fn = holder.__dict__[method]
            wrapped = tracer.wrap(layer, attr, fn, NOTES.get(attr))
            setattr(holder, method, wrapped)
            if not owner:
                originals[id(fn)] = wrapped
    # ``from x import f`` copies the binding: rebind every copy.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro" or module is None:
            continue
        for key, value in list(vars(module).items()):
            wrapped = originals.get(id(value))
            if wrapped is not None and wrapped is not value:
                setattr(module, key, wrapped)
    registry = importlib.import_module("repro.experiments.registry")
    for eid, (title, driver) in list(registry.EXPERIMENTS.items()):
        registry.EXPERIMENTS[eid] = (
            title,
            tracer.wrap("experiments", f"driver.{eid}", driver),
        )
    toolchain = importlib.import_module("repro.sim.toolchain")
    compile_shared = toolchain.compile_shared

    def counted(*args, **kwargs):
        if tracer.enabled:
            tracer.count("sim.native.builds")
        return compile_shared(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and module is not None:
            if getattr(module, "compile_shared", None) is compile_shared:
                module.compile_shared = counted

    # Tasks of a thread pool (``run_suite``'s drivers) keep the span that
    # submitted them as parent.
    pool_submit = ThreadPoolExecutor.submit

    def submit(pool, fn, /, *args, **kwargs):
        task = tracer.carry(fn) if tracer.enabled else fn
        return pool_submit(pool, task, *args, **kwargs)

    ThreadPoolExecutor.submit = submit

    def _child() -> None:
        tracer.enabled = False

    os.register_at_fork(after_in_child=_child)
    tracer.start_counters()


# -- analysis of the merged spans of a run ---------------------------------------


def self_times(spans: list) -> list[int]:
    """Self time (ns) of every span of one process."""
    children: list[list] = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append(s)
    own = []
    for s, kids in zip(spans, children):
        lo, hi = s[START], s[END]
        own.append(hi - lo - covered_ns((max(k[START], lo), min(k[END], hi)) for k in kids))
    return own


def covered_ns(intervals) -> int:
    """Length of the union of ``(start, end)`` intervals; empty ones count 0."""
    total, cur_lo, cur_hi = 0, None, None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    processes: list[dict],
    *,
    requests: Optional[dict] = None,
    overhead_share: float = 0.0,
) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    ``processes`` are launcher reports: spans, counters, and the
    process lifetime (``spawn_ns`` .. ``exit_ns``).  ``requests`` maps
    request id -> client-side latency in ms for the advise workload.
    Ratios without a denominator read 0.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    lifetime = attributed = 0
    submits: dict[str, tuple] = {}
    advises: list[tuple] = []
    searches = 0
    for proc in processes:
        spans = proc["spans"]
        for span, own in zip(spans, self_times(spans)):
            layer = span[LAYER]
            calls[layer] = calls.get(layer, 0) + 1
            self_s[layer] = self_s.get(layer, 0.0) + own / 1e9
            if span[NAME] == "search_kernel":
                searches += 1
            elif span[NAME] == "WorkerPool.submit":
                submits[span[ARGS]["request_id"]] = span
            elif span[NAME] == "Advisor.advise":
                advises.append(span)
            elif span[NAME] == "MeasurementCache.get":
                counters["pipeline.cache_get_s"] = (
                    counters.get("pipeline.cache_get_s", 0.0) + (span[END] - span[START]) / 1e9
                )
            elif span[NAME] == "MeasurementCache.put":
                counters["pipeline.cache_put_s"] = (
                    counters.get("pipeline.cache_put_s", 0.0) + (span[END] - span[START]) / 1e9
                )
        for key, value in proc["counters"].items():
            counters[key] = counters.get(key, 0) + value
        lifetime += proc["exit_ns"] - proc["spawn_ns"]
        attributed += covered_ns((s[START], s[END]) for s in spans)

    out: dict[str, float] = {}
    for layer in ("frontend", "analysis", "vectorize", "codegen", "sim.functional",
                  "sim.timing", "costmodel", "fitting", "dse"):
        out[f"{layer}.calls"] = calls.get(layer, 0)
    for layer in ("import", "frontend", "analysis", "vectorize", "codegen",
                  "sim.functional", "sim.timing", "costmodel", "fitting",
                  "validation", "pipeline", "experiments", "dse"):
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out["analysis.hit_ratio"] = _ratio(
        counters.get("analysis.hits", 0),
        counters.get("analysis.hits", 0) + counters.get("analysis.misses", 0),
    )
    out["vectorize.plan_points"] = counters.get("vectorize.plan_points", 0)
    out["sim.native.builds"] = counters.get("sim.native.builds", 0)
    out["sim.native.build_s"] = counters.get("sim.native.build_s", 0.0)
    out["sim.native.demotions"] = counters.get("sim.native.demotions", 0)
    hits = counters.get("pipeline.cache_hits", 0)
    out["pipeline.cache_hit_ratio"] = _ratio(hits, hits + counters.get("pipeline.cache_misses", 0))
    out["pipeline.cache_get_s"] = counters.get("pipeline.cache_get_s", 0.0)
    out["pipeline.cache_put_s"] = counters.get("pipeline.cache_put_s", 0.0)
    memo = counters.get("dse.memo_hits", 0)
    out["dse.memo_hit_ratio"] = _ratio(memo, memo + counters.get("dse.memo_misses", 0))
    out["dse.measured_per_kernel"] = _ratio(counters.get("dse.points_measured", 0), searches)

    advise_ms, queue_ms, http_ms, shed = [], [], [], 0
    for rid, latency_ms in (requests or {}).items():
        submit = submits.get(rid)
        if submit is None:
            continue
        if submit[ARGS]["status"] in (429, 503):
            shed += 1
        inner = [
            a for a in advises
            if a[ARGS]["payload"] == submit[ARGS]["payload"]
            and submit[START] <= a[START] and a[END] <= submit[END]
        ]
        submit_ms = (submit[END] - submit[START]) / 1e6
        if inner:
            advise = (inner[0][END] - inner[0][START]) / 1e6
            advise_ms.append(advise)
            queue_ms.append(submit_ms - advise)
        http_ms.append(latency_ms - submit_ms)
    out["serve.advise_ms"] = statistics.median(advise_ms) if advise_ms else 0.0
    out["serve.queue_wait_ms"] = statistics.median(queue_ms) if queue_ms else 0.0
    out["serve.http_ms"] = statistics.median(http_ms) if http_ms else 0.0
    out["serve.shed"] = shed
    out["trace.overhead_share"] = overhead_share
    out["trace.unattributed_share"] = _ratio(lifetime - attributed, lifetime)
    return out


def chrome_trace(processes: list[dict], client_spans: list = ()) -> dict:
    """Chrome trace-event JSON (``ph: X`` complete events, microseconds)."""
    events = []
    for proc in processes:
        pid = proc["pid"]
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": proc.get("label", f"repro {pid}")}}
        )
        for span in proc["spans"]:
            event = {
                "ph": "X",
                "name": span[NAME],
                "cat": span[LAYER],
                "ts": span[START] / 1e3,
                "dur": (span[END] - span[START]) / 1e3,
                "pid": pid,
                "tid": span[TID],
            }
            if span[ARGS]:
                event["args"] = {k: v for k, v in span[ARGS].items() if k != "payload"}
            events.append(event)
    if client_spans:
        pid = os.getpid()
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": "benchmark client"}}
        )
        for name, start, end, tid, args in client_spans:
            events.append(
                {"ph": "X", "name": name, "cat": "client", "ts": start / 1e3,
                 "dur": (end - start) / 1e3, "pid": pid, "tid": tid, "args": args}
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
