"""Spans around the program's public functions, kept in memory, written at exit.

:func:`install` replaces each listed function *where its caller looks it
up* (``repro.serve.app`` imports ``dumps_bytes`` by name, so the wrapper
goes there) with a wrapper that records one span: layer, function, start,
end, parent span and thread, the request's ``X-Request-Id`` when the
layer runs in that request's asyncio task, and one count (bytes encoded,
designs in a batch, frequency points evaluated).  Nothing inside ``src/``
changes.  Each process writes ``spans-<pid>.json`` when it exits; forked
pool workers do so from a multiprocessing finalizer.

:func:`self_times` turns spans into self time: a span's duration minus
the union of its child spans.
"""

from __future__ import annotations

import asyncio.base_events
import atexit
import contextvars
import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

REQUEST_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_request_id", default=None
)

#: (layer, module, attributes): every public function the breakdown times.
#: A function bound in two modules is wrapped once and the wrapper bound in
#: both, so internal calls (``phase_margin`` -> ``gain_crossover``) nest.
FUNCTIONS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    (
        "serve.protocol.parse",
        "repro.serve.app",
        ("parse_json_body", "design_params", "design_fingerprint", "grid_from_request"),
    ),
    ("serve.protocol.encode", "repro.serve.app", ("dumps_bytes",)),
    ("serve.cache", "repro.serve.cache", ("ShardedGridCache.lookup", "ShardedGridCache.store")),
    ("pll.design", "repro.pll.design", ("design_typical_loop",)),
    ("pll.margins", "repro.pll.margins", ("compare_margins", "compare_margins_batch")),
    (
        "lti.bode",
        "repro.pll.margins",
        ("gain_crossover", "phase_margin", "crossover_from_samples"),
    ),
    ("lti.bode", "repro.lti.bode", ("gain_crossover", "phase_margin", "crossover_from_samples")),
    (
        "pll.closedloop.lambda",
        "repro.pll.closedloop",
        ("ClosedLoopHTM.effective_gain", "ClosedLoopHTM.effective_gain_response"),
    ),
    ("pll.closedloop.response", "repro.pll.closedloop", ("ClosedLoopHTM.frequency_response",)),
    ("core.aliasing", "repro.core.aliasing", ("AliasedSum.__call__",)),
    (
        "baselines.zdomain",
        "repro.baselines.zdomain",
        (
            "sampled_open_loop",
            "closed_loop_z",
            "ZTransferFunction.poles",
            "ZTransferFunction.is_stable",
        ),
    ),
    (
        "campaign.store.append",
        "repro.campaign.store",
        ("ResultStore.append_point", "ResultStore.append_checkpoint", "ResultStore.append_summary"),
    ),
    (
        "campaign.store.read",
        "repro.campaign.store",
        (
            "ResultStore.point_records",
            "ResultStore.merged_point_records",
            "ResultStore.merged_completed_ids",
        ),
    ),
    (
        "campaign.lease",
        "repro.campaign.lease",
        ("done_batch_ids", "lease_state", "try_claim", "try_reclaim", "mark_done", "try_finalize"),
    ),
)

#: Layers that exist only in the server process.
SERVE_LAYERS = ("serve.protocol.parse", "serve.protocol.encode", "serve.cache")


def _size(value: Any) -> int:
    try:
        return int(getattr(value, "size", None) or len(value))
    except TypeError:
        return 1


#: Per-function count recorded on the span (the "n" field).
_MEASURES: dict[str, Callable[[tuple, Any], int]] = {
    "dumps_bytes": lambda args, result: len(result),
    "compare_margins_batch": lambda args, result: len(args[0]),
    "AliasedSum.__call__": lambda args, result: _size(args[1]),
}


class Recorder:
    """In-memory span buffer of one process.

    A span is ``(sid, parent, layer, function, t0, t1, thread, request_id,
    n)`` with ``time.perf_counter`` times (CLOCK_MONOTONIC on Linux, so
    comparable across processes and with the client's asyncio clock).
    """

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.spans: list[tuple] = []
        self.events: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._wrappers: dict[int, Callable] = {}
        self._written = False

    # -- recording -----------------------------------------------------------------

    def count(self, name: str, k: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + k

    def wrap(
        self,
        layer: str,
        qualname: str,
        fn: Callable,
        measure: Callable[[tuple, Any], int] | None = None,
    ) -> Callable:
        """The span-recording wrapper of ``fn`` (one per function object)."""
        known = self._wrappers.get(id(fn))
        if known is not None:
            return known
        measure = measure or _MEASURES.get(qualname)
        local = self._local
        ids = self._ids
        spans = self.spans
        name = qualname

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            n = 0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    n = measure(args, result)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append(
                    (sid, parent, layer, name, t0, t1, threading.get_ident(), REQUEST_ID.get(), n)
                )

        wrapper.__perfbench_wrapped__ = fn
        self._wrappers[id(fn)] = wrapper
        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    # -- output --------------------------------------------------------------------

    def flush(self) -> None:
        if self._written:
            return
        self._written = True
        self.out_dir.mkdir(parents=True, exist_ok=True)
        data = {
            "pid": os.getpid(),
            "spans": self.spans,
            "events": self.events,
            "counts": self.counts,
        }
        tmp = self.out_dir / f".spans-{os.getpid()}.tmp"
        tmp.write_text(json.dumps(data))
        tmp.replace(self.out_dir / f"spans-{os.getpid()}.json")

    def _after_fork(self) -> None:
        """In a forked multiprocessing child: start empty, flush at its exit."""
        self.spans.clear()
        self.events.clear()
        self.counts.clear()
        self._local.__dict__.pop("stack", None)
        self._written = False
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    def arm(self) -> None:
        """Write at interpreter exit, and in every forked worker at its exit."""
        atexit.register(self.flush)
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)


def _resolve(module: Any, attr: str) -> tuple[Any, str]:
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _install_functions(rec: Recorder, serve: bool) -> None:
    for layer, module_name, attrs in FUNCTIONS:
        if layer in SERVE_LAYERS and not serve:
            continue
        module = importlib.import_module(module_name)
        for attr in attrs:
            owner, name = _resolve(module, attr)
            fn = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            setattr(owner, name, rec.wrap(layer, attr, fn))


def _install_counts(rec: Recorder) -> None:
    """Counts beyond time: claims won and attempted, fsynced appends, and
    records decoded by ``ResultStore.records``."""
    lease = importlib.import_module("repro.campaign.lease")
    for name in ("try_claim", "try_reclaim"):
        inner = getattr(lease, name)

        def counted(*args, _inner=inner, **kwargs):
            won = _inner(*args, **kwargs)
            rec.count("lease.attempts")
            if won:
                rec.count("lease.wins")
            return won

        setattr(lease, name, counted)
    store = importlib.import_module("repro.campaign.store")
    for name in ("append_checkpoint", "append_summary"):
        inner = store.ResultStore.__dict__[name]

        def synced(self, *args, _inner=inner, **kwargs):
            rec.count("store.fsyncs")
            return _inner(self, *args, **kwargs)

        setattr(store.ResultStore, name, synced)
    records = store.ResultStore.records

    def counted_records(self):
        for record in records(self):
            rec.count("store.records")
            yield record

    store.ResultStore.records = counted_records


def _install_tasks(rec: Recorder) -> None:
    """Wrap the task adapters that ``get_task`` / ``get_batch_task`` hand out."""
    tasks = importlib.import_module("repro.campaign.tasks")
    executor = importlib.import_module("repro.campaign.executor")
    get_task = tasks.get_task
    get_batch_task = tasks.get_batch_task
    wrapped: dict[int, Callable] = {}

    def adapter(fn: Callable | None, batch: bool) -> Callable | None:
        if fn is None:
            return None
        known = wrapped.get(id(fn))
        if known is None:
            measure = (lambda args, result: len(args[0])) if batch else (lambda a, r: 1)
            known = wrapped[id(fn)] = rec.wrap("campaign.tasks", fn.__name__, fn, measure)
        return known

    def traced_get_task(name):
        return adapter(get_task(name), False)

    def traced_get_batch_task(name):
        return adapter(get_batch_task(name), True)

    tasks.get_task = traced_get_task
    executor.get_task = traced_get_task
    tasks.get_batch_task = traced_get_batch_task


class TimedCompute:
    """A batch's compute callable that records when the batch waited and ran."""

    def __init__(self, rec: Recorder, fn: Callable, first_submit: float):
        self.rec = rec
        self.fn = fn
        self.first_submit = first_submit
        self.submitted: float | None = None

    def __call__(self, merged):
        start = time.perf_counter()
        try:
            return self.fn(merged)
        finally:
            self.rec.events.append(
                (
                    "batch",
                    self.first_submit,
                    self.submitted if self.submitted is not None else start,
                    start,
                    time.perf_counter(),
                )
            )


def _install_serve(rec: Recorder) -> None:
    """Batch wait and compute-thread queue timing, plus request-id tagging."""
    batcher_mod = importlib.import_module("repro.serve.batcher")
    app_mod = importlib.import_module("repro.serve.app")
    submit = batcher_mod.MicroBatcher.submit

    async def traced_submit(self, key, omega, compute, trace=None):
        if key not in self.pending_keys():  # this call opens a new batch
            compute = TimedCompute(rec, compute, time.perf_counter())
        return await submit(self, key, omega, compute, trace=trace)

    batcher_mod.MicroBatcher.submit = traced_submit

    run_in_executor = asyncio.base_events.BaseEventLoop.run_in_executor

    def traced_run_in_executor(self, executor, func, *args):
        if isinstance(func, TimedCompute):
            func.submitted = time.perf_counter()
        return run_in_executor(self, executor, func, *args)

    asyncio.base_events.BaseEventLoop.run_in_executor = traced_run_in_executor

    dispatch = app_mod.AnalysisServer._dispatch

    async def traced_dispatch(self, method, target, raw, headers=None, request_id=None):
        # Set in the connection's task, so the parse, cache and encode spans
        # of this request (all on the event loop) carry its id.
        REQUEST_ID.set(request_id)
        return await dispatch(self, method, target, raw, headers, request_id)

    app_mod.AnalysisServer._dispatch = traced_dispatch


def install(rec: Recorder, serve: bool) -> None:
    """Wrap every function of the breakdown; ``serve`` adds the server layers."""
    _install_counts(rec)
    _install_functions(rec, serve)
    _install_tasks(rec)
    if serve:
        _install_serve(rec)


# -- analysis ------------------------------------------------------------------------


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """``sid -> self time``: duration minus the union of child spans.

    ``spans`` are one process's tuples ``(sid, parent, layer, name, t0, t1,
    ...)``; children are clipped to their parent's interval first.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[4], span[5]))
    out = {}
    for span in spans:
        sid, t0, t1 = span[0], span[4], span[5]
        kids = [
            (max(lo, t0), min(hi, t1))
            for lo, hi in children.get(sid, ())
            if min(hi, t1) > max(lo, t0)
        ]
        out[sid] = (t1 - t0) - _union_length(kids)
    return out


def load(spans_dir: Path) -> list[dict]:
    """Every process's span file under ``spans_dir``."""
    return [json.loads(p.read_text()) for p in sorted(Path(spans_dir).glob("spans-*.json"))]
