"""Cross-request micro-batching: coalesce same-fingerprint work.

The highest-leverage serving optimisation for this workload: analysis
requests are *fingerprint-addressable* (a design's canonical parameters
hash to the campaign point id), and concurrent clients very often ask
about the same design — dashboards refreshing, sweeps fanned out over
HTTP, retries.  Instead of evaluating the same operator stack once per
request, the :class:`MicroBatcher` batches continuously: a key with no
compute in flight opens a batch that starts on the next event-loop tick
(arrivals in the same tick share it; nothing waits on a timer), and the
requests that arrive while a key computes join its *next* batch, which
starts when the current one finishes.  An idle server adds no wait; a
busy one coalesces everything that queued behind a compute into **one**
underlying ``evaluate()``/``dense_grid`` call:

* **grid mode** — requests carry frequency grids; the batch merges them
  (``np.unique`` of the concatenation: sorted, de-duplicated), the
  compute callable runs once on the merged grid in a worker thread, and
  each waiter gets its slice back via ``searchsorted`` index mapping.  A
  waiter whose grid *is* the merged grid shares the result array directly
  (read-only, zero copy).  Grid evaluation is elementwise across frequency
  points, so merged-grid slices are bitwise identical to a serial
  evaluation of the original grid — asserted by the equivalence tests.
* **scalar mode** (``omega=None``) — pure deduplication: every waiter
  shares the single computed result, and an arrival while the key
  computes awaits the result already in flight.

Failure/cancellation semantics: a compute error propagates to every waiter
of that batch (they asked the same question; they get the same answer),
and the key's next batch runs as usual.  A *cancelled* waiter (client
disconnected mid-batch) never poisons the batch — remaining waiters still
get their results, and a batch whose waiters have all been cancelled
still completes its compute (the result lands in the serve cache, so the
work is not wasted).

The batcher is event-loop-confined: all bookkeeping mutations happen on
the loop thread between awaits, so no locks are needed; only the compute
callable runs in the executor.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable

import numpy as np

from repro.obs import spans as obs
from repro.obs import trace as obs_trace

__all__ = ["BatchStats", "MicroBatcher"]


class BatchStats:
    """Plain counters the server surfaces via ``/v1/statz`` (obs-independent)."""

    __slots__ = (
        "requests",
        "coalesced",
        "batches",
        "underlying_calls",
        "errors",
        "cancelled",
        "merged_points",
    )

    def __init__(self) -> None:
        self.requests = 0
        self.coalesced = 0
        self.batches = 0
        self.underlying_calls = 0
        self.errors = 0
        self.cancelled = 0
        self.merged_points = 0

    def to_dict(self) -> dict[str, int | float]:
        out = {name: getattr(self, name) for name in self.__slots__}
        out["coalescing_ratio"] = (
            self.coalesced / self.requests if self.requests else 0.0
        )
        return out


class _Waiter:
    __slots__ = ("omega", "future", "trace", "enqueued")

    def __init__(
        self,
        omega: np.ndarray | None,
        future: asyncio.Future,
        trace: "obs_trace.TraceContext | None" = None,
    ):
        self.omega = omega
        self.future = future
        self.trace = trace
        # wall-clock enqueue time, only read when tracing (queue-wait span)
        self.enqueued = time.time() if trace is not None else 0.0


class _Batch:
    __slots__ = ("key", "compute", "waiters")

    def __init__(self, key: Any, compute: Callable[[np.ndarray | None], Any]):
        self.key = key
        self.compute = compute
        self.waiters: list[_Waiter] = []


class MicroBatcher:
    """Coalesces concurrent same-key submissions into one compute call.

    Parameters
    ----------
    executor:
        ``concurrent.futures`` executor the compute callables run on
        (``None`` = the loop's default thread pool).
    """

    def __init__(self, executor=None):
        self.executor = executor
        self.stats = BatchStats()
        # Per key: the batch that has not started computing, and the one
        # computing now.  A key's batches run one at a time, in order.
        self._pending: dict[Any, _Batch] = {}
        self._running: dict[Any, _Batch] = {}
        self._tasks: set[asyncio.Task] = set()

    def pending_keys(self) -> list[Any]:
        """Keys whose next batch has not started computing."""
        return list(self._pending)

    async def submit(
        self,
        key: Any,
        omega: np.ndarray | None,
        compute: Callable[[np.ndarray | None], Any],
        trace: "obs_trace.TraceContext | None" = None,
    ) -> Any:
        """Join (or open) the batch for ``key``; returns this caller's slice.

        ``compute`` receives the merged frequency grid (grid mode) or
        ``None`` (scalar mode) and runs once per batch in the executor.
        Only the *first* submitter's ``compute`` is used — same key must
        mean same computation, which the fingerprint guarantees.

        ``trace`` is the submitting request's trace context; the batch
        records fan-in span links from its single underlying compute back
        to every traced waiter (many requests -> one evaluation).
        """
        loop = asyncio.get_running_loop()
        self.stats.requests += 1
        batch = self._pending.get(key)
        if batch is None and omega is None:
            batch = self._running.get(key)  # share the result in flight
        if batch is None:
            batch = self._pending[key] = _Batch(key, compute)
            if key not in self._running:
                task = loop.create_task(self._run(key))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        else:
            self.stats.coalesced += 1
            if obs.enabled():
                obs.add("serve.batch.coalesced")
        future: asyncio.Future = loop.create_future()
        batch.waiters.append(_Waiter(omega, future, trace))
        try:
            return await future
        except asyncio.CancelledError:
            self.stats.cancelled += 1
            raise

    async def _run(self, key: Any) -> None:
        """Compute ``key``'s batches back to back until none is pending."""
        batch = self._pending.pop(key, None)
        while batch is not None:
            self._running[key] = batch
            try:
                await self._compute(batch)
            finally:
                del self._running[key]
            # Whatever arrived during that compute, merged into one batch.
            batch = self._pending.pop(key, None)

    async def _compute(self, batch: _Batch) -> None:
        self.stats.batches += 1
        self.stats.underlying_calls += 1
        if obs.enabled():
            obs.add("serve.batch.underlying")
            obs.add("serve.batch.size", float(len(batch.waiters)))
        tracing = obs_trace.sink_configured()
        compute_start = time.time() if tracing else 0.0
        loop = asyncio.get_running_loop()
        try:
            merged = self._merge([w.omega for w in batch.waiters])
            if merged is not None:
                self.stats.merged_points += int(merged.size)
            result = await loop.run_in_executor(
                self.executor, batch.compute, merged
            )
        except asyncio.CancelledError:  # pragma: no cover - loop teardown
            raise
        except Exception as exc:
            self.stats.errors += 1
            for waiter in batch.waiters:
                if not waiter.future.done():
                    waiter.future.set_exception(exc)
            return
        # Read after the compute: scalar-mode arrivals join while it runs.
        traced = [w for w in batch.waiters if w.trace is not None] if tracing else []
        if traced:
            self._record_batch_trace(batch, traced, compute_start)
        self._deliver(batch, merged, result)

    @staticmethod
    def _record_batch_trace(
        batch: _Batch, traced: list[_Waiter], compute_start: float
    ) -> None:
        """One batch span (child of the first traced waiter) with fan-in links.

        The links carry every waiter's ``(trace_id, span_id)`` so the
        collector can join N request traces to the single underlying
        evaluation; the queue-wait span covers first-enqueue -> compute.
        """
        ctx = traced[0].trace.child()
        links = [
            {"trace_id": w.trace.trace_id, "span_id": w.trace.span_id}
            for w in traced
        ]
        now = time.time()
        obs_trace.record_event(
            "serve.batch",
            ctx,
            compute_start,
            now,
            links=links,
            waiters=len(batch.waiters),
            key=str(batch.key),
        )
        wait_start = min(w.enqueued for w in traced)
        if compute_start > wait_start:
            obs_trace.record_event(
                "serve.batch.wait",
                ctx.child(),
                wait_start,
                compute_start,
                waiters=len(traced),
                key=str(batch.key),
            )

    @staticmethod
    def _merge(omegas: list[np.ndarray | None]) -> np.ndarray | None:
        """The union frequency grid (sorted, de-duplicated) or ``None``.

        A batch is uniformly grid-mode or scalar-mode — the key embeds the
        endpoint, and each endpoint picks one mode.
        """
        arrays = [np.asarray(w, dtype=float) for w in omegas if w is not None]
        if not arrays:
            return None
        if len(arrays) == 1:
            return arrays[0]
        return np.unique(np.concatenate(arrays))

    def _deliver(
        self, batch: _Batch, merged: np.ndarray | None, result: Any
    ) -> None:
        if isinstance(result, np.ndarray):
            result = np.asarray(result)
            result.flags.writeable = False
        for waiter in batch.waiters:
            if waiter.future.done():  # cancelled mid-batch
                continue
            if merged is None or waiter.omega is None:
                waiter.future.set_result(result)
                continue
            omega = np.asarray(waiter.omega, dtype=float)
            if omega.size == merged.size and np.array_equal(omega, merged):
                waiter.future.set_result(result)
                continue
            indices = np.searchsorted(merged, omega)
            try:
                sliced = np.take(result, indices, axis=-1)
            except Exception as exc:  # result not sliceable along frequency
                waiter.future.set_exception(exc)
                continue
            if isinstance(sliced, np.ndarray):
                sliced.flags.writeable = False
            waiter.future.set_result(sliced)
