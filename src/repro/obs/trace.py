"""Distributed trace context, and the one telemetry log each worker writes.

The model follows the W3C Trace Context recommendation in miniature: a
``traceparent`` header of the form ``00-<32 hex trace_id>-<16 hex span_id>-<2
hex flags>`` names one position in a trace tree.  ``repro.serve`` accepts and
emits the header, the campaign executor stamps the context into the store
manifest, and lease workers inherit it through the frozen lease plan, so
every point record, sample, and health event produced on any host can be
joined back to the originating request by ``trace_id``.

Every telemetry record goes through one sink, :func:`write_record`: one
JSONL log per worker process under ``<store>.trace/`` (the same
sibling-directory convention as ``<store>.shards/``), or one file for the
serve process.  Each record is written with a single ``write()`` of one
full line, so concurrent readers only ever observe a torn *tail*.  A log
holds three kinds of record:

* ``trace_span`` — span events (:func:`record_event`), as opposed to the
  aggregate-only :mod:`repro.obs.registry`;
* ``sample`` — the worker's liveness and progress, one per heartbeat
  interval (:class:`repro.obs.heartbeat.Sampler`);
* ``profile`` — the sampling profiler's deltas (:mod:`repro.obs.profile`).

:class:`LogReader` reads them all back with one tail-following pass, and
``campaign watch``, job polling, the SLO evaluation and the collectors are
views over it.

Everything here honours the PR-3 invariant: when no sink is configured and no
context is active, every recording entry point is a cheap early return — no
allocation, no I/O, no time syscalls.

The collector (:func:`build_chrome_trace`) merges a store's logs and a
serve-side log into one Chrome Trace Event Format document with one process
lane per host and one thread lane per worker, plus a critical-path summary
splitting wall time into queue wait, evaluation, spill, and lease-reclaim
buckets.
"""
from __future__ import annotations

import contextlib
import json
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro._tail import LineTail

__all__ = [
    "TraceContext",
    "parse_traceparent",
    "format_traceparent",
    "new_trace_id",
    "new_span_id",
    "new_context",
    "current",
    "activate",
    "set_campaign",
    "set_profile_traces",
    "campaign_context",
    "context_or_campaign",
    "trace_dir",
    "log_path",
    "configure_sink",
    "sink_configured",
    "close_sink",
    "write_record",
    "record_event",
    "LogReader",
    "run_series",
    "build_chrome_trace",
    "critical_path_summary",
    "format_critical_path",
    "CRITICAL_PATH_BUCKETS",
]

TRACEPARENT_VERSION = "00"

_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


@dataclass(frozen=True)
class TraceContext:
    """One position in a trace tree (immutable)."""

    trace_id: str
    span_id: str
    parent_id: str | None = None
    flags: str = "01"

    def traceparent(self) -> str:
        return f"{TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}-{self.flags}"

    def child(self) -> "TraceContext":
        """A fresh span under this one, same trace."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=new_span_id(),
            parent_id=self.span_id,
            flags=self.flags,
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_id:
            out["parent_id"] = self.parent_id
        if self.flags != "01":
            out["flags"] = self.flags
        return out

    @staticmethod
    def from_dict(data: Any) -> "TraceContext | None":
        """Rebuild from a mapping; returns None on anything malformed."""
        if not isinstance(data, Mapping):
            return None
        trace_id = data.get("trace_id")
        span_id = data.get("span_id")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        if len(trace_id) != 32 or len(span_id) != 16:
            return None
        parent = data.get("parent_id")
        if parent is not None and not isinstance(parent, str):
            parent = None
        flags = data.get("flags", "01")
        if not isinstance(flags, str) or len(flags) != 2:
            flags = "01"
        return TraceContext(trace_id=trace_id, span_id=span_id, parent_id=parent, flags=flags)


def new_trace_id() -> str:
    return os.urandom(16).hex()


def new_span_id() -> str:
    return os.urandom(8).hex()


def new_context() -> TraceContext:
    """A fresh root context (no parent)."""
    return TraceContext(trace_id=new_trace_id(), span_id=new_span_id())


def parse_traceparent(header: str | None) -> TraceContext | None:
    """Parse a ``traceparent`` header; None on anything non-conforming.

    The all-zero trace and span ids are invalid per the W3C spec and are
    rejected so a buggy client cannot collapse unrelated requests into one
    trace.
    """
    if not header:
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None:
        return None
    version, trace_id, span_id, flags = match.groups()
    if version == "ff":
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return TraceContext(trace_id=trace_id, span_id=span_id, flags=flags)


def format_traceparent(ctx: TraceContext) -> str:
    return ctx.traceparent()


# ---------------------------------------------------------------------------
# Context propagation: a thread-local "current" stack plus one process-wide
# campaign context that lease workers inherit from the frozen plan.
# ---------------------------------------------------------------------------

_local = threading.local()
_campaign_ctx: TraceContext | None = None

# Installed by repro.obs.profile while a sampler is running: a plain
# {thread_id: trace_id} dict readable cross-thread (the thread-local
# stack is not).  ``None`` keeps activate() at one extra global read.
_profile_traces: dict[int, str] | None = None


def set_profile_traces(registry: dict[int, str] | None) -> None:
    """Install (or remove) the profiler's cross-thread trace-id registry."""
    global _profile_traces
    _profile_traces = registry


def current() -> TraceContext | None:
    stack = getattr(_local, "stack", None)
    if stack:
        return stack[-1]
    return None


@contextlib.contextmanager
def activate(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Make ``ctx`` the thread's current context for the ``with`` body."""
    if ctx is None:
        yield None
        return
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    stack.append(ctx)
    profiled = _profile_traces
    if profiled is not None:
        profiled[threading.get_ident()] = ctx.trace_id
    try:
        yield ctx
    finally:
        if stack and stack[-1] is ctx:
            stack.pop()
        profiled = _profile_traces
        if profiled is not None:
            tid = threading.get_ident()
            if stack:
                profiled[tid] = stack[-1].trace_id
            else:
                profiled.pop(tid, None)


def set_campaign(ctx: TraceContext | None) -> None:
    """Install the campaign-root context for this process (workers)."""
    global _campaign_ctx
    _campaign_ctx = ctx


def campaign_context() -> TraceContext | None:
    return _campaign_ctx


def context_or_campaign() -> TraceContext | None:
    """The thread's current context, falling back to the campaign root."""
    ctx = current()
    if ctx is not None:
        return ctx
    return _campaign_ctx


# ---------------------------------------------------------------------------
# The telemetry sink: one JSONL log per worker process under <store>.trace/
# (or an explicit file for the serve process).  Free when not configured.
# ---------------------------------------------------------------------------

_sink_path: Path | None = None
_sink_lock = threading.Lock()
_sink_meta: dict[str, Any] = {}

TRACE_EVENT_KIND = "trace_span"
SAMPLE_KIND = "sample"
PROFILE_KIND = "profile"


def trace_dir(store_path: str | Path) -> Path:
    """Sibling directory holding the per-worker telemetry logs."""
    store = Path(store_path)
    return store.parent / (store.name + ".trace")


def log_path(store_path: str | Path, worker: str | None = None) -> Path:
    """This worker's telemetry log for a store: ``<store>.trace/<worker>.jsonl``."""
    if worker is None:
        from . import heartbeat as _hb

        worker = _hb.worker_id()
    return trace_dir(store_path) / f"{worker}.jsonl"


def configure_sink(target: str | Path, worker: str | None = None) -> Path:
    """Point span-event recording at ``target``.

    ``target`` may be a directory (a per-worker log ``<worker>.jsonl`` is
    created inside it) or an explicit ``.jsonl``/``.json`` file path (the
    serve process logs to a single file).  Returns the resolved file path.
    """
    from . import heartbeat as _hb

    global _sink_path
    target = Path(target)
    worker = worker or _hb.worker_id()
    path = target if target.suffix in (".jsonl", ".json") else target / f"{worker}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with _sink_lock:
        _sink_path = path
        _sink_meta.clear()
        _sink_meta.update(host=_hb.host_name(), worker=worker, pid=os.getpid())
    return path


def sink_configured() -> bool:
    return _sink_path is not None


def close_sink() -> None:
    global _sink_path
    with _sink_lock:
        _sink_path = None
        _sink_meta.clear()


def _forget_sink() -> None:
    """In a forked child: no sink, and a lock no parent thread can hold."""
    global _sink_path, _sink_lock
    _sink_path = None
    _sink_lock = threading.Lock()
    _sink_meta.clear()


if hasattr(os, "register_at_fork"):
    # A forked worker writes its own log, never its parent's.
    os.register_at_fork(after_in_child=_forget_sink)


def write_record(record: Mapping[str, Any], path: str | Path | None = None) -> bool:
    """Append ``record`` as one whole line to ``path`` (default: the sink).

    The one writer of every telemetry log: a single ``write()`` of a full
    line, so a concurrent reader only ever sees a torn *tail*.  Returns
    ``False`` when there is nowhere to write or the write failed — telemetry
    must never take down the work it observes.
    """
    target = _sink_path if path is None else path
    if target is None:
        return False
    line = json.dumps(record, sort_keys=True, default=str) + "\n"
    try:
        with _sink_lock:
            try:
                handle = open(target, "a", encoding="utf-8")
            except FileNotFoundError:
                Path(target).parent.mkdir(parents=True, exist_ok=True)
                handle = open(target, "a", encoding="utf-8")
            with handle:
                handle.write(line)
    except OSError:
        return False
    return True


def record_event(
    name: str,
    ctx: TraceContext | None,
    start: float,
    end: float,
    *,
    kind: str = "span",
    links: Sequence[Mapping[str, Any]] | None = None,
    **attrs: Any,
) -> None:
    """Append one span event to the configured sink.

    No-op (single attribute read) when no sink is configured or no context is
    supplied, which keeps untraced hot paths free.
    """
    if _sink_path is None or ctx is None:
        return
    event: dict[str, Any] = {
        "kind": TRACE_EVENT_KIND,
        "event": kind,
        "name": name,
        "trace_id": ctx.trace_id,
        "span_id": ctx.span_id,
        "start": start,
        "end": end,
    }
    if ctx.parent_id:
        event["parent_id"] = ctx.parent_id
    event.update(_sink_meta)
    if links:
        event["links"] = [dict(link) for link in links]
    if attrs:
        event["attrs"] = attrs
    write_record(event)


# ---------------------------------------------------------------------------
# The reader: one tail-following pass over every log, shared by the views
# (campaign watch, job polling, the SLO evaluation, trace and profile merge).
# ---------------------------------------------------------------------------

#: Numeric sample fields that describe one record, not work done.
_SAMPLE_IDENTITY = frozenset({"time", "seq", "version", "pid", "point_elapsed"})
#: Numeric sample fields every worker reports whole: the run keeps the largest.
_SAMPLE_LARGEST = frozenset({"total", "skipped", "wall_seconds"})


class _Log(LineTail):
    """One log file's records so far, by kind."""

    __slots__ = ("spans", "samples", "profiles")

    def __init__(self) -> None:
        super().__init__()
        self.clear()

    def clear(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.samples: list[dict[str, Any]] = []
        self.profiles: list[dict[str, Any]] = []


class LogReader:
    """Tail-following reader of telemetry logs.

    Reads every log under ``trace_dir(store_path)`` plus the named ``logs``
    (a server's ``--trace-log``).  :meth:`refresh` decodes only the
    complete lines appended since the last refresh, so keep one instance
    across frames; a line still being written waits for its newline, an
    undecodable line is skipped, and a file that was replaced or shrank is
    read again from byte 0.  ``decoded`` counts the lines decoded so far.
    """

    def __init__(
        self, store_path: str | Path | None = None, logs: Sequence[str | Path] = ()
    ):
        self.directory = trace_dir(store_path) if store_path is not None else None
        self.logs = [Path(log) for log in logs]
        self.decoded = 0
        self._files: dict[Path, _Log] = {}

    def refresh(self) -> "LogReader":
        """Decode what every log gained; a log that has gone is dropped."""
        paths = list(self.logs)
        if self.directory is not None and self.directory.is_dir():
            paths += sorted(self.directory.glob("*.jsonl"))
        files: dict[Path, _Log] = {}
        for path in paths:
            log = self._files.get(path) or _Log()
            try:
                fresh, text = log.read(path)
            except OSError:
                continue
            files[path] = log
            if fresh:
                log.clear()
            for raw in text.splitlines():
                if not raw.strip():
                    continue
                self.decoded += 1
                try:
                    record = json.loads(raw)
                except ValueError:
                    continue
                kind = record.get("kind") if isinstance(record, dict) else None
                if kind == TRACE_EVENT_KIND:
                    log.spans.append(record)
                elif kind == SAMPLE_KIND:
                    log.samples.append(record)
                elif kind == PROFILE_KIND:
                    log.profiles.append(record)
        self._files = files
        return self

    def spans(self) -> list[dict[str, Any]]:
        """Every span event, ordered by start."""
        events = [ev for log in self._files.values() for ev in log.spans]
        events.sort(key=lambda ev: (ev.get("start", 0.0), ev.get("name", "")))
        return events

    def samples(self) -> list[dict[str, Any]]:
        """Every sample record, each log's in the order written."""
        return [s for log in self._files.values() for s in log.samples]

    def profiles(self) -> list[dict[str, Any]]:
        """Every profile delta (merge them with ``profile.merge_profiles``)."""
        return [p for log in self._files.values() for p in log.profiles]

    def series(self) -> list[dict[str, Any]]:
        """Run-wide counters over time: see :func:`run_series`."""
        return run_series(self.samples())


def run_series(samples: Iterable[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Run-wide counters at each sample's time.

    Each sample holds its own worker's cumulative counters, so the run's
    value at time t is the sum over workers of each worker's latest sample
    at or before t (a worker is one ``(worker, run)`` pair: a process that
    runs twice counts from zero again).  Numeric fields and the numbers
    inside mapping fields (``health``, ``counters``) add up; ``total``,
    ``skipped`` and ``wall_seconds`` take the largest worker's value;
    ``workers`` counts the series so far.
    """
    timed = sorted(
        (s for s in samples if isinstance(s.get("time"), (int, float))),
        key=lambda s: float(s["time"]),
    )
    latest: dict[tuple[Any, Any], Mapping[str, Any]] = {}
    out: list[dict[str, Any]] = []
    for sample in timed:
        latest[(sample.get("worker"), sample.get("run"))] = sample
        point: dict[str, Any] = {"time": float(sample["time"]), "workers": len(latest)}
        for each in latest.values():
            for key, value in each.items():
                if key in _SAMPLE_IDENTITY or isinstance(value, bool):
                    continue
                if isinstance(value, (int, float)):
                    if key in _SAMPLE_LARGEST:
                        point[key] = max(point.get(key, value), value)
                    else:
                        point[key] = point.get(key, 0) + value
                elif isinstance(value, Mapping):
                    inner = point.setdefault(key, {})
                    for name, n in value.items():
                        if isinstance(n, (int, float)) and not isinstance(n, bool):
                            inner[name] = inner.get(name, 0) + n
        out.append(point)
    return out


# ---------------------------------------------------------------------------
# Collector: merged Chrome trace with per-host/per-worker lanes.
# ---------------------------------------------------------------------------

#: Maps span-event names onto critical-path buckets.  ``queue`` is time spent
#: waiting (batch window, idle lease workers), ``evaluate`` is HTM work,
#: ``spill`` is the job handoff to a campaign store, ``lease_reclaim`` is
#: distributed-coordination overhead.
CRITICAL_PATH_BUCKETS: dict[str, tuple[str, ...]] = {
    "queue": ("serve.batch.wait", "lease.idle"),
    "evaluate": ("campaign.point", "serve.request", "serve.batch"),
    "spill": ("serve.job.spill",),
    "lease_reclaim": ("lease.reclaim", "lease.claim"),
}


def _bucket_for(name: str) -> str | None:
    base = name.split("/", 1)[0]
    for bucket, prefixes in CRITICAL_PATH_BUCKETS.items():
        if base in prefixes:
            return bucket
    return None


def critical_path_summary(events: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Aggregate span durations into queue/evaluate/spill/lease_reclaim.

    Durations within one bucket are summed across hosts (total work), and the
    per-bucket share is reported against the summed total so the dominant
    cost of a distributed run is visible at a glance.
    """
    totals: dict[str, float] = {bucket: 0.0 for bucket in CRITICAL_PATH_BUCKETS}
    counts: dict[str, int] = {bucket: 0 for bucket in CRITICAL_PATH_BUCKETS}
    span_min: float | None = None
    span_max: float | None = None
    for event in events:
        name = str(event.get("name", ""))
        start = event.get("start")
        end = event.get("end")
        if not isinstance(start, (int, float)) or not isinstance(end, (int, float)):
            continue
        if span_min is None or start < span_min:
            span_min = float(start)
        if span_max is None or end > span_max:
            span_max = float(end)
        bucket = _bucket_for(name)
        if bucket is None:
            continue
        totals[bucket] += max(0.0, float(end) - float(start))
        counts[bucket] += 1
    total = sum(totals.values())
    shares = {
        bucket: (totals[bucket] / total if total > 0 else 0.0)
        for bucket in totals
    }
    return {
        "buckets": {
            bucket: {
                "seconds": round(totals[bucket], 6),
                "events": counts[bucket],
                "share": round(shares[bucket], 4),
            }
            for bucket in totals
        },
        "busy_seconds": round(total, 6),
        "wall_seconds": round(
            (span_max - span_min) if span_min is not None and span_max is not None else 0.0,
            6,
        ),
    }


def format_critical_path(summary: Mapping[str, Any]) -> str:
    lines = ["critical path:"]
    buckets = summary.get("buckets", {})
    order = list(CRITICAL_PATH_BUCKETS) + [
        b for b in buckets if b not in CRITICAL_PATH_BUCKETS
    ]
    for bucket in order:
        entry = buckets.get(bucket)
        if not entry:
            continue
        lines.append(
            f"  {bucket:<14} {entry['seconds']:>10.4f}s"
            f"  {entry['share'] * 100:5.1f}%  ({entry['events']} events)"
        )
    lines.append(
        f"  {'busy total':<14} {summary.get('busy_seconds', 0.0):>10.4f}s"
        f"   wall {summary.get('wall_seconds', 0.0):.4f}s"
    )
    return "\n".join(lines)


def _sample_events(sample: Mapping[str, Any]) -> list[dict[str, Any]]:
    """A sample becomes a heartbeat instant and a ``campaign.progress``
    counter on its worker's lane."""
    lane = {
        "kind": TRACE_EVENT_KIND,
        "host": sample.get("host", "?"),
        "worker": sample.get("worker", "?"),
        "pid": sample.get("pid", 0),
        "start": float(sample["time"]),
        "end": float(sample["time"]),
    }
    progress = {"done": sample.get("done", 0), "failed": sample.get("failed", 0)}
    return [
        dict(
            lane,
            event="instant",
            name=f"heartbeat/{sample.get('phase', '?')}",
            attrs={"phase": sample.get("phase"), **progress},
        ),
        dict(lane, event="counter", name="campaign.progress", attrs=progress),
    ]


def build_chrome_trace(
    store_path: str | Path | None = None,
    *,
    serve_logs: Sequence[str | Path] = (),
    events: Sequence[Mapping[str, Any]] | None = None,
    trace_id: str | None = None,
) -> dict[str, Any]:
    """Merge a store's logs and serve logs into one Chrome trace.

    Span events become slices or instants; each sample becomes a heartbeat
    instant and a ``campaign.progress`` counter.

    Lanes: each distinct host becomes a Chrome *process* (pid lane) and each
    worker within it a *thread* (tid lane), named via ``process_name`` /
    ``thread_name`` metadata events.  Returns a Chrome Trace Event Format
    document with two extra top-level keys: ``criticalPath`` (see
    :func:`critical_path_summary`) and ``traceIds``.
    """
    merged = [dict(ev) for ev in events or ()]
    if store_path is not None or serve_logs:
        log = LogReader(store_path, logs=serve_logs).refresh()
        merged += log.spans()
        for sample in log.samples():
            if isinstance(sample.get("time"), (int, float)):
                merged += _sample_events(sample)
    if trace_id is not None:
        merged = [
            ev
            for ev in merged
            if ev.get("trace_id") in (None, trace_id)
        ]

    spans = [ev for ev in merged if isinstance(ev.get("start"), (int, float))]
    t0 = min((float(ev["start"]) for ev in spans), default=0.0)

    # Stable lane assignment: hosts sorted, serve hosts first is not needed —
    # alphabetical is reproducible across runs of the collector.
    hosts: dict[str, int] = {}
    lanes: dict[tuple[str, str], int] = {}
    trace_events: list[dict[str, Any]] = []
    trace_ids: set[str] = set()

    def _lane(ev: Mapping[str, Any]) -> tuple[int, int]:
        host = str(ev.get("host", "?"))
        worker = str(ev.get("worker", host))
        if host not in hosts:
            hosts[host] = len(hosts) + 1
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": hosts[host],
                    "tid": 0,
                    "args": {"name": f"host:{host}"},
                }
            )
        key = (host, worker)
        if key not in lanes:
            lanes[key] = len([k for k in lanes if k[0] == host]) + 1
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": hosts[host],
                    "tid": lanes[key],
                    "args": {"name": worker},
                }
            )
        return hosts[host], lanes[key]

    for ev in sorted(spans, key=lambda e: (float(e["start"]), str(e.get("name", "")))):
        pid, tid = _lane(ev)
        name = str(ev.get("name", "?"))
        start = float(ev["start"])
        end_raw = ev.get("end")
        end = float(end_raw) if isinstance(end_raw, (int, float)) else start
        args: dict[str, Any] = {}
        if ev.get("trace_id"):
            trace_ids.add(str(ev["trace_id"]))
            args["trace_id"] = ev["trace_id"]
        if ev.get("span_id"):
            args["span_id"] = ev["span_id"]
        if ev.get("parent_id"):
            args["parent_id"] = ev["parent_id"]
        attrs = ev.get("attrs")
        if isinstance(attrs, Mapping):
            args.update({str(k): v for k, v in attrs.items()})
        if ev.get("links"):
            args["links"] = ev["links"]
        etype = ev.get("event", "span")
        if etype == "counter":
            counters = {
                k: v
                for k, v in args.items()
                if isinstance(v, (int, float)) and k in ("done", "failed")
            }
            trace_events.append(
                {
                    "name": name,
                    "ph": "C",
                    "pid": pid,
                    "tid": tid,
                    "ts": round((start - t0) * 1e6, 3),
                    "args": counters or {"value": 0},
                }
            )
        elif etype == "instant" or end <= start:
            trace_events.append(
                {
                    "name": name,
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": tid,
                    "ts": round((start - t0) * 1e6, 3),
                    "args": args,
                }
            )
        else:
            trace_events.append(
                {
                    "name": name,
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": round((start - t0) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "args": args,
                }
            )

    span_events = [ev for ev in merged if ev.get("event", "span") == "span"]
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs.trace", "hosts": sorted(hosts)},
        "traceIds": sorted(trace_ids),
        "criticalPath": critical_path_summary(span_events),
    }
