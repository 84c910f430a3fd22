"""Distributed trace context threaded through serve, campaigns, and lease workers.

The model follows the W3C Trace Context recommendation in miniature: a
``traceparent`` header of the form ``00-<32 hex trace_id>-<16 hex span_id>-<2
hex flags>`` names one position in a trace tree.  ``repro.serve`` accepts and
emits the header, the campaign executor stamps the context into the store
manifest, and lease workers inherit it through the frozen lease plan, so
every point record, stream sample, and health event produced on any host can
be joined back to the originating request by ``trace_id``.

Span *events* (as opposed to the aggregate-only :mod:`repro.obs.registry`)
are appended to per-worker JSONL shards under ``<store>.trace/`` — the same
sibling-directory convention as ``<store>.shards/`` and
``<store>.heartbeats/``.  Each event is written with a single ``write()`` of
one full line so concurrent readers only ever observe a torn *tail*, which
:func:`read_trace_events` tolerates.

Everything here honours the PR-3 invariant: when no sink is configured and no
context is active, every recording entry point is a cheap early return — no
allocation, no I/O, no time syscalls.

The collector (:func:`build_chrome_trace`) merges trace shards, a serve-side
span log, heartbeats, and stream samples into one Chrome Trace Event Format
document with one process lane per host and one thread lane per worker, plus
a critical-path summary splitting wall time into queue wait, evaluation,
spill, and lease-reclaim buckets.
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
    "configure_sink",
    "sink_configured",
    "close_sink",
    "record_event",
    "read_trace_events",
    "load_store_events",
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
# Span-event sink: one JSONL shard per worker under <store>.trace/ (or an
# explicit file for the serve process).  Free when not configured.
# ---------------------------------------------------------------------------

_sink_path: Path | None = None
_sink_lock = threading.Lock()
_sink_meta: dict[str, Any] = {}

TRACE_EVENT_KIND = "trace_span"


def trace_dir(store_path: str | Path) -> Path:
    """Sibling directory holding per-worker trace-event shards."""
    store = Path(store_path)
    return store.parent / (store.name + ".trace")


def configure_sink(target: str | Path, worker: str | None = None) -> Path:
    """Point span-event recording at ``target``.

    ``target`` may be a directory (a per-worker shard ``<worker>.jsonl`` is
    created inside it) or an explicit ``.jsonl``/``.json`` file path (the
    serve process logs to a single file).  Returns the resolved file path.
    """
    global _sink_path
    target = Path(target)
    if target.suffix in (".jsonl", ".json"):
        path = target
        path.parent.mkdir(parents=True, exist_ok=True)
    else:
        target.mkdir(parents=True, exist_ok=True)
        if worker is None:
            from . import heartbeat as _hb

            worker = _hb.worker_id()
        path = target / f"{worker}.jsonl"
    with _sink_lock:
        _sink_path = path
        _sink_meta.clear()
        _sink_meta.update(_worker_identity(worker))
    return path


def _worker_identity(worker: str | None) -> dict[str, Any]:
    from . import heartbeat as _hb

    return {
        "host": _hb.host_name(),
        "worker": worker or _hb.worker_id(),
        "pid": os.getpid(),
    }


def sink_configured() -> bool:
    return _sink_path is not None


def close_sink() -> None:
    global _sink_path
    with _sink_lock:
        _sink_path = None
        _sink_meta.clear()


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
    supplied, which keeps untraced hot paths free.  Write failures are
    swallowed — tracing must never take down the work it observes.
    """
    path = _sink_path
    if path is None or ctx is None:
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
    line = json.dumps(event, sort_keys=True, default=str) + "\n"
    try:
        with _sink_lock:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(line)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Readers (torn-tail tolerant, like obs.stream / the result store).
# ---------------------------------------------------------------------------


def read_trace_events(path: str | Path) -> list[dict[str, Any]]:
    """Read one trace-event shard; unparsable lines are skipped.

    A concurrent writer appends whole lines with single writes, so the only
    expected corruption is a torn final line, but every line is defensively
    parsed so one bad shard cannot block a cross-host merge.
    """
    path = Path(path)
    events: list[dict[str, Any]] = []
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return events
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(event, dict) and event.get("kind") == TRACE_EVENT_KIND:
            events.append(event)
    return events


def load_store_events(store_path: str | Path) -> list[dict[str, Any]]:
    """Merge every per-worker trace shard for a store, ordered by start."""
    directory = trace_dir(store_path)
    events: list[dict[str, Any]] = []
    if directory.is_dir():
        for shard in sorted(directory.glob("*.jsonl")):
            events.extend(read_trace_events(shard))
    events.sort(key=lambda ev: (ev.get("start", 0.0), ev.get("name", "")))
    return events


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


def _collect_heartbeat_events(store_path: Path) -> list[dict[str, Any]]:
    """Heartbeat files become instant events on the owning worker's lane."""
    from . import heartbeat as _hb

    beats = _hb.read_heartbeats(_hb.heartbeat_dir(store_path))
    events = []
    for beat in beats:
        t = beat.get("time")
        if not isinstance(t, (int, float)):
            continue
        events.append(
            {
                "kind": TRACE_EVENT_KIND,
                "event": "instant",
                "name": f"heartbeat/{beat.get('phase', '?')}",
                "host": beat.get("host", "?"),
                "worker": beat.get("worker", "?"),
                "pid": beat.get("pid", 0),
                "start": float(t),
                "end": float(t),
                "attrs": {
                    "phase": beat.get("phase"),
                    "done": beat.get("done"),
                    "failed": beat.get("failed"),
                },
            }
        )
    return events


def _collect_stream_counters(store_path: Path) -> list[dict[str, Any]]:
    """Stream samples become Chrome counter events (progress over time)."""
    from . import stream as _stream

    path = _stream.stream_path(store_path)
    if not Path(path).exists():
        return []
    counters = []
    for sample in _stream.read_stream(path):
        t = sample.get("time")
        if not isinstance(t, (int, float)):
            continue
        counters.append(
            {
                "kind": TRACE_EVENT_KIND,
                "event": "counter",
                "name": "campaign.progress",
                "host": sample.get("host", "?"),
                "worker": sample.get("worker", sample.get("host", "?")),
                "pid": sample.get("pid", 0),
                "start": float(t),
                "end": float(t),
                "attrs": {
                    "done": sample.get("done", 0),
                    "failed": sample.get("failed", 0),
                },
            }
        )
    return counters


def build_chrome_trace(
    store_path: str | Path | None = None,
    *,
    serve_logs: Sequence[str | Path] = (),
    events: Sequence[Mapping[str, Any]] | None = None,
    trace_id: str | None = None,
) -> dict[str, Any]:
    """Merge trace shards + serve logs (+ heartbeats/stream) into one trace.

    Lanes: each distinct host becomes a Chrome *process* (pid lane) and each
    worker within it a *thread* (tid lane), named via ``process_name`` /
    ``thread_name`` metadata events.  Returns a Chrome Trace Event Format
    document with two extra top-level keys: ``criticalPath`` (see
    :func:`critical_path_summary`) and ``traceIds``.
    """
    merged: list[dict[str, Any]] = []
    if events is not None:
        merged.extend(dict(ev) for ev in events)
    if store_path is not None:
        store = Path(store_path)
        merged.extend(load_store_events(store))
        merged.extend(_collect_heartbeat_events(store))
        merged.extend(_collect_stream_counters(store))
    for log in serve_logs:
        merged.extend(read_trace_events(log))
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
