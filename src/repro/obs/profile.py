"""Statistical sampling profiler attributing CPU samples to spans and traces.

The aggregate registry (:mod:`repro.obs.registry`) answers *how long* a
span took; the trace sink (:mod:`repro.obs.trace`) answers *when and
where* it ran.  This module answers the remaining question — *where the
CPU time goes inside a span* — with a zero-dependency statistical
sampler:

* **Signal mode** (the default on Unix main threads): ``SIGPROF`` +
  ``ITIMER_PROF`` fires on process CPU time, so samples cost nothing
  while the process is idle.  The handler walks the interrupted frame
  for the main thread and ``sys._current_frames()`` for every other
  live thread.
* **Thread mode** (fallback, and the only option off the main thread —
  e.g. an on-demand capture inside a serve worker thread): a daemon
  thread samples all threads at wall-clock ``1/hz``, excluding itself.

Every sample is attributed to the *active span path* and *trace context*
of the sampled thread.  Thread-local span/trace stacks cannot be read
cross-thread, so :func:`Profiler.start` installs plain ``{thread_id:
value}`` registries into :mod:`repro.obs.spans` / :mod:`repro.obs.trace`
(one extra dict store per span transition, gated on an ``is not None``
read — the disabled path is untouched).  Threads with no thread-local
context fall back to the process-wide campaign context, which is how
lease-worker samples join the originating request's ``trace_id``.

Free when off — design rule number one, shared with spans and trace:
with no profiler running, :func:`active` is a single module-global
attribute read and nothing else in this module executes.

Stacks fold into bounded ``(span path, frame stack)`` buckets (collapsed
-stack style, root first).  :func:`flush` appends what was sampled since
the last flush, as one ``profile`` record, to a telemetry log through the
trace sink: a campaign worker's ``<store>.trace/<worker>.jsonl`` or a
server's ``--trace-log``.  The collector merges the deltas
(:func:`merge_profiles`) and emits collapsed text (``frameA;frameB
count``) or a self-contained d3-flamegraph HTML page.
"""

from __future__ import annotations

import json
import math
import os
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro._errors import ValidationError
from repro.obs import spans as _spans
from repro.obs import trace as _trace

__all__ = [
    "DEFAULT_HZ",
    "MAX_BUCKETS",
    "MAX_STACK_DEPTH",
    "MAX_TRACE_IDS",
    "Profiler",
    "active",
    "capture",
    "close_sink",
    "configure_sink",
    "flush",
    "merge_profiles",
    "profile_delta",
    "profile_dir",
    "profile_requested",
    "requested_hz",
    "sink_configured",
    "start",
    "stop",
    "to_collapsed",
    "to_flamegraph_html",
    "top_frames",
]

#: Default sampling rate.  Prime, so the sampler cannot phase-lock with
#: periodic work (the same reason rates like 97/997 are conventional).
DEFAULT_HZ = 97

#: Frames kept per stack (deepest frames are dropped first).
MAX_STACK_DEPTH = 64

#: Distinct ``(span, stack)`` buckets kept; overflow is *counted* in
#: ``dropped`` rather than allocated, like the registry's event cap.
MAX_BUCKETS = 5000

#: Distinct trace ids remembered per bucket.
MAX_TRACE_IDS = 8

_OWN_FILE = __file__


def profile_requested() -> bool:
    """Whether ``REPRO_OBS=profile`` asks for always-on sampling."""
    return os.environ.get("REPRO_OBS", "").strip().lower() == "profile"


def requested_hz(default: int = DEFAULT_HZ) -> int:
    """Sampling rate from ``REPRO_OBS_PROFILE_HZ``, clamped to [1, 999]."""
    raw = os.environ.get("REPRO_OBS_PROFILE_HZ", "").strip()
    try:
        hz = int(raw)
    except ValueError:
        return default
    return hz if 1 <= hz <= 999 else default


def _frame_stack(frame: Any) -> str:
    """Fold one thread's frame chain into a root-first ``;``-joined stack.

    Frame labels are ``<file stem>.<function>`` — compact enough for
    collapsed-stack tooling, unambiguous enough to find the code.  The
    profiler's own frames are skipped so thread-mode sampling never
    reports itself.
    """
    labels: list[str] = []
    depth = 0
    while frame is not None and depth < MAX_STACK_DEPTH:
        code = frame.f_code
        if code.co_filename != _OWN_FILE:
            stem = os.path.splitext(os.path.basename(code.co_filename))[0]
            labels.append(f"{stem}.{code.co_name}")
        frame = frame.f_back
        depth += 1
    labels.reverse()
    return ";".join(labels)


class Profiler:
    """One live sampling session (use via the module-level :func:`start`).

    ``mode`` is ``"signal"``, ``"thread"``, or ``"auto"`` (signal when
    possible: main thread and ``SIGPROF`` available).  Signal mode
    samples on *CPU* time; thread mode on wall time (its ``clock`` field
    says which, so merged profiles stay interpretable).
    """

    def __init__(self, hz: int = DEFAULT_HZ, mode: str = "auto"):
        hz = int(hz)
        if not 1 <= hz <= 999:
            raise ValidationError("profiler hz must be in [1, 999]")
        if mode not in ("auto", "signal", "thread"):
            raise ValidationError("profiler mode must be 'auto', 'signal' or 'thread'")
        signal_ok = (
            hasattr(signal, "SIGPROF")
            and hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread()
        )
        if mode == "signal" and not signal_ok:
            raise ValidationError(
                "signal-mode profiling needs SIGPROF and the main thread"
            )
        self.hz = hz
        self.mode = "signal" if (mode != "thread" and signal_ok) else "thread"
        self.clock = "cpu" if self.mode == "signal" else "wall"
        self.samples = 0
        self.dropped = 0
        # (span path, stack) -> [count, {trace_id: count}].  Mutated only
        # by the sampler (the signal handler or the sampler thread), so no
        # lock is needed — a lock here could deadlock the signal handler
        # against the very thread it interrupted.  Readers copy-with-retry.
        self._buckets: dict[tuple[str, str], list] = {}
        self._span_paths: dict[int, str] = {}
        self._trace_ids: dict[int, str] = {}
        self._sampler_tid: int | None = None
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._prev_handler: Any = None
        self._running = False

    # -- sampling ----------------------------------------------------------------

    def _record(self, tid: int, stack: str) -> None:
        span = self._span_paths.get(tid, "")
        key = (span, stack)
        bucket = self._buckets.get(key)
        if bucket is None:
            if len(self._buckets) >= MAX_BUCKETS:
                self.dropped += 1
                return
            bucket = self._buckets[key] = [0, {}]
        bucket[0] += 1
        trace_id = self._trace_ids.get(tid)
        if trace_id is None:
            ctx = _trace.campaign_context()
            trace_id = ctx.trace_id if ctx is not None else None
        if trace_id is not None:
            traces = bucket[1]
            if trace_id in traces or len(traces) < MAX_TRACE_IDS:
                traces[trace_id] = traces.get(trace_id, 0) + 1

    def _collect(self, current_frame: Any, current_tid: int) -> None:
        self.samples += 1
        for tid, frame in sys._current_frames().items():
            if tid == self._sampler_tid:
                continue
            if tid == current_tid and current_frame is not None:
                # The handler's own frames would pollute the interrupted
                # thread's stack; the signal machinery hands us the frame
                # that was live when the timer fired.
                frame = current_frame
            stack = _frame_stack(frame)
            if stack:
                self._record(tid, stack)

    def _on_signal(self, signum: int, frame: Any) -> None:
        try:
            self._collect(frame, threading.get_ident())
        except Exception:
            self.dropped += 1

    def _run_thread(self) -> None:
        self._sampler_tid = threading.get_ident()
        interval = 1.0 / self.hz
        while not self._stop_event.wait(interval):
            try:
                self._collect(None, -1)
            except Exception:
                self.dropped += 1

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "Profiler":
        if self._running:
            return self
        self._running = True
        _spans.set_profile_paths(self._span_paths)
        _trace.set_profile_traces(self._trace_ids)
        if self.mode == "signal":
            interval = 1.0 / self.hz
            self._prev_handler = signal.signal(signal.SIGPROF, self._on_signal)
            signal.setitimer(signal.ITIMER_PROF, interval, interval)
        else:
            self._thread = threading.Thread(
                target=self._run_thread, name="repro-profiler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> dict[str, Any]:
        """Stop sampling and return the final profile dict."""
        if self._running:
            self._running = False
            if self.mode == "signal":
                try:
                    signal.setitimer(signal.ITIMER_PROF, 0.0)
                    if self._prev_handler is not None:
                        signal.signal(signal.SIGPROF, self._prev_handler)
                except (ValueError, OSError):
                    pass  # not the main thread any more; timer dies with us
            elif self._thread is not None:
                self._stop_event.set()
                self._thread.join(timeout=2.0)
            # Only uninstall registries we still own — a newer profiler may
            # have installed its own in the meantime.
            if _spans._profile_paths is self._span_paths:
                _spans.set_profile_paths(None)
            if _trace._profile_traces is self._trace_ids:
                _trace.set_profile_traces(None)
        return self.snapshot()

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Picklable, JSON-safe profile dict (safe to call mid-sampling)."""
        from repro.obs import heartbeat as _hb

        # list() and dict() copy in one C call each, so a sample tick on
        # another thread cannot mutate them mid-copy.
        items = [
            (key, bucket[0], dict(bucket[1]))
            for key, bucket in list(self._buckets.items())
        ]
        items.sort(key=lambda entry: (-entry[1], entry[0]))
        return {
            "kind": "profile",
            "version": 1,
            "host": _hb.host_name(),
            "worker": _hb.worker_id(),
            "pid": os.getpid(),
            "hz": self.hz,
            "mode": self.mode,
            "clock": self.clock,
            "samples": self.samples,
            "dropped": self.dropped,
            "stacks": [
                {
                    "span": key[0],
                    "stack": key[1],
                    "count": count,
                    "trace_ids": traces,
                }
                for key, count, traces in items
            ],
        }


# ---------------------------------------------------------------------------
# Module-level lifecycle: one profiler per process (one itimer per process).
# ---------------------------------------------------------------------------

_active: Profiler | None = None
_capture_lock = threading.Lock()


def active() -> Profiler | None:
    """The running profiler, or ``None`` — the whole cost of being off."""
    return _active


def start(hz: int | None = None, mode: str = "auto") -> Profiler:
    """Start (or return the already-running) process profiler.

    Idempotent because a process has exactly one ``ITIMER_PROF``: a serve
    process with ``--profile`` that also runs an inline campaign must not
    have the campaign tear the server's profiler down (see :func:`stop`'s
    ownership note in the executor).
    """
    global _active
    if _active is not None:
        return _active
    profiler = Profiler(hz if hz is not None else requested_hz(), mode)
    profiler.start()
    _active = profiler
    return profiler


def stop() -> dict[str, Any] | None:
    """Stop the process profiler; flush its final profile to any sink."""
    global _active
    profiler = _active
    if profiler is None:
        return None
    _active = None
    profile = profiler.stop()
    _flush(lambda: profile)
    return profile


def capture(
    seconds: float, hz: int | None = None, mode: str = "auto"
) -> dict[str, Any]:
    """Blocking on-demand capture of ``seconds`` of samples.

    With a profiler already running this is a snapshot *delta* — only one
    itimer exists per process, so a second sampler cannot start; the
    window is diffed out of the running one instead.  Otherwise a
    temporary profiler runs for the window (thread mode off the main
    thread — the serve executor path).
    """
    seconds = float(seconds)
    if not 0.0 < seconds <= 600.0:
        raise ValidationError("capture seconds must be in (0, 600]")
    running = _active
    if running is not None:
        before = running.snapshot()
        time.sleep(seconds)
        return profile_delta(before, running.snapshot())
    if not _capture_lock.acquire(blocking=False):
        raise ValidationError("a profile capture is already running")
    try:
        profiler = Profiler(hz if hz is not None else requested_hz(), mode)
        profiler.start()
        try:
            time.sleep(seconds)
        finally:
            profile = profiler.stop()
        return profile
    finally:
        _capture_lock.release()


# ---------------------------------------------------------------------------
# Sink: deltas appended to a telemetry log through the trace sink.
# ---------------------------------------------------------------------------

_sink_path: Path | None = None
_flushed: dict[str, Any] | None = None  # the snapshot the last flush covered
_flush_lock = threading.Lock()


def profile_dir(store_path: str | Path) -> Path:
    """Where profile shards lived before deltas moved into the telemetry
    log; nothing writes or reads it now (kept for tools that list a
    store's sidecars)."""
    store = Path(store_path)
    return store.parent / (store.name + ".profile")


def configure_sink(path: str | Path) -> Path:
    """Append the profile's deltas to the telemetry log at ``path``."""
    global _sink_path, _flushed
    with _flush_lock:
        _sink_path = Path(path)
        _flushed = None
    return _sink_path


def sink_configured() -> bool:
    return _sink_path is not None


def close_sink() -> None:
    """Final flush, then detach the sink."""
    global _sink_path, _flushed
    flush()
    with _flush_lock:
        _sink_path = None
        _flushed = None


def _flush(take: Callable[[], Mapping[str, Any]]) -> None:
    """Append what the snapshot ``take()`` returns adds to the last flushed
    one: always on the first flush (the log then shows the profiler ran),
    then when nonempty.  The snapshot is taken under the lock, so flushes
    from two threads never go back in time."""
    global _flushed
    with _flush_lock:
        if _sink_path is None:
            return
        snapshot = take()
        delta = profile_delta(_flushed or {}, snapshot)
        empty = _flushed is not None and not (delta["samples"] or delta["stacks"])
        if not empty and not _trace.write_record(delta, _sink_path):
            return  # keep the samples for the next flush
        _flushed = dict(snapshot)


def flush() -> None:
    """Append the samples taken since the last flush to the sink's log."""
    profiler = _active
    if profiler is not None and _sink_path is not None:
        _flush(profiler.snapshot)


def _forget_profiler() -> None:
    """In a forked child: no profiler (its timer does not survive fork) and
    no sink, so the child never flushes its copy of the parent's samples."""
    global _active, _sink_path, _flushed, _flush_lock
    _active = _sink_path = _flushed = None
    _flush_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_profiler)


# ---------------------------------------------------------------------------
# Merge / delta
# ---------------------------------------------------------------------------


def merge_profiles(profiles: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Merge profiles or deltas: counts sum by ``(span, stack)``, trace ids
    dedup."""
    buckets: dict[tuple[str, str], list] = {}
    samples = dropped = 0
    workers: set[str] = set()
    hosts: set[str] = set()
    hz: int | None = None
    clocks: set[str] = set()
    merged_count = 0
    for profile in profiles:
        merged_count += 1
        samples += int(profile.get("samples", 0))
        dropped += int(profile.get("dropped", 0))
        if profile.get("worker"):
            workers.add(str(profile["worker"]))
        if profile.get("host"):
            hosts.add(str(profile["host"]))
        if hz is None and profile.get("hz"):
            hz = int(profile["hz"])
        if profile.get("clock"):
            clocks.add(str(profile["clock"]))
        for entry in profile.get("stacks") or []:
            key = (str(entry.get("span") or ""), str(entry.get("stack") or ""))
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = [0, {}]
            bucket[0] += int(entry.get("count", 0))
            for trace_id, n in (entry.get("trace_ids") or {}).items():
                traces = bucket[1]
                if trace_id in traces or len(traces) < MAX_TRACE_IDS:
                    traces[trace_id] = traces.get(trace_id, 0) + int(n)
    items = sorted(buckets.items(), key=lambda kv: (-kv[1][0], kv[0]))
    return {
        "kind": "profile",
        "version": 1,
        "merged": merged_count,
        "workers": sorted(workers),
        "hosts": sorted(hosts),
        "hz": hz or DEFAULT_HZ,
        "clock": "+".join(sorted(clocks)) or "cpu",
        "samples": samples,
        "dropped": dropped,
        "stacks": [
            {"span": key[0], "stack": key[1], "count": bucket[0],
             "trace_ids": bucket[1]}
            for key, bucket in items
        ],
    }


def profile_delta(
    before: Mapping[str, Any], after: Mapping[str, Any]
) -> dict[str, Any]:
    """What was sampled between two snapshots of the *same* profiler."""

    def index(profile: Mapping[str, Any]) -> dict[tuple[str, str], Mapping]:
        return {
            (str(e.get("span") or ""), str(e.get("stack") or "")): e
            for e in profile.get("stacks") or []
        }

    prior = index(before)
    stacks = []
    for key, entry in index(after).items():
        old = prior.get(key)
        count = int(entry.get("count", 0)) - (
            int(old.get("count", 0)) if old else 0
        )
        if count <= 0:
            continue
        old_traces = (old.get("trace_ids") or {}) if old else {}
        traces = {
            tid: int(n) - int(old_traces.get(tid, 0))
            for tid, n in (entry.get("trace_ids") or {}).items()
            if int(n) - int(old_traces.get(tid, 0)) > 0
        }
        stacks.append(
            {"span": key[0], "stack": key[1], "count": count,
             "trace_ids": traces}
        )
    stacks.sort(key=lambda e: (-e["count"], e["span"], e["stack"]))
    out = dict(after)
    out["samples"] = int(after.get("samples", 0)) - int(before.get("samples", 0))
    out["dropped"] = int(after.get("dropped", 0)) - int(before.get("dropped", 0))
    out["stacks"] = stacks
    return out


# ---------------------------------------------------------------------------
# Emitters: collapsed text, flamegraph HTML, hottest frames.
# ---------------------------------------------------------------------------


def _collapsed_frames(entry: Mapping[str, Any]) -> list[str]:
    """Root-first frame list with the span path as synthetic parents."""
    frames: list[str] = []
    span = str(entry.get("span") or "")
    if span:
        frames.extend(f"span:{part}" for part in span.split("/") if part)
    stack = str(entry.get("stack") or "")
    if stack:
        frames.extend(stack.split(";"))
    return frames


def to_collapsed(profile: Mapping[str, Any]) -> str:
    """Collapsed-stack text (``a;b;c count`` per line, hottest first)."""
    lines = []
    for entry in profile.get("stacks") or []:
        frames = _collapsed_frames(entry)
        if frames:
            lines.append(f"{';'.join(frames)} {int(entry.get('count', 0))}")
    return "\n".join(lines) + ("\n" if lines else "")


def _flame_tree(profile: Mapping[str, Any]) -> dict[str, Any]:
    root: dict[str, Any] = {"name": "all", "value": 0, "children": {}}
    for entry in profile.get("stacks") or []:
        frames = _collapsed_frames(entry)
        count = int(entry.get("count", 0))
        if not frames or count <= 0:
            continue
        root["value"] += count
        node = root
        for frame in frames:
            child = node["children"].get(frame)
            if child is None:
                child = node["children"][frame] = {
                    "name": frame, "value": 0, "children": {}
                }
            child["value"] += count
            node = child

    def listify(node: dict[str, Any]) -> dict[str, Any]:
        children = [listify(c) for _name, c in sorted(node["children"].items())]
        out = {"name": node["name"], "value": node["value"]}
        if children:
            out["children"] = children
        return out

    return listify(root)


_FLAMEGRAPH_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title}</title>
<link rel="stylesheet"
 href="https://cdn.jsdelivr.net/npm/d3-flame-graph@4.1.3/dist/d3-flamegraph.css">
<style>
 body {{ font-family: sans-serif; margin: 1rem; }}
 #meta {{ color: #555; margin-bottom: 0.75rem; font-size: 0.9rem; }}
</style>
</head>
<body>
<h1>{title}</h1>
<div id="meta">{meta}</div>
<div id="chart"></div>
<script src="https://cdn.jsdelivr.net/npm/d3@7.8.5/dist/d3.min.js"></script>
<script
 src="https://cdn.jsdelivr.net/npm/d3-flame-graph@4.1.3/dist/d3-flamegraph.min.js">
</script>
<script>
var data = {data};
var chart = flamegraph().width(Math.max(600, window.innerWidth - 60));
d3.select("#chart").datum(data).call(chart);
</script>
</body>
</html>
"""


def to_flamegraph_html(
    profile: Mapping[str, Any], title: str = "repro profile"
) -> str:
    """Self-describing d3-flamegraph page for one (merged) profile."""
    meta = (
        f"{int(profile.get('samples', 0))} samples at "
        f"{int(profile.get('hz', DEFAULT_HZ))} Hz "
        f"({profile.get('clock', 'cpu')} clock)"
    )
    workers = profile.get("workers") or (
        [profile["worker"]] if profile.get("worker") else []
    )
    if workers:
        meta += " · workers: " + ", ".join(str(w) for w in workers)
    dropped = int(profile.get("dropped", 0))
    if dropped:
        meta += f" · {dropped} dropped"
    return _FLAMEGRAPH_TEMPLATE.format(
        title=title,
        meta=meta,
        data=json.dumps(_flame_tree(profile)),
    )


def top_frames(profile: Mapping[str, Any], n: int = 3) -> list[dict[str, Any]]:
    """Hottest frames by *self* samples (leaf position), with totals.

    ``fraction`` is self samples over all attributed samples, so the
    campaign watch line can say ``grid.dense_grid 40%``.
    """
    self_counts: dict[str, int] = {}
    total_counts: dict[str, int] = {}
    attributed = 0
    for entry in profile.get("stacks") or []:
        stack = str(entry.get("stack") or "")
        count = int(entry.get("count", 0))
        if not stack or count <= 0:
            continue
        frames = stack.split(";")
        attributed += count
        leaf = frames[-1]
        self_counts[leaf] = self_counts.get(leaf, 0) + count
        for frame in set(frames):
            total_counts[frame] = total_counts.get(frame, 0) + count
    ranked = sorted(self_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    out = []
    for frame, self_count in ranked[: max(0, int(n))]:
        out.append(
            {
                "frame": frame,
                "self": self_count,
                "total": total_counts.get(frame, self_count),
                "fraction": self_count / attributed if attributed else math.nan,
            }
        )
    return out
