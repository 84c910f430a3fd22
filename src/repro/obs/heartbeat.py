"""Worker liveness: the run's sampler thread and the point state it reports.

A campaign's JSONL store only shows *completed* points; while a worker is
inside a 40-minute stability cell there is no externally visible signal
distinguishing "still crunching" from "wedged in a BLAS call".  Samples
close that gap.  Each run with a store runs one daemon :class:`Sampler`
thread per worker process that appends a ``sample`` record, every
heartbeat interval, to the worker's telemetry log

    <store>.trace/<hostname>-<pid>.jsonl

through the one telemetry sink (:func:`repro.obs.trace.write_record`).
The worker id — hostname plus pid — keeps workers on different hosts
sharing one store apart even when their pids coincide.  A sample carries
the worker id, host, pid, current phase (``point`` / ``idle`` /
``stopped``), the point id it is working on, how long that point has been
running, its instantaneous RSS, its registry counter totals when
observability is on, and the run's progress counters (done, failed,
retried, skipped, cache, stalls, stragglers, lease claims, health, trace
id).  Each tick also flushes the sampling profiler's delta, when one runs.

The sampler is deliberately boring: pure stdlib, one thread, exceptions
swallowed and counted (``campaign.heartbeat_errors``).  Readers —
``repro campaign watch``, job polling, the SLO evaluation — go through
:class:`repro.obs.trace.LogReader`.
"""

from __future__ import annotations

import os
import re
import socket
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.obs import profile as _profile
from repro.obs import resources as _resources
from repro.obs import spans as _spans
from repro.obs import trace as _trace

__all__ = [
    "SAMPLE_VERSION",
    "Sampler",
    "beat_age",
    "beat_worker",
    "heartbeat_dir",
    "host_name",
    "point_finished",
    "point_started",
    "worker_id",
]

SAMPLE_VERSION = 3


def heartbeat_dir(store_path: str | Path) -> Path:
    """Where heartbeat files lived before samples moved into the telemetry
    log; nothing writes or reads it now (kept for tools that list a
    store's sidecars)."""
    return Path(str(store_path) + ".heartbeats")


_HOST_SANITIZE = re.compile(r"[^A-Za-z0-9._-]+")


def host_name() -> str:
    """This machine's hostname, sanitized for use inside filenames."""
    raw = socket.gethostname() or "localhost"
    clean = _HOST_SANITIZE.sub("-", raw).strip("-.")
    return clean or "localhost"


def worker_id(pid: int | None = None, host: str | None = None) -> str:
    """Globally unique worker identity: ``<hostname>-<pid>``.

    Bare pids collide across hosts sharing one store; hostname+pid cannot
    (two workers on one host have distinct pids, two hosts have distinct
    names).  Used as the telemetry log's name, the shard-store name and
    the lease owner.
    """
    return f"{host or host_name()}-{os.getpid() if pid is None else int(pid)}"


def beat_worker(beat: dict[str, Any]) -> str:
    """The worker id a sample (or an older heartbeat) belongs to."""
    worker = beat.get("worker")
    if isinstance(worker, str) and worker:
        return worker
    return worker_id(pid=int(beat.get("pid", 0)), host=beat.get("host") or "localhost")


# ---------------------------------------------------------------------------
# Per-process worker state (what the sampler reports)
# ---------------------------------------------------------------------------

_lock = threading.Lock()
_state: dict[str, Any] = {"phase": "idle", "point_id": None, "started": None}


def point_started(point_id: str) -> None:
    """Mark this process as working on ``point_id`` (called by the executor)."""
    with _lock:
        _state["phase"] = "point"
        _state["point_id"] = point_id
        _state["started"] = time.time()


def point_finished() -> None:
    """Mark the current point as done and return to the idle phase."""
    with _lock:
        _state["phase"] = "idle"
        _state["point_id"] = None
        _state["started"] = None


class Sampler:
    """The run's one telemetry thread: a ``sample`` record every ``interval`` s.

    ``fields`` is a zero-argument callable returning the run's progress
    counters; the sampler adds this process's point state, RSS and
    registry counters, and ``kind``/``version``/``run``/``seq``/``time``
    around it.  ``run`` is a fresh token per sampler, so a process that
    runs twice (a resume in the same process) is two series to
    :func:`repro.obs.trace.run_series`.  Every failure (``fields``
    raising, serialisation, I/O) is swallowed and counted in
    :attr:`errors` plus the ``campaign.heartbeat_errors`` obs counter.
    """

    def __init__(
        self,
        log: str | Path,
        fields: Callable[[], dict[str, Any]],
        interval: float,
        worker: str | None = None,
    ) -> None:
        self.log = Path(log)
        self.fields = fields
        self.interval = float(interval)
        self.worker = worker or worker_id()
        self.errors = 0
        self._run = os.urandom(4).hex()
        self._seq = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="repro-sampler", daemon=True
        )

    def _sample(self, phase: str | None) -> dict[str, Any]:
        now = time.time()
        with _lock:
            state = dict(_state)
        record: dict[str, Any] = {
            "kind": _trace.SAMPLE_KIND,
            "version": SAMPLE_VERSION,
            "run": self._run,
            "seq": self._seq,
            "time": now,
            "pid": os.getpid(),
            "host": host_name(),
            "worker": self.worker,
            "phase": phase if phase is not None else state["phase"],
            "point_id": state["point_id"],
            "rss_bytes": _resources.current_rss_bytes(),
        }
        if state["started"] is not None:
            record["point_elapsed"] = max(now - float(state["started"]), 0.0)
        if _spans.enabled():
            counters = {
                bucket["name"]: bucket["value"]
                for bucket in _spans.snapshot().get("counters", {}).values()
            }
            if counters:
                record["counters"] = counters
        record.update(self.fields())
        return record

    def _tick(self, phase: str | None = None) -> None:
        try:
            written = _trace.write_record(self._sample(phase), self.log)
        except Exception:
            written = False
        if written:
            self._seq += 1
        else:
            self.errors += 1
            _spans.add("campaign.heartbeat_errors")
        _profile.flush()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._tick()

    def start(self) -> None:
        """Write the first sample at once, then one per interval."""
        self._tick()
        self._thread.start()

    def stop(self) -> int:
        """Stop the thread and write a final ``stopped`` sample; returns
        the swallowed-error count."""
        self._stop.set()
        self._thread.join(timeout=self.interval + 1.0)
        self._tick(phase="stopped")
        return self.errors


def beat_age(sample: dict[str, Any], now: float | None = None) -> float:
    """Seconds since the sample was written (clamped at 0)."""
    if now is None:
        now = time.time()
    return max(now - float(sample.get("time", now)), 0.0)
