"""Worker heartbeats: live per-process liveness files next to the ResultStore.

A campaign's JSONL store only shows *completed* points; while a worker is
inside a 40-minute stability cell there is no externally visible signal
distinguishing "still crunching" from "wedged in a BLAS call".  Heartbeats
close that gap.  Each worker process runs one daemon emitter thread that
periodically rewrites a single small JSON file

    <store>.heartbeats/<hostname>-<pid>.json

keyed by the process's *worker id* — hostname plus pid — so workers on
different hosts sharing one store (lease workers on several hosts)
can never collide even when their pids coincide.  Each beat carries the
worker id, host, pid, current phase (``point`` / ``idle`` / ``stopped``), the point
id it is working on, how long that point has been running, how many points
it has finished, its instantaneous RSS, and — when observability is on —
its registry counter totals.  Writes are atomic (temp file + ``os.replace``)
so readers (the coordinator's liveness monitor and ``repro campaign
watch``) never see a torn beat, and the files live *outside* the store, so
they can never corrupt the append-only result log.

The emitter is deliberately boring: pure stdlib, one thread, exceptions
swallowed and counted (``campaign.heartbeat_errors``), and a no-op when
never started.  Coordinator-side analysis (stall/straggler classification)
lives in ``repro.campaign.executor``.
"""

from __future__ import annotations

import json
import os
import re
import socket
import threading
import time
from pathlib import Path
from typing import Any

from repro.obs import resources as _resources
from repro.obs import spans as _spans

__all__ = [
    "HEARTBEAT_VERSION",
    "beat_age",
    "beat_worker",
    "ensure_emitter",
    "heartbeat_dir",
    "host_name",
    "point_finished",
    "point_started",
    "read_heartbeats",
    "stop_emitter",
    "worker_id",
]

HEARTBEAT_VERSION = 2


def heartbeat_dir(store_path: str | Path) -> Path:
    """The per-run heartbeat directory for a result store path."""
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
    names).  Used as the heartbeat filename, the shard-store name, the
    lease owner, and the liveness-monitor key.
    """
    return f"{host or host_name()}-{os.getpid() if pid is None else int(pid)}"


def beat_worker(beat: dict[str, Any]) -> str:
    """The worker id a beat belongs to (reconstructed for v1 beats)."""
    worker = beat.get("worker")
    if isinstance(worker, str) and worker:
        return worker
    return worker_id(pid=int(beat.get("pid", 0)), host=beat.get("host") or "localhost")


# ---------------------------------------------------------------------------
# Per-process worker state (what the emitter samples)
# ---------------------------------------------------------------------------

_lock = threading.Lock()
_state: dict[str, Any] = {"phase": "idle", "point_id": None, "started": None, "done": 0}
_emitter: _Emitter | None = None


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
        _state["done"] = int(_state["done"]) + 1


def _sample(phase: str | None = None) -> dict[str, Any]:
    now = time.time()
    with _lock:
        state = dict(_state)
    host = host_name()
    beat: dict[str, Any] = {
        "kind": "heartbeat",
        "version": HEARTBEAT_VERSION,
        "pid": os.getpid(),
        "host": host,
        "worker": worker_id(host=host),
        "time": now,
        "phase": phase if phase is not None else state["phase"],
        "point_id": state["point_id"],
        "points_done": state["done"],
        "rss_bytes": _resources.current_rss_bytes(),
    }
    if state["started"] is not None:
        beat["point_elapsed"] = max(now - float(state["started"]), 0.0)
    if _spans.enabled():
        snap = _spans.snapshot()
        counters = {
            bucket["name"]: bucket["value"]
            for bucket in snap.get("counters", {}).values()
        }
        if counters:
            beat["counters"] = counters
    return beat


def _write_atomic(directory: Path, beat: dict[str, Any]) -> None:
    name = beat.get("worker") or str(beat["pid"])
    tmp = directory / f".{name}.tmp"
    tmp.write_text(json.dumps(beat, sort_keys=True), encoding="utf-8")
    os.replace(tmp, directory / f"{name}.json")


class _Emitter:
    """Daemon thread rewriting this process's beat file every ``interval`` s."""

    def __init__(self, directory: Path, interval: float) -> None:
        self.directory = Path(directory)
        self.interval = float(interval)
        self.errors = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-heartbeat", daemon=True
        )

    def start(self) -> None:
        self._beat()  # immediate first beat so the coordinator sees us early
        self._thread.start()

    def _beat(self, phase: str | None = None) -> None:
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            _write_atomic(self.directory, _sample(phase))
        except Exception:
            self.errors += 1
            _spans.add("campaign.heartbeat_errors")

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._beat()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=self.interval + 1.0)
        self._beat(phase="stopped")


def ensure_emitter(directory: str | Path, interval: float) -> None:
    """Start this process's heartbeat emitter (idempotent per directory).

    Called by every lease worker and by the serial path.  A second call
    with the same directory is a no-op; a different directory stops the
    old emitter first.
    """
    global _emitter
    directory = Path(directory)
    with _lock:
        current = _emitter
    if current is not None:
        alive = current._thread.is_alive()
        if alive and current.directory == directory:
            return
        # A forked worker inherits the parent's emitter object but not its
        # thread; a dead emitter is simply replaced (never "stopped", which
        # would write a misleading final beat under the child's pid).
        if alive:
            current.stop()
    emitter = _Emitter(directory, interval)
    with _lock:
        _emitter = emitter
    emitter.start()


def stop_emitter() -> int:
    """Stop this process's emitter (writing a final ``stopped`` beat).

    Returns the emitter's swallowed-error count (0 when never started).
    """
    global _emitter
    with _lock:
        emitter = _emitter
        _emitter = None
    if emitter is None:
        return 0
    emitter.stop()
    return emitter.errors


# ---------------------------------------------------------------------------
# Readers (coordinator + watch dashboard)
# ---------------------------------------------------------------------------


def read_heartbeats(directory: str | Path) -> list[dict[str, Any]]:
    """All parseable beats in ``directory``, sorted by (host, pid).

    Tolerant by construction: a missing directory yields ``[]``, and a
    file that cannot be parsed (e.g. mid-replace on a non-atomic
    filesystem) is skipped rather than raised on.
    """
    directory = Path(directory)
    beats: list[dict[str, Any]] = []
    try:
        paths = sorted(directory.glob("*.json"))
    except OSError:
        return beats
    for path in paths:
        try:
            beat = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if isinstance(beat, dict) and beat.get("kind") == "heartbeat":
            beats.append(beat)
    return sorted(beats, key=lambda b: (str(b.get("host", "")), b.get("pid", 0)))


def beat_age(beat: dict[str, Any], now: float | None = None) -> float:
    """Seconds since the beat was written (clamped at 0)."""
    if now is None:
        now = time.time()
    return max(now - float(beat.get("time", now)), 0.0)
