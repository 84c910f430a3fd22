"""Process plumbing: launch the program, time its set-up, sample its memory."""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"


def program_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    """Environment for the program: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Observability switches from the caller's shell must not leak in.
    for name in list(env):
        if name.startswith("REPRO_"):
            del env[name]
    env.update(extra or {})
    return env


def repro_command(args: list[str], spans_dir: Path | None = None) -> list[str]:
    """``python -m repro <args>``, or the tracing launcher when ``spans_dir``."""
    if spans_dir is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(LAUNCHER), "--spans", str(spans_dir), "--", *args]


def launch(
    args: list[str],
    cwd: Path,
    log: Path,
    spans_dir: Path | None = None,
    env: dict[str, str] | None = None,
) -> subprocess.Popen:
    with log.open("ab") as handle:
        return subprocess.Popen(
            repro_command(args, spans_dir),
            cwd=cwd,
            env=program_env(env),
            stdin=subprocess.DEVNULL,
            stdout=handle,
            stderr=subprocess.STDOUT,
        )


def stop(proc: subprocess.Popen, sig: int = signal.SIGINT, timeout: float = 15.0) -> int:
    """Signal ``proc`` and wait for it; kill it if it does not exit in time."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


def finish(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    """Wait for ``proc`` to exit on its own; kill it if it does not in time."""
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return proc.returncode


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def http_get(port: int, path: str, timeout: float = 5.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def get_json(port: int, path: str) -> dict:
    status, body = http_get(port, path)
    if status != 200:
        raise RuntimeError(f"GET {path} -> {status}")
    return json.loads(body)


def wait_healthy(proc: subprocess.Popen, port: int, t0: float, timeout: float = 60.0) -> float:
    """Poll ``/v1/healthz`` until the first 200; returns seconds since ``t0``."""
    while True:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with {proc.returncode} during start-up")
        try:
            status, _ = http_get(port, "/v1/healthz", timeout=1.0)
            if status == 200:
                return time.perf_counter() - t0
        except OSError:
            pass
        if time.perf_counter() - t0 > timeout:
            raise RuntimeError("server did not become healthy in time")
        time.sleep(0.002)


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                out.extend(int(c) for c in handle.read().split())
        except OSError:
            continue
    return out


def _peak_kb(pid: int) -> int | None:
    """VmHWM (peak RSS, kB) of a Python process, else ``None``."""
    try:
        with open(f"/proc/{pid}/comm") as handle:
            if not handle.read().startswith("python"):
                return None
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


class MemorySampler:
    """Tracks each process's peak RSS across a process tree.

    Polls ``/proc`` every ``period`` seconds for the given roots and their
    descendants (only Python processes: short-lived ``git`` lookups are not
    the program's working set).  :meth:`stop` sums the per-process peaks.
    """

    def __init__(self, period: float = 0.02):
        self.period = period
        self._roots: list[int] = []
        self._peaks: dict[int, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def watch(self, pid: int) -> None:
        with self._lock:
            self._roots.append(pid)

    def start(self) -> "MemorySampler":
        self._thread.start()
        return self

    def sample(self) -> None:
        with self._lock:
            pending = list(self._roots)
        seen: set[int] = set()
        while pending:
            pid = pending.pop()
            if pid in seen:
                continue
            seen.add(pid)
            peak = _peak_kb(pid)
            if peak is not None:
                with self._lock:
                    self._peaks[pid] = max(self._peaks.get(pid, 0), peak)
            pending.extend(_children(pid))

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            self.sample()

    def stop(self) -> float:
        """Stop sampling; returns the summed peak RSS in MB."""
        self.sample()
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)
        with self._lock:
            return sum(self._peaks.values()) / 1024.0
