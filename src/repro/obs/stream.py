"""Where the streaming-metrics file lived before samples moved into the
telemetry log (:mod:`repro.obs.heartbeat`, :mod:`repro.obs.trace`).

Nothing writes or reads it now; :func:`stream_path` stays for tools that
list a store's sidecars.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["stream_path"]


def stream_path(store_path: str | Path) -> Path:
    """The old stream file of a result store path."""
    return Path(str(store_path) + ".stream.jsonl")
