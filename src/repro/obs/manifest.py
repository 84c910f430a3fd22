"""Run manifests: one JSON file capturing everything needed to trust a run.

A campaign store records *what* was computed; the manifest records *under
which conditions*: the spec fingerprint, task name, package version, git
SHA (when the working tree is a git checkout), python/numpy versions,
platform string, the observability switches that were live, and the
execution-policy knobs.  Every ``run_campaign``/``resume_campaign`` writes

    <store>.manifest.json

atomically next to the store.  On resume the previous manifest is checked
against the resuming environment — any drift (different spec hash, task,
package or python version) is surfaced as telemetry notes and
``campaign.manifest_mismatch`` warning health events rather than an
error: resuming on a patched tree is sometimes exactly what you want, but
it should never be silent.  ``repro campaign status`` and ``repro
campaign watch`` surface the manifest alongside progress.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any

from repro.obs import resources as _resources
from repro.obs import spans as _spans
from repro.obs import profile as _profile

__all__ = [
    "MANIFEST_VERSION",
    "build_manifest",
    "check_manifest",
    "environment_info",
    "load_manifest",
    "manifest_path",
    "spec_fingerprint",
    "write_manifest",
]

MANIFEST_VERSION = 1

#: Manifest keys compared on resume (mismatch → warning, never an error).
CHECKED_KEYS = ("spec_hash", "task", "points", "package_version", "python")


def manifest_path(store_path: str | Path) -> Path:
    """The manifest file for a result store path."""
    return Path(str(store_path) + ".manifest.json")


def spec_fingerprint(spec: Any) -> str:
    """Deterministic blake2b fingerprint of a campaign spec.

    Uses the same canonical-JSON serialisation as the store header when
    available; callable (unregistered) tasks fall back to hashing the
    name/task/defaults/space structure so a fingerprint always exists.
    """
    try:
        payload = spec.to_json()
    except Exception:
        payload = {
            "name": getattr(spec, "name", None),
            "task": getattr(spec, "task_name", None),
            "defaults": getattr(spec, "defaults", None),
            "points": len(spec),
        }
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except Exception:
        return None
    if proc.returncode != 0:
        return None
    sha = proc.stdout.strip()
    return sha or None


def _package_version() -> str | None:
    try:
        from repro import __version__

        return __version__
    except Exception:
        return None


def _numpy_version() -> str | None:
    try:
        import numpy

        return numpy.__version__
    except Exception:
        return None


def environment_info() -> dict[str, Any]:
    """The environment half of a manifest: versions, platform, obs switches.

    Shared between campaign run manifests and the serving layer's server
    manifest — the same provenance questions apply to both.
    """
    return {
        "package_version": _package_version(),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "platform": platform.platform(),
        "obs": {
            "enabled": _spans.enabled(),
            "profile": _profile.profile_requested(),
            "mem": _resources.tracemalloc_requested(),
        },
    }


def build_manifest(spec: Any, policy: Any = None) -> dict[str, Any]:
    """Capture the provenance of a run about to execute ``spec``."""
    manifest: dict[str, Any] = {
        "kind": "campaign_manifest",
        "version": MANIFEST_VERSION,
        "created": time.time(),
        "runs": 1,
        "campaign": getattr(spec, "name", None),
        "task": getattr(spec, "task_name", None) or "<callable>",
        "points": len(spec),
        "spec_hash": spec_fingerprint(spec),
        **environment_info(),
    }
    if policy is not None and dataclasses.is_dataclass(policy):
        manifest["policy"] = dataclasses.asdict(policy)
    return manifest


def write_manifest(path: str | Path, manifest: dict[str, Any]) -> Path:
    """Atomically write ``manifest`` to ``path`` (temp file + replace)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name("." + path.name + ".tmp")
    tmp.write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    os.replace(tmp, path)
    return path


def load_manifest(path: str | Path) -> dict[str, Any] | None:
    """Load a manifest, returning ``None`` when missing or unparseable.

    Manifests are written atomically, so an unparseable file means someone
    else wrote it — the caller treats that the same as absent and rewrites.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("kind") != "campaign_manifest":
        return None
    return data


def check_manifest(previous: dict[str, Any], current: dict[str, Any]) -> list[str]:
    """Compare a stored manifest against the resuming run's manifest.

    Returns human-readable mismatch strings for the :data:`CHECKED_KEYS`
    that differ (missing-on-either-side counts as a match — old manifests
    stay resumable as the schema grows).
    """
    mismatches: list[str] = []
    for key in CHECKED_KEYS:
        old = previous.get(key)
        new = current.get(key)
        if old is None or new is None:
            continue
        if old != new:
            mismatches.append(f"{key}: stored {old!r}, resuming with {new!r}")
    return mismatches
