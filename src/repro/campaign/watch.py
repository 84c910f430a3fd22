"""``repro campaign watch``: a stdlib-only live dashboard for running campaigns.

Reads what a campaign leaves next to its store —

* the append-only result JSONL and its worker shards (progress, terminal
  statuses),
* ``<store>.trace/``, one telemetry log per worker process (samples,
  spans, profile deltas), read through one
  :class:`~repro.obs.trace.LogReader`,
* ``<store>.manifest.json`` (run provenance)

— and renders a single refreshing screen: a progress bar with an ETA
derived from observed throughput, a per-point latency quantile line
(p50/p95/p99 over the merged records), the hottest profiled frames, the
worst SLO burn, one line per live worker (phase, current point, elapsed,
RSS, staleness), the run-wide sample line, and the provenance header.
Multi-host lease campaigns merge naturally: progress counts come from
:meth:`~repro.campaign.store.ResultStore.merged_status` (main store +
worker shards), worker lines group by host when more than one host is
sampling, lease/batch progress gets its own line, and the run-wide
counters sum every worker's latest sample
(:func:`~repro.obs.trace.run_series`).  Everything is read-only and
torn-file tolerant, so watching a run (or the corpse of a SIGKILLed one)
can never perturb it; the refreshing loop keeps one store reader and one
log reader, so each frame decodes only what was appended since the last.
``--once`` renders a single frame and exits — that is what tests and CI
use; interactively, the screen refreshes in place until the campaign
completes or you press Ctrl-C (``q``/Ctrl-C both just end the watcher,
never the run).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Any

from repro.campaign.store import ResultStore
from repro.obs import heartbeat as obs_heartbeat
from repro.obs import manifest as obs_manifest
from repro.obs.trace import LogReader

__all__ = ["poll_store", "render", "watch"]


def poll_store(store_path: str | Path) -> dict[str, Any]:
    """One machine-readable liveness sample of a (possibly running) store.

    The JSON-shaped sibling of :func:`render` — progress counts from the
    store, the run-wide counters of its latest samples (``stream``), and
    the run manifest.  This is what the serving layer's job-polling
    endpoint returns, and what ``repro jobs`` prints: read-only,
    torn-file tolerant, safe against a live writer or a SIGKILLed corpse.
    """
    store = ResultStore.open(store_path)
    status = store.merged_status()
    out: dict[str, Any] = {
        "name": status["name"],
        "task": status["task"],
        "points": status["points"],
        "done": status["done"],
        "failed": status["failed"],
        "pending": status["pending"],
        "complete": status["complete"],
    }
    if status.get("shards"):
        out["shards"] = status["shards"]
    leases = _lease_progress(store.path)
    if leases is not None:
        out["leases"] = leases
    summary = status.get("summary")
    if summary:
        out["wall_seconds"] = summary.get("wall_seconds")
    manifest = obs_manifest.load_manifest(
        obs_manifest.manifest_path(store.path)
    )
    if manifest:
        out["manifest"] = {
            key: manifest.get(key)
            for key in ("spec_hash", "runs", "package_version", "git_sha")
            if manifest.get(key) is not None
        }
    series = LogReader(store.path).refresh().series()
    if series:
        out["stream"] = series[-1]
    return out

_BAR_WIDTH = 32


def _bar(done: int, failed: int, total: int) -> str:
    if total <= 0:
        return "[" + "?" * _BAR_WIDTH + "]"
    ok_cells = int(_BAR_WIDTH * done / total)
    bad_cells = int(_BAR_WIDTH * failed / total)
    if failed and bad_cells == 0:
        bad_cells = 1
    ok_cells = min(ok_cells, _BAR_WIDTH - bad_cells)
    rest = _BAR_WIDTH - ok_cells - bad_cells
    return "[" + "#" * ok_cells + "x" * bad_cells + "." * rest + "]"


def _fmt_seconds(seconds: float) -> str:
    seconds = max(float(seconds), 0.0)
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    return f"{seconds / 3600:.1f}h"


def _fmt_bytes(n: float) -> str:
    return f"{float(n) / 1e6:.0f}MB"


def _eta_seconds(samples: list[dict[str, Any]], pending: int) -> float | None:
    """Pending / throughput from the samples.

    Each worker's counters are its own, so samples are grouped by worker
    (and run) and the observed throughputs *summed*; with one worker this
    is the classic first-vs-last estimate.
    """
    if pending <= 0 or len(samples) < 2:
        return None
    by_worker: dict[Any, list[dict[str, Any]]] = {}
    for sample in samples:
        by_worker.setdefault((sample.get("worker"), sample.get("run")), []).append(sample)
    throughput = 0.0
    for samples in by_worker.values():
        if len(samples) < 2:
            continue
        first, last = samples[0], samples[-1]
        try:
            span = float(last["time"]) - float(first["time"])
            gained = (int(last["done"]) + int(last["failed"])) - (
                int(first["done"]) + int(first["failed"])
            )
        except (KeyError, TypeError, ValueError):
            continue
        if span <= 0 or gained <= 0:
            continue
        throughput += gained / span
    if throughput <= 0:
        return None
    return pending / throughput


def _point_latency_quantiles(store: ResultStore) -> dict[str, float]:
    """p50/p95/p99 of per-point elapsed seconds over all merged records.

    Folds the record elapsed times into a decade histogram and inverts it —
    the same estimator ``/v1/statz`` and ``repro obs summary`` use — so the
    dashboard's latency line agrees with the other surfaces.
    """
    from repro.obs.registry import HistogramStat, histogram_quantiles

    hist = HistogramStat("campaign.point.elapsed", {})
    try:
        records = store.merged_point_records()
    except Exception:
        return {}
    for record in records:
        value = record.get("elapsed")
        if isinstance(value, (int, float)) and float(value) >= 0.0:
            hist.observe(float(value))
    return histogram_quantiles(hist)


def _profile_line(log: LogReader) -> str | None:
    """Hottest frames over the logs' profile deltas, if any were flushed."""
    from repro.obs import profile as obs_profile

    deltas = log.profiles()
    if not deltas:
        return None
    merged = obs_profile.merge_profiles(deltas)
    top = obs_profile.top_frames(merged, n=3)
    if not merged.get("samples") or not top:
        return None
    parts = [f"{entry['frame']} {entry['fraction']:.0%}" for entry in top]
    return (
        "profile: " + " · ".join(parts)
        + f" ({merged['samples']} samples @ {merged['hz']} Hz)"
    )


def _slo_line(store_path: Path, log: LogReader) -> str | None:
    """Worst SLO burn over the run-wide sample series, if evaluable."""
    from repro.obs import slo as obs_slo

    try:
        result = obs_slo.evaluate_store(store_path, log=log)
    except Exception:
        return None
    slos = result.get("slos") or []
    if not slos:
        return None
    worst_name, worst_burn = None, -1.0
    for slo in slos:
        for window in slo.get("windows", []):
            burn = max(
                float(window["short"]["burn"]), float(window["long"]["burn"])
            )
            if burn > worst_burn:
                worst_name, worst_burn = slo["name"], burn
    verdict = "BREACH" if result.get("breach") else "ok"
    return f"slo: {verdict} · worst {worst_name} burning {worst_burn:.2g}x budget"


def _lease_progress(store_path: Path) -> dict[str, int] | None:
    """Batch-level lease counts for a lease-scheduled campaign, else None."""
    from repro.campaign import lease as lease_mod

    ldir = lease_mod.lease_dir(store_path)
    plan_path = ldir / "plan.json"
    if not plan_path.exists():
        return None
    try:
        import json

        plan = json.loads(plan_path.read_text(encoding="utf-8"))
        batches = plan["batches"]
    except (OSError, ValueError, KeyError):
        return None
    counts = {"batches": len(batches), "done": 0, "leased": 0, "expired": 0, "free": 0}
    for batch in batches:
        try:
            state = lease_mod.lease_state(ldir, batch["id"], 30.0)
        except (OSError, TypeError, KeyError):
            continue
        counts[state] = counts.get(state, 0) + 1
    return counts


def render(
    store_path: str | Path | ResultStore,
    now: float | None = None,
    log: LogReader | None = None,
) -> str:
    """One dashboard frame as a plain string (no ANSI; raises on a bad path).

    Pass an open :class:`ResultStore` and a :class:`LogReader` to reuse
    them across frames, so each frame decodes only the records and log
    lines appended since the last one.
    """
    now = time.time() if now is None else now
    if isinstance(store_path, ResultStore):
        store = store_path
    else:
        store = ResultStore.open(store_path)
    store_path = store.path
    status = store.merged_status()
    manifest = obs_manifest.load_manifest(obs_manifest.manifest_path(store_path))
    log = (log if log is not None else LogReader(store_path)).refresh()
    samples = log.samples()
    series = log.series()

    total = int(status["points"])
    done, failed, pending = status["done"], status["failed"], status["pending"]
    lines = [
        f"campaign {status['name']!r} · task {status['task']}"
        + (" · COMPLETE" if status["complete"] else ""),
    ]
    if manifest is not None:
        lines.append(
            "manifest: spec "
            + str(manifest.get("spec_hash"))
            + f" · run #{manifest.get('runs', 1)}"
            + (
                f" · repro {manifest['package_version']}"
                if manifest.get("package_version")
                else ""
            )
            + (f" · git {manifest['git_sha']}" if manifest.get("git_sha") else "")
        )
    percent = 100.0 * (done + failed) / total if total else 0.0
    lines.append(
        f"{_bar(done, failed, total)} {done + failed}/{total} "
        f"({percent:.0f}%) · {done} ok · {failed} failed · {pending} pending"
        + (f" · {status['shards']} shard(s)" if status.get("shards") else "")
    )
    leases = _lease_progress(store_path)
    if leases is not None:
        parts = [f"{leases['done']}/{leases['batches']} batches done"]
        for state in ("leased", "expired", "free"):
            if leases.get(state):
                parts.append(f"{leases[state]} {state}")
        lines.append("leases: " + " · ".join(parts))

    eta = _eta_seconds(samples, pending)
    if eta is not None:
        lines.append(f"eta: ~{_fmt_seconds(eta)} at observed throughput")

    quantiles = _point_latency_quantiles(store)
    if quantiles:
        lines.append(
            "latency: "
            + " · ".join(
                f"{key}={quantiles[key]:.3g}s"
                for key in ("p50", "p95", "p99")
                if key in quantiles
            )
        )

    profile_line = _profile_line(log)
    if profile_line is not None:
        lines.append(profile_line)
    if series:
        slo_line = _slo_line(store_path, log)
        if slo_line is not None:
            lines.append(slo_line)

    interval = 5.0
    if manifest and isinstance(manifest.get("policy"), dict):
        interval = float(manifest["policy"].get("heartbeat_interval") or 5.0)
    latest: dict[Any, dict[str, Any]] = {}
    for sample in samples:
        worker = sample.get("worker")
        if worker not in latest or sample.get("time", 0) >= latest[worker].get("time", 0):
            latest[worker] = sample
    beats = sorted(
        latest.values(), key=lambda b: (str(b.get("host", "")), b.get("pid", 0))
    )

    def stale(beat: dict[str, Any]) -> bool:
        return obs_heartbeat.beat_age(beat, now) > 3.0 * interval

    # A worker whose last sample is not `stopped` is live, or died; once the
    # campaign is complete a silent one is simply gone.
    live = [
        b for b in beats
        if b.get("phase") != "stopped" and not (status["complete"] and stale(b))
    ]
    if live:
        by_host: dict[str, list[dict[str, Any]]] = {}
        for beat in live:
            by_host.setdefault(str(beat.get("host") or "localhost"), []).append(beat)
        multi_host = len(by_host) > 1

        def _beat_line(beat: dict[str, Any], indent: str) -> str:
            age = obs_heartbeat.beat_age(beat, now)
            phase = beat.get("phase", "?")
            detail = ""
            if beat.get("point_id"):
                elapsed = float(beat.get("point_elapsed", 0.0)) + age
                detail = f" {beat['point_id']} ({_fmt_seconds(elapsed)})"
            # `pid` alone collides across hosts; the full hostname-pid
            # worker id disambiguates in the grouped (multi-host) view.
            label = (
                obs_heartbeat.beat_worker(beat)
                if multi_host
                else f"pid {beat.get('pid')}"
            )
            return (
                f"{indent}{label}: {phase}{detail} · "
                f"{beat.get('done', 0)} done · "
                f"{_fmt_bytes(beat.get('rss_bytes', 0))} · "
                f"beat {age:.1f}s ago"
                + ("  ** STALLED? **" if stale(beat) else "")
            )

        if multi_host:
            lines.append(f"workers ({len(live)} live on {len(by_host)} hosts):")
            for host in sorted(by_host):
                lines.append(f"  {host}:")
                lines.extend(_beat_line(b, "    ") for b in by_host[host])
        else:
            lines.append(f"workers ({len(live)} live):")
            lines.extend(_beat_line(b, "  ") for b in live)
    elif beats:
        lines.append(f"workers: none live ({len(beats)} stopped)")
    elif not status["complete"]:
        lines.append(
            "workers: no samples found "
            "(run predates the telemetry log, or ran with --no-heartbeats)"
        )

    if series:
        last = series[-1]
        extras = []
        if "cache_hits" in last:
            hits = int(last["cache_hits"])
            misses = int(last.get("cache_misses", 0))
            rate = 100.0 * hits / (hits + misses) if hits + misses else 0.0
            extras.append(f"cache {rate:.0f}% hit")
        if last.get("stalls"):
            extras.append(f"{last['stalls']} stall(s)")
        if last.get("stragglers"):
            extras.append(f"{last['stragglers']} straggler(s)")
        health = last.get("health") or {}
        for severity in ("error", "warning"):
            if health.get(severity):
                extras.append(f"{health[severity]} {severity}(s)")
        age = max(now - float(last["time"]), 0.0)
        lines.append(
            f"stream: {len(samples)} sample(s) from {last['workers']} worker(s), "
            f"last {age:.1f}s ago"
            + (" · " + " · ".join(extras) if extras else "")
        )

    summary = status.get("summary")
    if summary is not None:
        lines.append(
            f"finished: {summary.get('done')} ok / {summary.get('failed')} "
            f"failed in {float(summary.get('wall_seconds', 0.0)):.2f} s "
            f"[{summary.get('mode')}]"
        )
    return "\n".join(lines)


def watch(
    store_path: str | Path,
    interval: float = 2.0,
    once: bool = False,
    out=None,
) -> int:
    """Render the dashboard, refreshing in place until complete (or Ctrl-C)."""
    out = sys.stdout if out is None else out
    store = ResultStore.open(store_path)
    log = LogReader(store.path)
    while True:
        frame = render(store, log=log)
        if once:
            print(frame, file=out)
            return 0
        # Clear + home; plain ANSI keeps this stdlib-only.
        out.write("\x1b[2J\x1b[H" + frame + "\n")
        out.flush()
        if "COMPLETE" in frame.splitlines()[0]:
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0
