"""Per-campaign run telemetry: counters, timing, worker cache visibility.

The executor feeds every terminal point record through
:meth:`CampaignTelemetry.record`; the telemetry object aggregates

* progress counters — points done / failed / retried / skipped (resume);
* wall time and summed per-point busy time, giving a worker-utilization
  estimate ``busy / (wall * workers)``;
* per-worker :class:`~repro.core.memo.GridEvalCache` deltas.  The grid
  cache is **per process**: each worker process warms its own cache, so a
  4-worker campaign pays up to 4x the cold-miss cost of a serial run.
  Telemetry surfaces this instead of hiding it — ``worker_caches`` lists
  each worker pid with its hit/miss totals, and ``cache`` aggregates them.

A run of several lease workers builds its telemetry with :meth:`fold`
over the merged records and :meth:`add_worker` over the workers.

A progress callback ``(record, telemetry) -> None`` can be attached to a
run for live reporting; the CLI uses it for its checkpoint lines.  It runs
in the process that finalizes the record: with several lease workers that
is each worker process, called with that worker's own telemetry (mode
``lease-worker``, its own counts), so state it collects stays in that
process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.obs import spans as _obs_spans
from repro.obs.health import max_severity, severity_counts
from repro.obs.registry import ObsRegistry, merge_snapshots

__all__ = ["CampaignTelemetry", "ProgressCallback", "WorkerCacheStats"]

ProgressCallback = Callable[[dict[str, Any], "CampaignTelemetry"], None]

#: Counters a worker keeps about itself rather than about its points; a
#: run of several workers sums them.
WORKER_COUNTERS = (
    "progress_errors",
    "heartbeat_errors",
    "lease_claims",
    "lease_reclaims",
    "lease_duplicates",
    "lease_lost",
)


@dataclass
class WorkerCacheStats:
    """Grid-cache counters accumulated from one worker process."""

    pid: int
    points: int = 0
    busy_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bytes: int = 0  # peak byte-size estimate of this worker's cache
    rss_peak: int = 0  # peak RSS (bytes) seen in this worker's point records

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "points": self.points,
            "busy_seconds": self.busy_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_bytes": self.cache_bytes,
            "rss_peak": self.rss_peak,
            "hit_rate": self.hit_rate,
        }


@dataclass
class CampaignTelemetry:
    """Mutable run counters for one campaign execution."""

    total_points: int
    workers: int = 1
    mode: str = "serial"  # "serial" | "lease" (N local workers) | "lease-worker"
    done: int = 0
    failed: int = 0
    retried: int = 0
    skipped: int = 0  # already complete at resume time
    timeouts: int = 0  # terminal failures whose error was a PointTimeout
    # -- live telemetry (stall/straggler check, emitters; see executor) --------
    stalls: int = 0  # points that ran past the stall threshold
    stragglers: int = 0  # points flagged as elapsed > k * median
    straggler_ids: list[str] = field(default_factory=list)
    progress_errors: int = 0  # progress-callback exceptions (swallowed)
    heartbeat_errors: int = 0  # sampler exceptions (swallowed)
    timeout_degraded: int = 0  # points whose timeout could not be armed
    # -- lease workers (see repro.campaign.lease) ------------------------------
    lease_claims: int = 0  # batch leases this worker claimed
    lease_reclaims: int = 0  # expired leases this worker took over
    lease_duplicates: int = 0  # batches finished after another worker marked done
    lease_lost: int = 0  # own-lease renewals that found the lease taken
    memory_over_budget: int = 0  # points whose peak RSS exceeded the budget
    rss_peak_bytes: int = 0  # worst per-point peak RSS seen across workers
    notes: list[str] = field(default_factory=list)
    _started: float = field(default_factory=time.perf_counter, repr=False)
    _wall: float | None = field(default=None, repr=False)
    _workers_seen: dict[int, WorkerCacheStats] = field(
        default_factory=dict, repr=False
    )
    # Merged per-point observability deltas (None until one arrives).
    _obs: dict[str, Any] | None = field(default=None, repr=False)

    # -- recording ---------------------------------------------------------------

    def record(self, record: Mapping[str, Any]) -> None:
        """Fold one terminal point record into the counters."""
        status = record.get("status")
        if status == "ok":
            self.done += 1
        elif status == "failed":
            self.failed += 1
            if (record.get("error") or {}).get("type") == "PointTimeout":
                self.timeouts += 1
        attempts = int(record.get("attempts", 1))
        if attempts > 1:
            self.retried += attempts - 1
        pid = int(record.get("worker", 0))
        stats = self._workers_seen.setdefault(pid, WorkerCacheStats(pid=pid))
        stats.points += 1
        stats.busy_seconds += float(record.get("elapsed", 0.0))
        cache = record.get("cache") or {}
        stats.cache_hits += int(cache.get("hits", 0))
        stats.cache_misses += int(cache.get("misses", 0))
        stats.cache_bytes = max(stats.cache_bytes, int(cache.get("bytes", 0)))
        mem = record.get("mem") or {}
        if mem:
            peak = int(mem.get("rss_peak", 0))
            stats.rss_peak = max(stats.rss_peak, peak)
            self.rss_peak_bytes = max(self.rss_peak_bytes, peak)
            if mem.get("over_budget"):
                self.memory_over_budget += 1
        if record.get("timeout_degraded"):
            self.timeout_degraded += 1
        obs_delta = record.get("obs")
        if obs_delta:
            self._obs = merge_snapshots(self._obs, obs_delta)

    def fold(
        self,
        records: Iterable[Mapping[str, Any]],
        observe: Callable[[Mapping[str, Any]], None] | None = None,
    ) -> "CampaignTelemetry":
        """Fold terminal records from any number of workers into the counters.

        ``observe`` (the executor's stall/straggler check) sees each record
        before it is folded.
        """
        for record in records:
            if observe is not None:
                observe(record)
            self.record(record)
        return self

    def add_worker(self, worker: "CampaignTelemetry") -> None:
        """Sum one worker's :data:`WORKER_COUNTERS` and notes into this run's."""
        for name in WORKER_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(worker, name))
        self.notes.extend(worker.notes)

    def health_event(
        self,
        name: str,
        value: float,
        threshold: float,
        *,
        severity: str = "warning",
        direction: str = "above",
        message: str = "",
    ) -> None:
        """Fold a coordinator-side health event into the run's obs snapshot.

        Worker events travel inside point-record deltas; events observed
        *about* workers (stalls, stragglers, manifest drift) originate on
        the coordinator and are merged here so ``repro obs health`` sees
        one unified stream.  Like every probe, a no-op while observability
        is disabled.
        """
        if not _obs_spans.enabled():
            return
        registry = ObsRegistry()
        registry.record_event(
            name, severity, float(value), float(threshold), {},
            direction=direction, message=message,
        )
        self._obs = merge_snapshots(self._obs, registry.snapshot())

    def note(self, message: str) -> None:
        """Attach a free-form run note (e.g. serial-fallback reason)."""
        self.notes.append(message)

    def finish(self) -> "CampaignTelemetry":
        """Freeze the wall clock; later reads keep this duration."""
        if self._wall is None:
            self._wall = time.perf_counter() - self._started
        return self

    # -- derived quantities ------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        if self._wall is not None:
            return self._wall
        return time.perf_counter() - self._started

    @property
    def processed(self) -> int:
        return self.done + self.failed

    @property
    def busy_seconds(self) -> float:
        return sum(w.busy_seconds for w in self._workers_seen.values())

    @property
    def utilization(self) -> float:
        """Summed busy time over the worker-seconds the run had available."""
        denom = self.wall_seconds * max(self.workers, 1)
        return self.busy_seconds / denom if denom > 0 else 0.0

    @property
    def cache_hits(self) -> int:
        return sum(w.cache_hits for w in self._workers_seen.values())

    @property
    def cache_misses(self) -> int:
        return sum(w.cache_misses for w in self._workers_seen.values())

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def cache_bytes(self) -> int:
        """Summed per-worker peak cache footprints (byte-size estimate)."""
        return sum(w.cache_bytes for w in self._workers_seen.values())

    @property
    def worker_caches(self) -> list[WorkerCacheStats]:
        """Per-worker cache stats — one cold warm-up per entry."""
        return sorted(self._workers_seen.values(), key=lambda w: w.pid)

    def health_counts(self) -> dict[str, int]:
        """Numerical-health event counts per severity (empty when clean)."""
        return severity_counts(self._obs)

    def obs_snapshot(self) -> dict[str, Any] | None:
        """Merged observability snapshot of the run, or ``None``.

        Present when the run recorded spans (``REPRO_OBS=1`` /
        ``repro.obs.enable()``): every worker's per-point deltas merged,
        plus coordinator-level retry/timeout counters.  This is what the
        store's ``summary`` record carries and what ``repro obs summary``
        reports.
        """
        if self._obs is None:
            return None
        registry = ObsRegistry()
        registry.merge(self._obs)
        registry.add("campaign.points_processed", float(self.processed), {})
        if self.retried:
            registry.add("campaign.retries", float(self.retried), {})
        if self.timeouts:
            registry.add("campaign.timeouts", float(self.timeouts), {})
        if self.stalls:
            registry.add("campaign.stalls", float(self.stalls), {})
        if self.stragglers:
            registry.add("campaign.stragglers", float(self.stragglers), {})
        if self.timeout_degraded:
            registry.add(
                "campaign.timeout_unavailable", float(self.timeout_degraded), {}
            )
        if self.progress_errors:
            registry.add(
                "campaign.progress_errors", float(self.progress_errors), {}
            )
        return registry.snapshot()

    # -- reporting ---------------------------------------------------------------

    def sample(self) -> dict[str, Any]:
        """This worker's cumulative progress counters, for its telemetry log."""
        out: dict[str, Any] = {
            "total": self.total_points,
            "done": self.done,
            "failed": self.failed,
            "retried": self.retried,
            "skipped": self.skipped,
            "wall_seconds": self.wall_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "stalls": self.stalls,
            "stragglers": self.stragglers,
            "lease_claims": self.lease_claims,
            "lease_reclaims": self.lease_reclaims,
        }
        counts = self.health_counts()
        if counts:
            out["health"] = counts
        return out

    def to_dict(self) -> dict[str, Any]:
        """Picklable/JSON-able snapshot of every counter."""
        out = {
            "total_points": self.total_points,
            "workers": self.workers,
            "mode": self.mode,
            "done": self.done,
            "failed": self.failed,
            "retried": self.retried,
            "skipped": self.skipped,
            "timeouts": self.timeouts,
            "wall_seconds": self.wall_seconds,
            "busy_seconds": self.busy_seconds,
            "utilization": self.utilization,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": self.cache_hit_rate,
                "bytes": self.cache_bytes,
                "worker_processes": len(self._workers_seen),
            },
            "worker_caches": [w.to_dict() for w in self.worker_caches],
            "live": {
                "stalls": self.stalls,
                "stragglers": self.stragglers,
                "straggler_ids": list(self.straggler_ids),
                "progress_errors": self.progress_errors,
                "heartbeat_errors": self.heartbeat_errors,
                "timeout_degraded": self.timeout_degraded,
            },
            "lease": {
                "claims": self.lease_claims,
                "reclaims": self.lease_reclaims,
                "duplicates": self.lease_duplicates,
                "lost": self.lease_lost,
            },
            "memory": {
                "rss_peak_bytes": self.rss_peak_bytes,
                "over_budget": self.memory_over_budget,
            },
            "notes": list(self.notes),
        }
        obs_snapshot = self.obs_snapshot()
        if obs_snapshot is not None:
            out["obs"] = obs_snapshot
            counts = self.health_counts()
            if counts:
                out["health"] = {
                    "counts": counts,
                    "max_severity": max_severity(self._obs),
                }
        return out

    def summary(self) -> str:
        """Human-readable one-paragraph run report."""
        lines = [
            f"campaign: {self.processed}/{self.total_points} points "
            f"({self.done} ok, {self.failed} failed, {self.retried} retries, "
            f"{self.skipped} skipped) in {self.wall_seconds:.2f} s "
            f"[{self.mode}, {self.workers} worker(s), "
            f"{100 * self.utilization:.0f}% utilization]",
            f"grid cache: {self.cache_hits} hits / {self.cache_misses} misses "
            f"({100 * self.cache_hit_rate:.0f}% hit rate, "
            f"~{self.cache_bytes / 1e6:.1f} MB) across "
            f"{len(self._workers_seen)} worker process(es)"
            + (
                " — each worker process warms its own cache"
                if len(self._workers_seen) > 1
                else ""
            ),
        ]
        if self.stalls or self.stragglers:
            live_parts = []
            if self.stalls:
                live_parts.append(f"{self.stalls} stall(s)")
            if self.stragglers:
                ids = ", ".join(self.straggler_ids[:4])
                extra = "..." if len(self.straggler_ids) > 4 else ""
                live_parts.append(f"{self.stragglers} straggler(s) [{ids}{extra}]")
            lines.append("live: " + ", ".join(live_parts))
        if self.lease_claims or self.lease_reclaims:
            lines.append(
                f"leases: {self.lease_claims} claimed, "
                f"{self.lease_reclaims} reclaimed, "
                f"{self.lease_duplicates} duplicate batch(es), "
                f"{self.lease_lost} lost renewal(s)"
            )
        if self.memory_over_budget:
            lines.append(
                f"memory: {self.memory_over_budget} point(s) over budget "
                f"(peak RSS {self.rss_peak_bytes / 1e6:.0f} MB)"
            )
        counts = self.health_counts()
        if counts.get("warning") or counts.get("error"):
            parts = [
                f"{counts[sev]} {sev}(s)"
                for sev in ("error", "warning")
                if counts.get(sev)
            ]
            lines.append(
                f"health: {', '.join(parts)} — inspect with `repro obs health <store>`"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)
