"""Fault-tolerant campaign execution: retries, timeouts, local lease workers.

The executor turns a :class:`~repro.campaign.spec.CampaignSpec` into a
stream of terminal point records.  Guarantees:

* **One bad point cannot kill a map.**  Task exceptions are captured into
  a ``failed`` record (type, message, traceback) after bounded retries
  with linear backoff; a singular closed-loop solve at one grid cell
  leaves the other 9 999 cells intact.
* **Per-point timeout.**  On Unix the task runs under ``SIGALRM``
  (``signal.setitimer``) in the computing process's main thread, so a
  hung bisection is interrupted *in place* and the process survives to
  take the next point.  The timeout exception derives from
  ``BaseException`` so broad ``except Exception`` blocks inside adapters
  cannot swallow it.
* **Serial oracle, lease workers.**  ``workers <= 1`` runs every point in
  the calling process.  ``workers = N`` runs N lease workers
  (:mod:`repro.campaign.lease`) on this host: the caller freezes the
  plan, forks N - 1 helpers and computes as worker 0.  Both paths run the
  same per-point function, and fork copies the task rather than
  pickling it, so records are bitwise identical and closures run in
  parallel too.  Other hosts can join with ``repro campaign worker``;
  without fork the run is serial, with a telemetry note.
* **Crash-safe resume.**  With a result store attached, every terminal
  record is appended (flushed) before the next point is scheduled;
  :func:`resume_campaign` skips any point whose record made it to disk.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import statistics
import tempfile
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro._errors import ValidationError
from repro.campaign import lease
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore, shard_dir
from repro.campaign.tasks import TaskAdapter, get_task, registered_name
from repro.campaign.telemetry import CampaignTelemetry, ProgressCallback
from repro.obs import heartbeat as obs_heartbeat
from repro.obs import manifest as obs_manifest
from repro.obs import profile as obs_profile
from repro.obs import resources as obs_resources
from repro.obs import spans as obs
from repro.obs import trace as obs_trace

__all__ = [
    "CampaignResult",
    "ExecutionPolicy",
    "PointTimeout",
    "campaign_status",
    "resume_campaign",
    "run_campaign",
]

#: Idle poll of the local lease workers: they leave as soon as the last
#: batch lands instead of sleeping out the multi-host default.
_LOCAL_POLL = 0.05


class PointTimeout(BaseException):
    """A point exceeded its per-point timeout.

    Derives from :class:`BaseException` so NaN-tolerant adapters that
    catch ``Exception`` around individual metrics cannot absorb it.
    """


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a campaign is executed.

    Attributes
    ----------
    workers:
        Process count: ``<= 1`` runs serially in the calling process,
        ``N > 1`` runs N lease workers on this host.
    batch_size:
        Points per lease batch; ``0`` (default) picks an automatic size
        aiming for ~4 batches per worker, capped at 16.  The serial path
        ignores it.
    timeout:
        Per-point wall-clock limit in seconds (``None`` = unlimited).
    retries:
        Extra attempts after a failure (0 = fail on first error).
    backoff:
        Linear backoff: sleep ``backoff * attempt`` seconds before retry.
    checkpoint_every:
        Terminal records between fsynced store checkpoints.
    heartbeat_interval:
        Seconds between the samples each worker appends to its telemetry
        log (``None`` disables the sampler and the stall/straggler check;
        requires a store).
    stall_factor:
        A point *stalled* its worker when it ran longer than
        ``stall_factor * heartbeat_interval``.
    straggler_factor:
        A point is a *straggler* when its elapsed exceeds
        ``straggler_factor`` times the median of completed points (with at
        least 3 samples, and never under one heartbeat interval).
    memory_budget_mb:
        Per-point peak-RSS budget; points above it are flagged
        ``over_budget`` with a ``campaign.memory_budget`` health event.
    lease_ttl:
        Lease time-to-live in seconds.  A worker renews its batch lease
        every ``lease_ttl / 3``; a lease older than this is considered
        abandoned and reclaimed by another worker (on the owner's host a
        dead owner's lease is reclaimed at once).
    profile:
        Run the statistical sampling profiler (:mod:`repro.obs.profile`)
        for the duration of the campaign, in every worker.  With a store
        attached each process appends its profile deltas to its telemetry
        log, ``<store>.trace/<worker>.jsonl`` (merge with ``repro obs
        profile STORE``).  ``REPRO_OBS=profile`` in the environment
        requests the same thing.
    """

    workers: int = 1
    batch_size: int = 0
    timeout: float | None = None
    retries: int = 0
    backoff: float = 0.0
    checkpoint_every: int = 25
    heartbeat_interval: float | None = 5.0
    stall_factor: float = 3.0
    straggler_factor: float = 4.0
    memory_budget_mb: float | None = None
    lease_ttl: float = 30.0
    profile: bool = False

    def __post_init__(self):
        if self.lease_ttl <= 0:
            raise ValidationError("lease_ttl must be positive")
        if self.batch_size < 0:
            raise ValidationError("batch_size must be >= 0 (0 = auto)")
        if self.retries < 0:
            raise ValidationError("retries must be >= 0")
        if self.backoff < 0:
            raise ValidationError("backoff must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValidationError("timeout must be positive (or None)")
        if self.checkpoint_every < 1:
            raise ValidationError("checkpoint_every must be >= 1")
        if self.heartbeat_interval is not None and self.heartbeat_interval <= 0:
            raise ValidationError("heartbeat_interval must be positive (or None)")
        if self.stall_factor < 1:
            raise ValidationError("stall_factor must be >= 1")
        if self.straggler_factor <= 1:
            raise ValidationError("straggler_factor must be > 1")
        if self.memory_budget_mb is not None and self.memory_budget_mb <= 0:
            raise ValidationError("memory_budget_mb must be positive (or None)")


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one (possibly resumed) campaign execution."""

    spec: CampaignSpec
    records: tuple[dict[str, Any], ...]  # spec enumeration order
    telemetry: CampaignTelemetry
    store_path: Path | None = None

    @property
    def ok_records(self) -> list[dict[str, Any]]:
        return [r for r in self.records if r["status"] == "ok"]

    @property
    def failed_records(self) -> list[dict[str, Any]]:
        return [r for r in self.records if r["status"] == "failed"]

    def metric(self, name: str) -> np.ndarray:
        """One metric across all points in spec order (NaN where failed)."""
        out = np.full(len(self.records), np.nan)
        for i, record in enumerate(self.records):
            metrics = record.get("metrics") or {}
            if name in metrics:
                out[i] = float(metrics[name])
        return out

    def parameter(self, name: str) -> np.ndarray:
        """One parameter across all points in spec order."""
        return np.array(
            [float(r["params"][name]) for r in self.records], dtype=float
        )


# -- per-point execution (runs in workers and in the serial path) ------------------


def _alarm_guard(timeout: float | None):
    """Context manager arming SIGALRM for one point, when possible.

    Signals only work in a process's main thread and on platforms with
    ``SIGALRM``; elsewhere the timeout degrades to "no limit".  The
    degradation is *visible*: the guard's ``degraded`` flag makes
    :func:`_run_point` emit a ``campaign.timeout_unavailable`` counter and
    a warning health event, and mark the record ``timeout_degraded``.
    """

    class _Guard:
        degraded = False

        def __enter__(self):
            self.armed = (
                timeout is not None
                and hasattr(signal, "SIGALRM")
                and threading.current_thread() is threading.main_thread()
            )
            self.degraded = timeout is not None and not self.armed
            if self.armed:
                def _raise(signum, frame):
                    raise PointTimeout(
                        f"point exceeded the {timeout:g} s per-point timeout"
                    )

                self.previous = signal.signal(signal.SIGALRM, _raise)
                signal.setitimer(signal.ITIMER_REAL, timeout)
            return self

        def __exit__(self, *exc):
            if self.armed:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, self.previous)
            return False

    return _Guard()


def _resolve_task(task: str | TaskAdapter) -> TaskAdapter:
    return get_task(task) if isinstance(task, str) else task


def _task_label(task: str | TaskAdapter) -> str:
    """Stable span tag for a task: registry name, else callable name."""
    if isinstance(task, str):
        return task
    return (
        registered_name(task)
        or getattr(task, "__name__", None)
        or type(task).__name__
    )


def _run_point(
    task: str | TaskAdapter,
    pid: str,
    params: Mapping[str, Any],
    timeout: float | None,
    attempt: int,
) -> dict[str, Any]:
    """Execute one point and build its record (never raises)."""
    from repro.core import memo

    before = memo.cache_snapshot()
    # Per-point observability delta, mirroring the cache-delta pattern:
    # snapshot before/after and ship only the difference (picklable).
    obs_before = obs.snapshot() if obs.enabled() else None
    obs_heartbeat.point_started(pid)
    mem_state = obs_resources.point_probe_begin()
    started = time.perf_counter()
    record: dict[str, Any] = {
        "kind": "point",
        "id": pid,
        "params": dict(params),
        "attempts": attempt,
        "worker": os.getpid(),
    }
    guard = _alarm_guard(timeout)
    with obs.span("campaign.point", task=_task_label(task)) as point_span:
        try:
            fn = _resolve_task(task)
            with guard:
                metrics = fn(dict(params))
            if not isinstance(metrics, Mapping):
                raise ValidationError(
                    f"task must return a metric mapping, got {type(metrics).__name__}"
                )
            record["status"] = "ok"
            record["metrics"] = {str(k): float(v) for k, v in metrics.items()}
        except (Exception, PointTimeout) as exc:
            record["status"] = "failed"
            record["error"] = {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(limit=20),
            }
        point_span.tag(status=record["status"])
    record["elapsed"] = time.perf_counter() - started
    record["mem"] = obs_resources.point_probe_end(mem_state)
    obs_heartbeat.point_finished()
    campaign_ctx = obs_trace.campaign_context()
    if campaign_ctx is not None:
        # Child span per point: the record joins the request's trace, and a
        # span event (absolute wall clock) lands in this worker's shard.
        point_ctx = campaign_ctx.child()
        record["trace"] = point_ctx.to_dict()
        wall_end = time.time()
        obs_trace.record_event(
            "campaign.point",
            point_ctx,
            wall_end - record["elapsed"],
            wall_end,
            point=pid,
            status=record["status"],
        )
    if guard.degraded:
        record["timeout_degraded"] = True
        obs.add("campaign.timeout_unavailable")
        obs.health_event(
            "campaign.timeout_unavailable",
            float(timeout or 0.0),
            0.0,
            severity="warning",
            message=(
                "per-point timeout could not be armed (no SIGALRM or not "
                "the main thread); the point ran with no limit"
            ),
        )
    after = memo.cache_snapshot()
    record["cache"] = {
        "hits": after["hits"] - before["hits"],
        "misses": after["misses"] - before["misses"],
        # Absolute worker-cache footprint estimate at record time (gauge).
        "bytes": int(after.get("bytes", 0)),
    }
    if obs_before is not None:
        record["obs"] = obs.delta(obs_before)
    return record


def _auto_batch_size(pending: int, workers: int) -> int:
    """Default points per lease batch: amortize leases without starving workers.

    Aims for roughly four batches per worker over the pending set, so
    retries and stragglers can still interleave with fresh work, capped
    at 16 points so one slow batch never wedges a worker for long.
    """
    return max(1, min(16, pending // max(workers, 1) // 4))


# -- stall / straggler check -------------------------------------------------------


class _LivenessMonitor:
    """Stall/straggler classification of each terminal point record.

    A point *stalled* its worker when it ran longer than ``stall_factor *
    heartbeat_interval``; it is a *straggler* when it ran longer than
    ``straggler_factor`` x the median of the ok points before it (>= 3
    samples, floored at one heartbeat interval so microsecond jitter on
    fast maps never flags).  Each is counted, noted (stalls) and emitted as
    a health event (``campaign.worker_stalled`` / ``campaign.point_straggler``).
    A worker that goes silent is not judged here: ``repro campaign watch``
    marks its heartbeat, and its lease is reclaimed.
    """

    def __init__(self, policy: ExecutionPolicy, telemetry: CampaignTelemetry):
        self.telemetry = telemetry
        self.interval = float(policy.heartbeat_interval or 5.0)
        self.stall_after = float(policy.stall_factor) * self.interval
        self.straggler_factor = float(policy.straggler_factor)
        self._elapsed: list[float] = []

    def observe_record(self, record: Mapping[str, Any]) -> None:
        """Classify a terminal record, then fold it into the median."""
        telemetry = self.telemetry
        point_id = str(record["id"])
        elapsed = float(record.get("elapsed", 0.0))
        if elapsed > self.stall_after:
            reason = (
                f"worker {int(record.get('worker', 0))} point {point_id} ran "
                f"{elapsed:.1f} s (stall threshold {self.stall_after:.1f} s)"
            )
            telemetry.stalls += 1
            telemetry.note(f"stall: {reason}")
            telemetry.health_event(
                "campaign.worker_stalled",
                elapsed,
                self.stall_after,
                severity="warning",
                message=reason,
            )
        if len(self._elapsed) >= 3:
            median = statistics.median(self._elapsed)
            if elapsed > self.straggler_factor * median and elapsed >= self.interval:
                telemetry.stragglers += 1
                telemetry.straggler_ids.append(point_id)
                telemetry.health_event(
                    "campaign.point_straggler",
                    elapsed,
                    self.straggler_factor * median,
                    severity="info",
                    message=(
                        f"point {point_id} at {elapsed:.2f} s vs "
                        f"{median:.2f} s median"
                    ),
                )
        if record.get("status") == "ok":
            self._elapsed.append(elapsed)


# -- coordinator -------------------------------------------------------------------


class _Coordinator:
    """Drives pending points through retries to terminal records."""

    def __init__(
        self,
        task: str | TaskAdapter,
        policy: ExecutionPolicy,
        telemetry: CampaignTelemetry,
        store: ResultStore | None,
        progress: ProgressCallback | None,
        monitor: "_LivenessMonitor | None" = None,
    ):
        self.task = task
        self.policy = policy
        self.telemetry = telemetry
        self.store = store
        self.progress = progress
        self.monitor = monitor
        self.finalized: dict[str, dict[str, Any]] = {}
        self._since_checkpoint = 0

    # one queue entry: (index, point_id, params, attempt)

    def _finalize(self, record: dict[str, Any]) -> None:
        self.finalized[record["id"]] = record
        if self.monitor is not None:
            self.monitor.observe_record(record)
        self.telemetry.record(record)
        if self.store is not None:
            self.store.append_point(record)
            self._since_checkpoint += 1
            if self._since_checkpoint >= self.policy.checkpoint_every:
                self._checkpoint()
        if self.progress is not None:
            # A broken reporter must never kill the run it reports on.
            try:
                self.progress(record, self.telemetry)
            except Exception as exc:
                self.telemetry.progress_errors += 1
                if self.telemetry.progress_errors == 1:
                    self.telemetry.note(
                        f"progress callback raised {type(exc).__name__}: {exc} "
                        "(suppressed; further errors counted only)"
                    )

    def _checkpoint(self) -> None:
        if self.store is not None and self._since_checkpoint:
            self.store.append_checkpoint(
                {
                    "done": self.telemetry.done,
                    "failed": self.telemetry.failed,
                    "elapsed": self.telemetry.wall_seconds,
                }
            )
            self._since_checkpoint = 0

    def _should_retry(self, record: dict[str, Any], attempt: int) -> bool:
        return record["status"] == "failed" and attempt <= self.policy.retries

    def _backoff(self, attempt: int) -> None:
        if self.policy.backoff > 0:
            time.sleep(self.policy.backoff * attempt)

    # -- the per-point loop ---------------------------------------------------------

    def run_serial(self, queue: "deque[tuple[int, str, dict, int]]") -> None:
        """Run queued points one by one to terminal records.

        The serial path runs its whole pending queue here; a lease worker
        runs each claimed batch's entries.
        """
        while queue:
            index, pid, params, attempt = queue.popleft()
            record = _run_point(
                self.task, pid, params, self.policy.timeout, attempt
            )
            if self._should_retry(record, attempt):
                self._backoff(attempt)
                queue.appendleft((index, pid, params, attempt + 1))
                continue
            self._finalize(record)
        self._checkpoint()


def _fork_context():
    """The ``fork`` multiprocessing context, or ``None`` where it is missing."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


class _Observers:
    """One run's observers in this process, started on construction: the
    campaign trace context and its span sink, the sampler, memory probes
    and the sampling profiler.  Everything they record goes to this
    worker's telemetry log, ``<store>.trace/<worker>.jsonl``.

    A span sink or profiler already set up (a serve process logging or
    profiling itself while a spilled campaign runs inline) is left alone
    and simply sees the run's events too; the run's samples still go to
    its store's log.
    """

    def __init__(
        self,
        store_path: Path | None,
        policy: ExecutionPolicy,
        telemetry: CampaignTelemetry,
        *,
        trace: obs_trace.TraceContext | None,
        worker: str | None = None,
    ):
        self.telemetry = telemetry
        self.trace = trace
        self._prev_ctx = obs_trace.campaign_context()
        self._own_sink = self._own_profiler = self._own_profile_sink = False
        log = obs_trace.log_path(store_path, worker) if store_path is not None else None
        if trace is not None:
            obs_trace.set_campaign(trace)
            if log is not None and obs.enabled() and not obs_trace.sink_configured():
                obs_trace.configure_sink(log, worker=worker)
                self._own_sink = True
        obs_resources.configure(policy.memory_budget_mb)
        obs_resources.ensure_tracemalloc()
        if (policy.profile or obs_profile.profile_requested()) and obs_profile.active() is None:
            obs_profile.start()
            self._own_profiler = True
            if log is not None and not obs_profile.sink_configured():
                obs_profile.configure_sink(log)
                self._own_profile_sink = True
        self._sampler: obs_heartbeat.Sampler | None = None
        if log is not None and policy.heartbeat_interval is not None:
            trace_id = trace.trace_id if trace is not None else None

            def fields() -> dict[str, Any]:
                out = telemetry.sample()
                if trace_id is not None:
                    out["trace_id"] = trace_id
                return out

            self._sampler = obs_heartbeat.Sampler(
                log, fields, policy.heartbeat_interval, worker
            )
            self._sampler.start()

    def close(self) -> None:
        """Stop them all; the sampler's swallowed errors go to the telemetry."""
        if self._sampler is not None:
            self.telemetry.heartbeat_errors += self._sampler.stop()
        if self._own_profiler:
            obs_profile.stop()  # flushes the final delta when a sink is set
            if self._own_profile_sink:
                obs_profile.close_sink()
        if self.trace is not None:
            obs_trace.set_campaign(self._prev_ctx)
            if self._own_sink:
                obs_trace.close_sink()


def _run_serial(
    spec: CampaignSpec,
    store: ResultStore | None,
    policy: ExecutionPolicy,
    progress: ProgressCallback | None,
    telemetry: CampaignTelemetry,
    pending: "deque[tuple[int, str, dict, int]]",
    *,
    resumed: bool,
    trace: obs_trace.TraceContext | None,
) -> dict[str, dict[str, Any]]:
    """Every pending point in the calling process; returns their records."""
    telemetry.mode = "serial"
    telemetry.workers = 1
    monitor = (
        _LivenessMonitor(policy, telemetry)
        if store is not None and policy.heartbeat_interval is not None
        else None
    )
    coordinator = _Coordinator(
        spec.task, policy, telemetry, store, progress, monitor
    )
    observers = _Observers(
        store.path if store is not None else None, policy, telemetry, trace=trace
    )
    run_start = time.time()
    try:
        coordinator.run_serial(pending)
    finally:
        if trace is not None:
            obs_trace.record_event(
                "campaign.run",
                trace,
                run_start,
                time.time(),
                points=telemetry.total_points,
                resumed=resumed,
            )
        observers.close()

    telemetry.finish()
    if store is not None:
        store.append_summary(telemetry.to_dict())
        store.close()
    return coordinator.finalized


def _lease_helper(sender, store_path: Path, worker_kwargs: dict[str, Any]) -> None:
    """Body of a forked lease worker; sends its telemetry back when done."""
    sender.send(lease.run_worker(store_path, **worker_kwargs).telemetry)


def _run_leased(
    context,
    spec: CampaignSpec,
    store: ResultStore,
    policy: ExecutionPolicy,
    progress: ProgressCallback | None,
    telemetry: CampaignTelemetry,
    pending: "deque[tuple[int, str, dict, int]]",
    *,
    resumed: bool,
    retry_failed: bool,
    trace: obs_trace.TraceContext | None,
) -> dict[str, dict[str, Any]]:
    """``policy.workers`` lease workers on this host; returns the merged records.

    The calling process freezes the plan, forks the helpers before it
    opens its own shard or starts a thread, runs worker 0 itself, waits
    for the helpers, and folds this run's records into ``telemetry``.
    Its workers stay out of the finalize election: the caller holds it
    and writes ``telemetry`` as the run's summary, so the store keeps the
    stall, straggler and manifest events only the caller sees.
    """
    telemetry.mode = "lease"
    telemetry.workers = policy.workers
    ldir = lease.lease_dir(store.path)
    plan = lease.ensure_plan(
        ldir,
        spec,
        policy.batch_size or _auto_batch_size(len(pending), policy.workers),
        trace=trace,
    )
    if resumed:
        todo = {pid for _index, pid, _params, _attempt in pending}
        lease.reopen(
            ldir,
            [b["id"] for b in plan["batches"] if todo.intersection(b["points"])],
        )
    store.close()
    worker_kwargs = dict(
        policy=policy,
        spec=spec,
        progress=progress,
        trace=trace,
        retry_failed=retry_failed,
        poll_interval=_LOCAL_POLL,
        finalize=False,
    )
    helpers = []
    for _ in range(policy.workers - 1):
        receiver, sender = context.Pipe(duplex=False)
        helper = context.Process(
            target=_lease_helper,
            args=(sender, store.path, worker_kwargs),
            name="repro-lease-worker",
        )
        helper.start()
        sender.close()
        helpers.append((helper, receiver))
    try:
        report = lease.run_worker(store.path, **worker_kwargs)
        telemetry.add_worker(report.telemetry)
    except BaseException:
        for helper, _receiver in helpers:
            helper.terminate()
        raise
    finally:
        for helper, receiver in helpers:
            try:
                telemetry.add_worker(receiver.recv())
            except EOFError:
                pass  # died before reporting; its exit code says how
            helper.join()
            if helper.exitcode:
                telemetry.note(
                    f"lease worker {helper.pid} exited with code {helper.exitcode}"
                )

    merged = {r["id"]: r for r in store.merged_point_records()}
    monitor = (
        _LivenessMonitor(policy, telemetry)
        if policy.heartbeat_interval is not None
        else None
    )
    telemetry.fold(
        (merged[pid] for _index, pid, _params, _attempt in pending if pid in merged),
        observe=monitor.observe_record if monitor is not None else None,
    )
    telemetry.finish()
    if report.complete and lease.try_finalize(ldir, report.worker):
        lease.write_summary(store, report.worker, telemetry)
    return merged


def _execute(
    spec: CampaignSpec,
    store: ResultStore | None,
    policy: ExecutionPolicy,
    progress: ProgressCallback | None,
    completed: Mapping[str, dict[str, Any]],
    *,
    resumed: bool = False,
    retry_failed: bool = False,
    trace: obs_trace.TraceContext | None = None,
) -> CampaignResult:
    all_points = list(spec.points())
    pending = deque(
        (index, pid, params, 1)
        for index, (pid, params) in enumerate(all_points)
        if pid not in completed
    )
    telemetry = CampaignTelemetry(
        total_points=len(all_points),
        skipped=len(all_points) - len(pending),
    )

    # Distributed trace context: explicit (a serve job spill), inherited
    # from the store manifest (resume, lease workers), or minted fresh when
    # observability is on — so every record/sample/health event this
    # run produces is tagged with one trace_id.
    trace_ctx = trace
    if trace_ctx is None and store is not None:
        existing = obs_manifest.load_manifest(
            obs_manifest.manifest_path(store.path)
        )
        if existing is not None:
            trace_ctx = obs_trace.TraceContext.from_dict(existing.get("trace"))
    if trace_ctx is None and obs.enabled():
        trace_ctx = obs_trace.new_context()

    # Run manifest: written on every run/resume, checked against the
    # previous manifest on resume (drift -> notes + warning health events).
    if store is not None:
        mpath = obs_manifest.manifest_path(store.path)
        current = obs_manifest.build_manifest(spec, policy)
        previous = obs_manifest.load_manifest(mpath) if resumed else None
        if previous is not None:
            for mismatch in obs_manifest.check_manifest(previous, current):
                telemetry.note(f"manifest mismatch on resume — {mismatch}")
                telemetry.health_event(
                    "campaign.manifest_mismatch",
                    1.0,
                    0.0,
                    severity="warning",
                    message=mismatch,
                )
            current["created"] = previous.get("created", current["created"])
            current["runs"] = int(previous.get("runs", 0)) + 1
        if trace_ctx is not None:
            current["trace"] = trace_ctx.to_dict()
        obs_manifest.write_manifest(mpath, current)

    context = _fork_context() if policy.workers > 1 else None
    if policy.workers > 1 and context is None:
        telemetry.note("fork is unavailable on this platform; ran serially")
    if context is not None and store is not None:
        records = _run_leased(
            context, spec, store, policy, progress, telemetry, pending,
            resumed=resumed, retry_failed=retry_failed, trace=trace_ctx,
        )
    else:
        records = _run_serial(
            spec, store, policy, progress, telemetry, pending,
            resumed=resumed, trace=trace_ctx,
        )

    ordered = []
    for pid, _params in all_points:
        record = records.get(pid) or completed.get(pid)
        if record is not None:
            ordered.append(record)
    return CampaignResult(
        spec=spec,
        records=tuple(ordered),
        telemetry=telemetry,
        store_path=store.path if store is not None else None,
    )


# -- public entry points -----------------------------------------------------------


def _make_policy(
    policy: ExecutionPolicy | None, overrides: Mapping[str, Any]
) -> ExecutionPolicy:
    base = policy if policy is not None else ExecutionPolicy()
    return replace(base, **dict(overrides)) if overrides else base


def run_campaign(
    spec: CampaignSpec,
    store_path: str | Path | None = None,
    *,
    policy: ExecutionPolicy | None = None,
    progress: ProgressCallback | None = None,
    overwrite: bool = False,
    trace: obs_trace.TraceContext | None = None,
    **policy_overrides: Any,
) -> CampaignResult:
    """Run every point of ``spec``; optionally persist to a JSONL store.

    ``policy_overrides`` (``workers=``, ``timeout=``, ``retries=``, ...)
    are shorthand for building an :class:`ExecutionPolicy`.  With a store,
    each worker appends a sample per ``heartbeat_interval`` to its
    telemetry log under ``<store>.trace/``.  ``trace=`` threads an upstream
    distributed trace context (e.g. the serve request that spilled this
    campaign) into the manifest and every record; with observability
    enabled a fresh context is minted when none is given.

    Lease workers share their records through a store: with
    ``workers > 1`` and no ``store_path`` the run uses a private temporary
    one, removed once the records are read back.  ``progress`` then runs
    in each worker process, called with that worker's own telemetry and
    counts; the returned telemetry folds every worker's records.
    """
    policy = _make_policy(policy, policy_overrides)
    if store_path is None and policy.workers > 1 and _fork_context() is not None:
        with tempfile.TemporaryDirectory(prefix="repro-campaign-") as scratch:
            result = run_campaign(
                spec,
                Path(scratch) / "campaign.jsonl",
                policy=policy,
                progress=progress,
                trace=trace,
            )
        return replace(result, store_path=None)
    store = None
    if store_path is not None:
        store = ResultStore.create(store_path, spec, overwrite=overwrite)
        # A fresh store starts without the shards, leases and telemetry
        # logs of an old run.
        for sidecar in (
            shard_dir(store.path),
            lease.lease_dir(store.path),
            obs_trace.trace_dir(store.path),
        ):
            shutil.rmtree(sidecar, ignore_errors=True)
    return _execute(
        spec,
        store,
        policy,
        progress,
        completed={},
        trace=trace,
    )


def resume_campaign(
    store_path: str | Path,
    *,
    task: str | TaskAdapter | None = None,
    spec: CampaignSpec | None = None,
    policy: ExecutionPolicy | None = None,
    progress: ProgressCallback | None = None,
    retry_failed: bool = False,
    trace: obs_trace.TraceContext | None = None,
    **policy_overrides: Any,
) -> CampaignResult:
    """Complete a partially-run campaign, skipping finished points.

    The spec is rebuilt from the store header (registry-named tasks); a
    campaign run with a raw callable needs ``task=`` (and ``spec=`` if the
    header could not serialize the space).  ``retry_failed=True`` re-runs
    points whose terminal status was ``failed``.
    """
    policy = _make_policy(policy, policy_overrides)
    store = ResultStore.open(store_path)
    if spec is None:
        spec = store.spec(task)
    elif task is not None:
        spec = CampaignSpec.create(
            name=spec.name, space=spec.space, task=task,
            defaults=dict(spec.defaults),
        )
    completed_records = {
        r["id"]: r
        for r in store.merged_point_records()
        if r["status"] == "ok" or (not retry_failed and r["status"] == "failed")
    }
    return _execute(
        spec,
        store,
        policy,
        progress,
        completed=completed_records,
        resumed=True,
        retry_failed=retry_failed,
        trace=trace,
    )


def campaign_status(store_path: str | Path) -> dict[str, Any]:
    """Progress snapshot of a result store (see :meth:`ResultStore.status`).

    When the run wrote a manifest (``<store>.manifest.json``) it is
    attached under ``"manifest"``.  Counts merge worker shard stores when
    any exist (lease-worker campaigns).
    """
    status = ResultStore.open(store_path).merged_status()
    manifest = obs_manifest.load_manifest(obs_manifest.manifest_path(store_path))
    if manifest is not None:
        status["manifest"] = manifest
    return status
