"""Shared-filesystem lease protocol: elastic multi-host campaign workers.

The durability substrate built in PRs 2–5 — append-only JSONL stores,
deterministic blake2b point ids, worker heartbeats, run manifests, and
first-terminal-record-wins dedup — already forms a coordination-light
work-stealing base.  This module adds the missing piece: a *lease*
protocol over a shared filesystem (NFS, a bind-mounted volume, or just
``/tmp`` for same-host workers), so independently launched worker
processes can join a campaign, steal abandoned work, and leave at any
time, with no coordinator process and no network protocol.

Layout (everything lives next to the store, like the telemetry logs)::

    <store>                      # header + summary (never point records)
    <store>.shards/<worker>.jsonl   # one single-writer record shard per worker
    <store>.leases/plan.json        # frozen batch partition of the point set
    <store>.leases/<batch>.lease    # live claim on one batch
    <store>.leases/<batch>.done     # terminal marker: batch fully recorded
    <store>.leases/campaign.finalized  # summary-writer election marker

Protocol invariants
-------------------
* **Batches are deterministic.**  Points are partitioned in spec order
  into fixed batches; a batch's id is the blake2b hash of its point ids.
  The partition is frozen into ``plan.json`` by whichever worker gets
  there first (atomic ``O_CREAT|O_EXCL``), so workers launched with
  different flags agree on the work units.
* **Claims are atomic.**  A lease is claimed by exclusive file creation —
  the one filesystem primitive that is atomic essentially everywhere.
  Exactly one concurrent claimer wins.
* **Leases expire.**  A lease carries its owner's worker id and host and
  a timestamp renewed every ``ttl/3`` by a daemon thread.  A lease older
  than its ttl means the owner died (SIGKILL, host loss) or wedged; any
  worker may then *reclaim* it.  On the owner's host a dead owner is seen
  at once: every worker holds an exclusive ``flock`` on its shard for its
  whole life, which the kernel drops when the process dies (a pid check
  cannot tell: a killed, unreaped child still answers ``kill(pid, 0)``).
  Locks are not trusted across hosts.  Reclaim is made exactly-once by
  renaming the lease file to a reclaimer-private name first: only one
  rename can succeed, and a renewal racing the rename simply recreates
  the owner's lease (the reclaimer re-reads what it renamed, sees it was
  fresh after all, and backs off).
* **Records dedup, not leases.**  Losing a lease race costs wasted work,
  never correctness: every point record lands in the worker's private
  shard, and readers merge shards with first-``ok``-wins semantics
  (:meth:`~repro.campaign.store.ResultStore.merged_point_records`).  A
  reclaimer re-reads the merged record set *after* claiming, so points
  the dead worker already recorded are not recomputed.
* **One summary writer per run.**  When the merged record set covers every
  point, workers race to create the ``campaign.finalized`` marker; the
  single winner appends the summary line to the main store.  The main
  store therefore has one writer at a time — the creator (header), then
  the finalize winner (summary).  A caller running several local workers
  (``run_campaign(..., workers=N)``) keeps them out of the election and
  holds it itself once they have all returned, so its summary folds every
  worker's records.  A resume starts a new run with :func:`reopen`, which
  withdraws the marker (and the done markers of the batches it re-runs)
  so that run gets its own summary.

Every time-dependent primitive takes an explicit ``now`` so the protocol
is unit-testable with a frozen clock.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

try:
    import fcntl
except ImportError:  # no flock: every lease keeps the ttl rule
    fcntl = None

from repro._errors import ValidationError
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore, shard_dir
from repro.campaign.telemetry import CampaignTelemetry, ProgressCallback
from repro.obs import heartbeat as obs_heartbeat
from repro.obs import manifest as obs_manifest
from repro.obs import trace as obs_trace

__all__ = [
    "DEFAULT_LEASE_BATCH",
    "WorkerReport",
    "batch_id",
    "done_batch_ids",
    "ensure_plan",
    "lease_dir",
    "lease_state",
    "mark_done",
    "partition_points",
    "read_lease",
    "release",
    "renew",
    "reopen",
    "run_worker",
    "try_claim",
    "try_finalize",
    "try_reclaim",
    "write_summary",
]

#: Points per lease batch when ``ExecutionPolicy.batch_size`` is 0 (auto)
#: and the worker count is unknown (``campaign init``, serve's job spill).
#: A lease round-trip (claim + renewals + done marker) costs several
#: filesystem operations.
DEFAULT_LEASE_BATCH = 16

FINALIZE_MARKER = "campaign.finalized"


def lease_dir(store_path: str | Path) -> Path:
    """The lease directory for a result store path."""
    return Path(str(store_path) + ".leases")


# ---------------------------------------------------------------------------
# Batch partition / plan
# ---------------------------------------------------------------------------


def batch_id(point_ids: list[str]) -> str:
    """Deterministic batch identity: blake2b over the member point ids."""
    digest = hashlib.blake2b("\n".join(point_ids).encode(), digest_size=8)
    return digest.hexdigest()


def partition_points(
    points: "list[tuple[str, dict[str, Any]]]", batch_size: int
) -> list[dict[str, Any]]:
    """Partition spec points (in spec order) into fixed lease batches."""
    if batch_size < 1:
        raise ValidationError("lease batch_size must be >= 1")
    batches = []
    for start in range(0, len(points), batch_size):
        ids = [pid for pid, _params in points[start : start + batch_size]]
        batches.append({"id": batch_id(ids), "points": ids})
    return batches


def ensure_plan(
    directory: Path,
    spec: CampaignSpec,
    batch_size: int,
    trace: "obs_trace.TraceContext | None" = None,
) -> dict[str, Any]:
    """Load the frozen batch plan, creating it atomically if absent.

    The first worker to arrive freezes the partition (exclusive create);
    everyone else — including workers launched with a different
    ``batch_size`` — loads and uses the frozen one, so all workers agree
    on the lease units.

    ``trace`` is the originating request/campaign context; freezing it into
    the plan means every lease worker that later joins — on any host —
    inherits the same ``trace_id`` without any side channel.
    """
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "plan.json"
    if not path.exists():
        points = list(spec.points())
        plan = {
            "kind": "lease-plan",
            "batch_size": int(batch_size),
            "points": len(points),
            "batches": partition_points(points, batch_size),
        }
        if trace is not None:
            plan["trace"] = trace.to_dict()
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass  # another worker froze it first
        else:
            with os.fdopen(fd, "w") as handle:
                json.dump(plan, handle, sort_keys=True)
            return plan
    with path.open("r") as handle:
        plan = json.load(handle)
    if plan.get("kind") != "lease-plan" or "batches" not in plan:
        raise ValidationError(f"{path} is not a lease plan")
    return plan


# ---------------------------------------------------------------------------
# Lease primitives (all take explicit `now` for frozen-clock tests)
# ---------------------------------------------------------------------------


def _lease_path(directory: Path, bid: str) -> Path:
    return Path(directory) / f"{bid}.lease"


def _done_path(directory: Path, bid: str) -> Path:
    return Path(directory) / f"{bid}.done"


def _lease_record(bid: str, worker: str, ttl: float, now: float) -> dict[str, Any]:
    return {
        "kind": "lease",
        "batch": bid,
        "worker": worker,
        "host": obs_heartbeat.host_name(),
        "pid": os.getpid(),
        "time": float(now),
        "ttl": float(ttl),
    }


def try_claim(
    directory: Path, bid: str, worker: str, ttl: float, now: float | None = None
) -> bool:
    """Claim a free batch by exclusive lease-file creation.

    Returns ``False`` when someone else holds (or just claimed) it.
    """
    now = time.time() if now is None else now
    path = _lease_path(directory, bid)
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w") as handle:
        json.dump(_lease_record(bid, worker, ttl, now), handle, sort_keys=True)
    return True


def read_lease(directory: Path, bid: str) -> dict[str, Any] | None:
    """The current lease record, ``None`` if free, ``{}`` if unreadable."""
    path = _lease_path(directory, bid)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (OSError, ValueError):
        return {}
    return data if isinstance(data, dict) else {}


def renew(
    directory: Path, bid: str, worker: str, ttl: float, now: float | None = None
) -> bool:
    """Refresh this worker's lease timestamp (atomic replace).

    Recreates the lease if the file is momentarily missing — that happens
    only inside a reclaimer's rename window, and recreating makes the
    reclaimer (which re-reads the renamed copy) back off.  Returns
    ``False`` when the lease is now owned by someone else: the batch was
    genuinely reclaimed and this worker's in-flight work will be deduped
    by the record merge.
    """
    now = time.time() if now is None else now
    current = read_lease(directory, bid)
    if current is not None and current.get("worker") not in (None, worker):
        return False
    path = _lease_path(directory, bid)
    tmp = Path(directory) / f".{bid}.{worker}.renew"
    try:
        tmp.write_text(
            json.dumps(_lease_record(bid, worker, ttl, now), sort_keys=True),
            encoding="utf-8",
        )
        os.replace(tmp, path)
    except OSError:
        return False
    return True


def _hold_shard_lock(shard: Path) -> int | None:
    """Lock this worker's shard for its lifetime (before any claim); returns
    the fd to close."""
    if fcntl is None:
        return None
    fd = os.open(shard, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
    except OSError:  # no flock on this filesystem: peers keep the ttl rule
        os.close(fd)
        return None
    return fd


def _owner_gone(directory: Path, lease: dict[str, Any]) -> bool:
    """The lease's owner ran on this host, its shard exists, and nobody
    holds the shard's lock: it died."""
    name = str(directory)
    if (
        fcntl is None
        or not name.endswith(".leases")
        or lease.get("host") != obs_heartbeat.host_name()
    ):
        return False
    shard = shard_dir(name[: -len(".leases")]) / f"{lease.get('worker')}.jsonl"
    try:
        fd = os.open(shard, os.O_RDONLY)
    except OSError:
        return False
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        return False  # held (the owner is alive), or no flock here
    finally:
        os.close(fd)  # also drops the lock if this probe took it
    return True


def _expired(
    directory: Path, lease: dict[str, Any], ttl: float, now: float
) -> bool:
    """Older than the ttl recorded in the lease (else the caller's), or its
    owner is gone."""
    age = now - float(lease.get("time", now))
    return age > float(lease.get("ttl", ttl)) or _owner_gone(directory, lease)


def lease_state(
    directory: Path, bid: str, ttl: float, now: float | None = None
) -> str:
    """Classify a batch: ``"done"``, ``"free"``, ``"leased"`` or ``"expired"``.

    An unreadable lease file (torn write on a non-atomic filesystem) is
    conservatively ``"leased"``; the ttl recorded *in* the lease takes
    precedence over the caller's, so workers running with different
    ``lease_ttl`` flags honour the owner's promise.  A lease whose owner
    died on this host is expired whatever its age.
    """
    now = time.time() if now is None else now
    if _done_path(directory, bid).exists():
        return "done"
    lease = read_lease(directory, bid)
    if lease is None:
        return "free"
    if not lease:
        return "leased"
    return "expired" if _expired(directory, lease, ttl, now) else "leased"


def try_reclaim(
    directory: Path, bid: str, worker: str, ttl: float, now: float | None = None
) -> bool:
    """Take over an expired lease, exactly-once among concurrent reclaimers.

    Rename-first makes the takeover race-free: ``os.rename`` to a
    reclaimer-private name succeeds for exactly one process.  The winner
    re-reads what it renamed — if the owner renewed in the window between
    the staleness check and the rename, the copy is fresh, the reclaimer
    backs off (the owner's racing renewal recreated the lease file), and
    nothing is lost.  Otherwise the stale copy is discarded and the batch
    claimed normally.
    """
    now = time.time() if now is None else now
    current = read_lease(directory, bid)
    if current is None:
        return False  # released (or renamed by another reclaimer) already
    if current and not _expired(directory, current, ttl, now):
        return False  # fresh: claimed/renewed since the caller's state check
    path = _lease_path(directory, bid)
    stale = Path(directory) / f".{bid}.stale.{worker}"
    try:
        os.rename(path, stale)
    except OSError:
        return False  # someone else is reclaiming, or the owner released
    try:
        data = json.loads(stale.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        data = {}
    try:
        stale.unlink()
    except OSError:
        pass
    if isinstance(data, dict) and data and not _expired(directory, data, ttl, now):
        return False  # owner renewed mid-race; its renewal recreated the lease
    return try_claim(directory, bid, worker, ttl, now)


def release(directory: Path, bid: str, worker: str) -> None:
    """Drop this worker's lease (after the done marker is written)."""
    lease = read_lease(directory, bid)
    if lease and lease.get("worker") == worker:
        try:
            _lease_path(directory, bid).unlink()
        except OSError:
            pass


def mark_done(directory: Path, bid: str, worker: str) -> bool:
    """Write the batch's terminal marker; ``False`` if already marked.

    The loser of this race finished a batch someone else also finished —
    counted as a lease duplicate in telemetry; its records are deduped by
    the store merge.
    """
    try:
        fd = os.open(
            _done_path(directory, bid), os.O_CREAT | os.O_EXCL | os.O_WRONLY
        )
    except FileExistsError:
        return False
    with os.fdopen(fd, "w") as handle:
        json.dump({"batch": bid, "worker": worker, "time": time.time()}, handle)
    return True


def done_batch_ids(directory: Path) -> set[str]:
    """Batch ids with terminal markers."""
    directory = Path(directory)
    try:
        return {p.name[: -len(".done")] for p in directory.glob("*.done")}
    except OSError:
        return set()


def reopen(directory: Path, batch_ids: Iterable[str]) -> None:
    """Start a new run over a campaign: withdraw the finalize marker and the
    done markers of ``batch_ids`` (the batches this run computes again)."""
    for path in [Path(directory) / FINALIZE_MARKER] + [
        _done_path(directory, bid) for bid in batch_ids
    ]:
        try:
            path.unlink()
        except FileNotFoundError:
            pass


def try_finalize(directory: Path, worker: str) -> bool:
    """Win (or lose) the summary-writer election for a complete campaign."""
    try:
        fd = os.open(
            Path(directory) / FINALIZE_MARKER,
            os.O_CREAT | os.O_EXCL | os.O_WRONLY,
        )
    except FileExistsError:
        return False
    with os.fdopen(fd, "w") as handle:
        json.dump({"worker": worker, "time": time.time()}, handle)
    return True


def write_summary(
    store: ResultStore, worker: str, telemetry: CampaignTelemetry
) -> None:
    """Append ``telemetry`` and the merged counts as the run's summary line.

    Only the finalize election's winner calls this, which makes it the main
    store's only writer after the header.
    """
    merged = store.merged_status()
    summary = telemetry.to_dict()
    summary["merged"] = {
        "done": merged["done"],
        "failed": merged["failed"],
        "shards": merged["shards"],
        "finalized_by": worker,
    }
    writer = ResultStore.open(store.path)
    writer.append_summary(summary)
    writer.close()


class _LeaseRenewer:
    """Daemon thread renewing the currently-held batch lease every ttl/3."""

    def __init__(self, directory: Path, worker: str, ttl: float):
        self.directory = Path(directory)
        self.worker = worker
        self.ttl = float(ttl)
        self.lost = 0
        self._held: str | None = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-lease-renewer", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def hold(self, bid: str) -> None:
        with self._lock:
            self._held = bid

    def drop(self) -> None:
        with self._lock:
            self._held = None

    def _run(self) -> None:
        while not self._stop.wait(self.ttl / 3.0):
            with self._lock:
                bid = self._held
            if bid is None:
                continue
            try:
                ok = renew(self.directory, bid, self.worker, self.ttl)
            except Exception:
                ok = False
            if not ok:
                self.lost += 1

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=self.ttl)


# ---------------------------------------------------------------------------
# Worker loop
# ---------------------------------------------------------------------------


@dataclass
class WorkerReport:
    """What one elastic worker did before leaving the campaign."""

    worker: str
    batches_done: int = 0
    points_done: int = 0
    points_failed: int = 0
    reclaims: int = 0
    duplicates: int = 0
    finalized: bool = False
    complete: bool = False  # campaign complete when this worker left
    telemetry: CampaignTelemetry = field(
        default_factory=lambda: CampaignTelemetry(total_points=0)
    )

    def to_dict(self) -> dict[str, Any]:
        return {
            "worker": self.worker,
            "batches_done": self.batches_done,
            "points_done": self.points_done,
            "points_failed": self.points_failed,
            "reclaims": self.reclaims,
            "duplicates": self.duplicates,
            "finalized": self.finalized,
            "complete": self.complete,
        }


def run_worker(
    store_path: str | Path,
    *,
    policy: "Any | None" = None,
    spec: CampaignSpec | None = None,
    task: Any | None = None,
    worker: str | None = None,
    max_idle: float | None = None,
    poll_interval: float | None = None,
    progress: ProgressCallback | None = None,
    trace: "obs_trace.TraceContext | None" = None,
    retry_failed: bool = False,
    finalize: bool = True,
    **policy_overrides: Any,
) -> WorkerReport:
    """Join a campaign as one elastic lease worker; return when done.

    The worker loops: refresh the merged completed-point set, claim (or
    reclaim) the first available batch, evaluate its pending points
    in-process one by one (with the serial path's retries and per-point
    timeouts), write records to its private shard, mark the batch done,
    release the lease.  When no batch is claimable it idles on
    ``poll_interval`` until the campaign completes, another worker's lease
    expires, or ``max_idle`` seconds pass without any claim (elastic
    scale-down).

    On campaign completion the workers race a finalize election; the
    single winner appends the summary line to the main store.
    ``finalize=False`` keeps this worker out of the election, for a caller
    that holds it after its own workers return (see :func:`write_summary`).

    ``retry_failed=True`` computes failed points again: a failed point
    counts as finished only once its batch carries a done marker, so the
    run that asks for it must first :func:`reopen` those batches.

    Trace context is resolved explicit ``trace`` -> frozen plan ->
    store manifest; when one is found it becomes this process's campaign
    context (so point records and health events are trace-tagged) and,
    with observability enabled, span events (``lease.claim``,
    ``lease.reclaim``, ``lease.idle``, ``lease.batch``, ``lease.worker``)
    are appended to this worker's telemetry log under ``<store>.trace/``,
    beside its samples.
    """
    from collections import deque

    from repro.campaign.executor import _Coordinator, _make_policy, _Observers

    policy = _make_policy(policy, policy_overrides)
    # One reader for the whole run: each merged read below decodes only the
    # records appended since the previous one.
    store = ResultStore.open(store_path)
    if spec is None:
        spec = store.spec(task)
    worker = worker or obs_heartbeat.worker_id()
    ttl = float(policy.lease_ttl)
    if poll_interval is None:
        poll_interval = max(0.05, min(1.0, ttl / 5.0))
    ldir = lease_dir(store.path)
    batch_size = policy.batch_size or DEFAULT_LEASE_BATCH
    plan = ensure_plan(ldir, spec, batch_size, trace=trace)

    # Trace resolution: explicit arg -> frozen plan -> store manifest.
    trace_ctx = trace
    if trace_ctx is None:
        trace_ctx = obs_trace.TraceContext.from_dict(plan.get("trace"))
    if trace_ctx is None:
        manifest = obs_manifest.load_manifest(obs_manifest.manifest_path(store.path))
        if manifest:
            trace_ctx = obs_trace.TraceContext.from_dict(manifest.get("trace"))

    all_points = list(spec.points())
    params_by_id = dict(all_points)
    index_by_id = {pid: i for i, (pid, _p) in enumerate(all_points)}

    def finished() -> set[str]:
        """Point ids no batch of this run has to compute."""
        if not retry_failed:
            return store.merged_completed_ids()
        done_ids = done_batch_ids(ldir)
        settled = {
            pid
            for batch in plan["batches"]
            if batch["id"] in done_ids
            for pid in batch["points"]
        }
        return store.merged_completed_ids(include_failed=False) | (
            store.merged_completed_ids() & settled
        )

    completed = finished()
    telemetry = CampaignTelemetry(
        total_points=len(all_points),
        workers=1,
        mode="lease-worker",
        skipped=len(completed),
    )
    report = WorkerReport(worker=worker, telemetry=telemetry)
    shard = ResultStore.open_shard(store.path, worker, spec)
    shard_lock = _hold_shard_lock(shard.path)
    coordinator = _Coordinator(spec.task, policy, telemetry, shard, progress)
    # Span events, samples and profile deltas go to this worker's own log,
    # <store>.trace/<worker>.jsonl.
    observers = _Observers(store.path, policy, telemetry, trace=trace_ctx, worker=worker)
    worker_ctx = trace_ctx.child() if trace_ctx is not None else None
    traced = worker_ctx is not None and obs_trace.sink_configured()
    renewer = _LeaseRenewer(ldir, worker, ttl)
    renewer.start()

    def claim_one() -> dict[str, Any] | None:
        """Claim or reclaim the first available batch, else ``None``."""
        done_ids = done_batch_ids(ldir)
        for batch in plan["batches"]:
            bid = batch["id"]
            if bid in done_ids:
                continue
            if all(p in completed for p in batch["points"]):
                continue  # fully recorded; whoever ran it will mark it done
            state = lease_state(ldir, bid, ttl)
            if state in ("done", "leased"):
                continue
            claim_start = time.time() if traced else 0.0
            if state == "free":
                if not try_claim(ldir, bid, worker, ttl):
                    continue
                if traced:
                    obs_trace.record_event(
                        "lease.claim",
                        worker_ctx.child(),
                        claim_start,
                        time.time(),
                        batch=bid,
                    )
            else:  # expired
                if not try_reclaim(ldir, bid, worker, ttl):
                    continue
                if traced:
                    obs_trace.record_event(
                        "lease.reclaim",
                        worker_ctx.child(),
                        claim_start,
                        time.time(),
                        batch=bid,
                    )
                telemetry.lease_reclaims += 1
                report.reclaims += 1
                telemetry.note(f"reclaimed expired lease on batch {bid}")
            telemetry.lease_claims += 1
            return batch
        return None

    idle_since: float | None = None
    idle_wall: float | None = None
    run_start = time.time() if traced else 0.0
    try:
        while True:
            completed = finished()
            if len(completed) >= len(all_points):
                report.complete = True
                break
            batch = claim_one()
            if batch is None:
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                    idle_wall = time.time() if traced else None
                elif max_idle is not None and now - idle_since > max_idle:
                    break  # elastic scale-down: nothing claimable for a while
                time.sleep(poll_interval)
                continue
            if traced and idle_wall is not None:
                obs_trace.record_event(
                    "lease.idle", worker_ctx.child(), idle_wall, time.time()
                )
            idle_since = None
            idle_wall = None
            bid = batch["id"]
            renewer.hold(bid)
            batch_start = time.time() if traced else 0.0
            pending = 0
            try:
                # Re-read the merged set *after* claiming: points a dead
                # worker already recorded must not be recomputed.
                completed = finished()
                entries = deque(
                    (index_by_id[pid], pid, dict(params_by_id[pid]), 1)
                    for pid in batch["points"]
                    if pid not in completed
                )
                pending = len(entries)
                coordinator.run_serial(entries)
            finally:
                renewer.drop()
            if traced:
                obs_trace.record_event(
                    "lease.batch",
                    worker_ctx.child(),
                    batch_start,
                    time.time(),
                    batch=bid,
                    points=pending,
                )
            if mark_done(ldir, bid, worker):
                report.batches_done += 1
            else:
                telemetry.lease_duplicates += 1
                report.duplicates += 1
            release(ldir, bid, worker)
    finally:
        renewer.stop()
        telemetry.lease_lost += renewer.lost
        shard.close()
        if shard_lock is not None:
            os.close(shard_lock)
        if traced:
            now = time.time()
            if idle_wall is not None:
                obs_trace.record_event(
                    "lease.idle", worker_ctx.child(), idle_wall, now
                )
            obs_trace.record_event(
                "lease.worker",
                worker_ctx,
                run_start,
                now,
                batches=report.batches_done,
                reclaims=report.reclaims,
                complete=report.complete,
            )
        observers.close()

    report.points_done = telemetry.done
    report.points_failed = telemetry.failed
    telemetry.finish()
    if report.complete and finalize and try_finalize(ldir, worker):
        report.finalized = True
        write_summary(store, worker, telemetry)
    return report
