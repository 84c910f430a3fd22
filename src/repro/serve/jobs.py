"""Background jobs: heavy requests spill to campaign stores.

A stability map over hundreds of cells does not belong inside an HTTP
request/response cycle.  When a ``/v1/stability_map`` request crosses the
server's spill threshold, it becomes a *job*: the request's parameter grid
is exactly a :class:`~repro.campaign.spec.CampaignSpec`, so the job **is**
a campaign run — same executor, same append-only JSONL store, same
telemetry log, same crash-safe resume.  The server returns ``202``
with a job id immediately and the client polls ``GET /v1/jobs/<id>``.

Two properties fall out of reusing the campaign machinery rather than
inventing a job queue:

* **Deterministic ids** — the job id is the campaign spec fingerprint, so
  resubmitting the same request (a retry, a second dashboard tab) attaches
  to the existing store instead of recomputing, whether the original run
  is still going, finished, or was SIGKILLed halfway.
* **Crash resumability** — a job store with pending points is resumed, not
  restarted; completed points survive any crash of the server or the
  worker thread.  ``repro jobs <dir>`` and ``repro campaign resume`` both
  work on the same files.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any

from repro.campaign.executor import resume_campaign, run_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.watch import poll_store
from repro.obs import manifest as obs_manifest
from repro.obs import trace as obs_trace

__all__ = ["JobManager", "job_id_for"]


def job_id_for(spec: CampaignSpec) -> str:
    """Deterministic job id: the leading half of the spec fingerprint."""
    return obs_manifest.spec_fingerprint(spec)


class JobManager:
    """Runs campaign specs on daemon worker threads, one store per job.

    Thread-confinement contract: ``submit``/``status``/``list_jobs`` may be
    called from any thread (the server calls them from executor threads);
    internal maps are guarded by one lock.  The campaign executor itself
    runs serially inside the job thread — a serving process multiplexes
    many small requests, so one core per background job is the right
    footprint (``workers`` raises it for dedicated job hosts: the job
    thread then forks ``workers - 1`` lease workers and is worker 0).
    """

    def __init__(
        self,
        jobs_dir: str | Path,
        workers: int = 1,
        autostart: bool = True,
        lease_batch: int | None = None,
    ):
        self.jobs_dir = Path(jobs_dir)
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.workers = max(int(workers), 1)
        self.autostart = bool(autostart)
        self.lease_batch = lease_batch
        self._lock = threading.Lock()
        self._threads: dict[str, threading.Thread] = {}
        self._errors: dict[str, str] = {}

    def store_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.jsonl"

    def submit(
        self, spec: CampaignSpec, trace: "obs_trace.TraceContext | None" = None
    ) -> str:
        """Start (or attach to) the job for ``spec``; returns its id.

        Idempotent by construction: an identical spec maps to the same
        store.  A live run is joined, a complete store is returned as-is,
        and a dead partial store (crashed server, SIGKILL) is resumed.

        ``trace`` is the originating request's trace context; it is stamped
        into the campaign manifest (and lease plan), so every record the
        job produces — on this host or on an external lease worker —
        carries the request's ``trace_id``.

        With ``autostart=False`` the manager only *prepares* the job —
        store, manifest, frozen lease plan — and leaves execution to an
        external fleet of ``repro campaign worker`` processes (dedicated
        job hosts pointed at a shared jobs directory).
        """
        job_id = job_id_for(spec)
        store = self.store_path(job_id)
        if not self.autostart:
            self._prepare(spec, store, trace)
            return job_id
        with self._lock:
            thread = self._threads.get(job_id)
            if thread is not None and thread.is_alive():
                return job_id
            self._errors.pop(job_id, None)
            thread = threading.Thread(
                target=self._run,
                args=(job_id, spec, store, trace),
                name=f"repro-job-{job_id}",
                daemon=True,
            )
            self._threads[job_id] = thread
            thread.start()
        return job_id

    def _prepare(
        self,
        spec: CampaignSpec,
        store: Path,
        trace: "obs_trace.TraceContext | None",
    ) -> None:
        """Create store + manifest + lease plan without executing anything.

        Mirrors ``repro campaign init``: the lease plan is frozen with
        O_EXCL, so concurrent submits of the same spec agree on one plan.
        """
        from repro.campaign.executor import ExecutionPolicy
        from repro.campaign.lease import DEFAULT_LEASE_BATCH, ensure_plan, lease_dir
        from repro.campaign.store import ResultStore

        if not store.exists():
            ResultStore.create(store, spec)
        manifest = obs_manifest.build_manifest(
            spec,
            ExecutionPolicy(batch_size=self.lease_batch or DEFAULT_LEASE_BATCH),
        )
        if trace is not None:
            manifest["trace"] = trace.to_dict()
        manifest_file = obs_manifest.manifest_path(store)
        if obs_manifest.load_manifest(manifest_file) is None:
            obs_manifest.write_manifest(manifest_file, manifest)
        ensure_plan(
            lease_dir(store),
            spec,
            self.lease_batch or DEFAULT_LEASE_BATCH,
            trace=trace,
        )

    def _run(
        self,
        job_id: str,
        spec: CampaignSpec,
        store: Path,
        trace: "obs_trace.TraceContext | None" = None,
    ) -> None:
        # Progress polls read the samples each run appends to its store's
        # telemetry log, whatever log this process writes its spans to.
        try:
            if store.exists():
                resume_campaign(store, spec=spec, workers=self.workers, trace=trace)
            else:
                run_campaign(spec, store, workers=self.workers, trace=trace)
        except Exception as exc:  # surfaced through status(), never raised
            with self._lock:
                self._errors[job_id] = f"{type(exc).__name__}: {exc}"

    def status(self, job_id: str) -> dict[str, Any] | None:
        """Liveness + progress for one job, or ``None`` if unknown.

        Known means *a store exists* — the manager's thread table is an
        optimization, not the source of truth, so jobs survive server
        restarts.
        """
        store = self.store_path(job_id)
        if not store.exists():
            return None
        with self._lock:
            thread = self._threads.get(job_id)
            error = self._errors.get(job_id)
        out: dict[str, Any] = {
            "job_id": job_id,
            "store": str(store),
            "running": bool(thread is not None and thread.is_alive()),
        }
        if error:
            out["error"] = error
        out.update(poll_store(store))
        return out

    def records(self, job_id: str) -> list[dict[str, Any]]:
        """A job's terminal point records in spec order, across its workers.

        A job run by several lease workers keeps its records in worker
        shards, not in the main store.
        """
        from repro.campaign.store import ResultStore

        store = ResultStore.open(self.store_path(job_id))
        by_id = {r["id"]: r for r in store.merged_point_records()}
        return [by_id[pid] for pid, _params in store.spec().points() if pid in by_id]

    def list_jobs(self) -> list[dict[str, Any]]:
        """All jobs this directory knows about (running or not)."""
        out = []
        for path in sorted(self.jobs_dir.glob("*.jsonl")):
            status = self.status(path.stem)
            if status is not None:
                out.append(status)
        return out
