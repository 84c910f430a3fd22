"""repro.campaign — parallel, fault-tolerant design-space exploration.

Turns any per-design-point analysis into a scalable campaign: declare a
parameter space, bind it to a task adapter, and run it on one process or
on N lease workers with per-point timeouts, bounded retries, an
append-only JSONL result store with crash-safe resume, and run telemetry.

Quick start::

    from repro.campaign import CampaignSpec, GridSpace, run_campaign

    spec = CampaignSpec.create(
        name="margins-map",
        space=GridSpace.of(ratio=[0.05, 0.1, 0.2], separation=[2.0, 4.0, 8.0]),
        task="margins",                       # registry name (tasks module)
    )
    result = run_campaign(spec, "margins.jsonl", workers=4,
                          timeout=30.0, retries=1)
    print(result.telemetry.summary())
    pm = result.metric("phase_margin_eff_deg")   # NaN where a point failed

Kill the process mid-run and finish later with::

    from repro.campaign import resume_campaign
    resume_campaign("margins.jsonl", workers=4)

or from the shell: ``python -m repro campaign resume margins.jsonl``.

``workers=N`` runs N lease workers on this host, and the same lease
protocol scales past one machine: any number of independently launched
workers (``repro campaign worker``, or :func:`run_worker`) join one store,
claim batch leases, steal expired ones from dead workers, and leave
elastically — see :mod:`~repro.campaign.lease` and docs/CAMPAIGNS.md.

Package layout: :mod:`~repro.campaign.spec` (parameter spaces, point
ids), :mod:`~repro.campaign.tasks` (adapter registry),
:mod:`~repro.campaign.executor` (point execution, retries, serial and
local lease runs), :mod:`~repro.campaign.lease` (lease protocol),
:mod:`~repro.campaign.store` (JSONL persistence + shard merge),
:mod:`~repro.campaign.telemetry` (counters and cache visibility).
"""

from repro.campaign.executor import (
    CampaignResult,
    ExecutionPolicy,
    PointTimeout,
    campaign_status,
    resume_campaign,
    run_campaign,
)
from repro.campaign.lease import WorkerReport, run_worker
from repro.campaign.spec import (
    CampaignSpec,
    GridSpace,
    ListSpace,
    ParameterSpace,
    ProductSpace,
    ZipSpace,
    point_id,
)
from repro.campaign.store import ResultStore, StoreCorruptError
from repro.campaign.tasks import (
    available_tasks,
    get_batch_task,
    get_task,
    register_batch_task,
    register_task,
)
from repro.campaign.telemetry import CampaignTelemetry
from repro.campaign.watch import poll_store
from repro.campaign.watch import render as render_watch
from repro.campaign.watch import watch as watch_campaign

__all__ = [
    "CampaignResult",
    "CampaignSpec",
    "CampaignTelemetry",
    "ExecutionPolicy",
    "GridSpace",
    "ListSpace",
    "ParameterSpace",
    "PointTimeout",
    "ProductSpace",
    "ResultStore",
    "StoreCorruptError",
    "WorkerReport",
    "ZipSpace",
    "available_tasks",
    "campaign_status",
    "get_batch_task",
    "get_task",
    "point_id",
    "poll_store",
    "register_batch_task",
    "register_task",
    "render_watch",
    "resume_campaign",
    "run_campaign",
    "run_worker",
    "watch_campaign",
]
