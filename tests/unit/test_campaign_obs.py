"""Campaign-scale observability acceptance: the 100-point span budget.

The ISSUE acceptance criterion for PR 3: after a 100-point campaign run
with observability on, ``repro obs export --json <store>`` must report
per-stage spans whose summed busy time is consistent with the run's
wall-clock budget — within 20% of the telemetry's busy-seconds figure and
never above ``wall x workers``.
"""

import json

import numpy as np
import pytest

from repro.campaign import CampaignSpec, GridSpace, run_campaign
from repro.cli import main
from repro.core.memo import grid_cache
from repro.obs import spans as obs

pytestmark = pytest.mark.campaign


@pytest.fixture(autouse=True)
def _obs_enabled():
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    grid_cache.clear()
    yield
    (obs.enable if was_enabled else obs.disable)()
    obs.reset()
    grid_cache.clear()


def _hundred_point_spec() -> CampaignSpec:
    return CampaignSpec.create(
        name="obs-acceptance",
        space=GridSpace.of(
            separation=[float(v) for v in np.linspace(3.0, 6.0, 10)],
            ratio=[float(v) for v in np.linspace(0.02, 0.25, 10)],
        ),
        task="stability_cell",
        defaults={"points": 100},
    )


def _point_spans(snapshot) -> list[dict]:
    return [
        s
        for s in snapshot["spans"].values()
        if s["name"] == "campaign.point"
    ]


def test_hundred_point_campaign_spans_match_busy_budget(tmp_path):
    store_path = tmp_path / "run.jsonl"
    result = run_campaign(_hundred_point_spec(), store_path, workers=1)
    telemetry = result.telemetry
    assert telemetry.processed == 100

    snapshot = telemetry.obs_snapshot()
    assert snapshot is not None

    point_spans = _point_spans(snapshot)
    assert sum(s["count"] for s in point_spans) == 100
    span_busy = sum(s["wall"] for s in point_spans)

    # The per-point spans measure the same work the telemetry times; the
    # two must agree within the 20% acceptance envelope, and the spans can
    # never exceed the worker-seconds the run had available.
    busy = telemetry.busy_seconds
    assert busy > 0
    assert abs(span_busy - busy) <= 0.2 * busy, (span_busy, busy)
    wall_budget = telemetry.wall_seconds * max(telemetry.workers, 1)
    assert span_busy <= 1.05 * wall_budget

    # Inner stages were recorded nested under the point span, and the
    # coordinator's counters ride alongside the merged worker deltas.
    assert any(key.startswith("campaign.point/") for key in snapshot["spans"])
    assert snapshot["counters"]["campaign.points_processed"]["value"] == 100.0

    # Point records ship per-point deltas; the store's summary mirrors the
    # merged snapshot that obs_snapshot() reports.
    assert all("obs" in r for r in result.records)


def test_obs_export_json_from_store_cli(tmp_path, capsys):
    store_path = tmp_path / "run.jsonl"
    run_campaign(_hundred_point_spec(), store_path, workers=1)

    assert main(["obs", "export", str(store_path), "--json"]) == 0
    exported = json.loads(capsys.readouterr().out)
    point_spans = _point_spans(exported)
    assert sum(s["count"] for s in point_spans) == 100

    assert main(["obs", "summary", str(store_path)]) == 0
    out = capsys.readouterr().out
    assert "campaign.point" in out
    assert "counters:" in out

    assert main(["obs", "top", str(store_path), "-n", "3"]) == 0
    assert "top 3 span bucket(s)" in capsys.readouterr().out


def test_two_worker_store_snapshot_covers_every_point(tmp_path, capsys):
    # Each lease worker's records carry its span deltas; the store's one
    # summary line holds only the finalize winner's telemetry, so the
    # store's snapshot is folded from every worker's records instead.
    spec = CampaignSpec.create(
        name="obs-two-workers",
        space=GridSpace.of(
            separation=[3.0, 4.0, 5.0, 6.0],
            ratio=[float(v) for v in np.linspace(0.02, 0.2, 5)],
        ),
        task="stability_cell",
        defaults={"points": 100},
    )
    store_path = tmp_path / "run.jsonl"
    result = run_campaign(spec, store_path, workers=2, batch_size=2)
    assert result.telemetry.processed == 20

    from repro.obs.report import load_snapshot

    snapshot = load_snapshot(store_path)
    assert sum(s["count"] for s in _point_spans(snapshot)) == 20
    assert snapshot["counters"]["campaign.points_processed"]["value"] == 20.0
    pids = {pid for s in _point_spans(snapshot) for pid in s.get("pids") or []}
    assert pids == {r["worker"] for r in result.records}

    assert main(["obs", "summary", str(store_path)]) == 0
    assert "campaign.points_processed" in capsys.readouterr().out
