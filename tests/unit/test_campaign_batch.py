"""Lease batches: per-point semantics survive the batch envelope.

Batching (``ExecutionPolicy.batch_size``) changes only how points reach
the lease workers — one lease carries several points.  These tests pin
what must NOT change: record identity with the serial path, per-point
retry and failure capture, and the auto-sizing rule's boundaries.
"""

import numpy as np
import pytest

from repro._errors import ValidationError
from repro.campaign import (
    CampaignSpec,
    ExecutionPolicy,
    ListSpace,
    run_campaign,
)
from repro.campaign.executor import _auto_batch_size

MARKED = 0.75


def square_task(params):
    x = float(params["x"])
    return {"square": x * x}


def flaky_task(params):
    if params["x"] == MARKED:
        raise RuntimeError("poisoned point")
    return square_task(params)


def make_spec(task, n=12, name="batch-test"):
    values = list(np.linspace(0.1, 1.2, n))
    if MARKED not in values:
        values[n // 2] = MARKED
    return CampaignSpec.create(
        name=name, space=ListSpace.of([{"x": float(v)} for v in values]), task=task
    )


def _metrics(result):
    return [
        (r["id"], r["status"], r.get("metrics")) for r in result.records
    ]


class TestAutoBatchSize:
    def test_small_maps_stay_per_point(self):
        assert _auto_batch_size(pending=12, workers=2) == 1
        assert _auto_batch_size(pending=0, workers=4) == 1

    def test_large_maps_amortize(self):
        assert _auto_batch_size(pending=220, workers=4) == 13
        assert _auto_batch_size(pending=10_000, workers=4) == 16  # capped

    def test_policy_validation(self):
        with pytest.raises(ValidationError, match="batch_size"):
            ExecutionPolicy(batch_size=-1)
        assert ExecutionPolicy(batch_size=0).batch_size == 0
        assert ExecutionPolicy(batch_size=7).batch_size == 7


class TestBatchedPoolSemantics:
    def test_batched_pool_matches_serial(self):
        spec = make_spec(square_task)
        serial = run_campaign(spec, workers=1)
        for batch_size in (0, 1, 5, 100):
            pooled = run_campaign(spec, workers=2, batch_size=batch_size)
            assert pooled.telemetry.mode == "lease"
            assert _metrics(pooled) == _metrics(serial), batch_size

    def test_batch_larger_than_map_is_fine(self):
        spec = make_spec(square_task, n=3)
        pooled = run_campaign(spec, workers=2, batch_size=50)
        assert pooled.telemetry.done == 3
        assert all(r["status"] == "ok" for r in pooled.records)

    def test_failure_inside_a_batch_stays_per_point(self):
        spec = make_spec(flaky_task)
        pooled = run_campaign(spec, workers=2, batch_size=4, retries=1)
        assert pooled.telemetry.failed == 1
        assert pooled.telemetry.done == len(spec) - 1
        (failed,) = pooled.failed_records
        assert failed["params"]["x"] == MARKED
        assert failed["attempts"] == 2  # retried, then terminally failed
        assert failed["error"]["type"] == "RuntimeError"
