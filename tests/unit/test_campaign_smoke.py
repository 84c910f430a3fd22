"""Tier-1 campaign smoke: a tiny end-to-end two-worker run must stay fast.

Marked ``campaign`` so the engine's tests can be selected with
``pytest -m campaign``; this one rides in the default ``pytest -x -q``
run as the cheap always-on guard (4 points, 2 workers, < 10 s).
"""

import time

import numpy as np
import pytest

from repro.campaign import CampaignSpec, GridSpace, run_campaign

pytestmark = pytest.mark.campaign


def test_four_point_pool_campaign_under_ten_seconds(tmp_path):
    spec = CampaignSpec.create(
        name="smoke",
        space=GridSpace.of(ratio=[0.05, 0.1], separation=[3.0, 5.0]),
        task="margins",
        defaults={"points": 800},
    )
    start = time.perf_counter()
    result = run_campaign(spec, tmp_path / "smoke.jsonl", workers=2)
    elapsed = time.perf_counter() - start

    assert elapsed < 10.0, f"smoke campaign took {elapsed:.1f}s"
    assert result.telemetry.done == 4 and result.telemetry.failed == 0
    assert result.telemetry.mode == "lease" and result.telemetry.workers == 2
    # The physics survived the trip through the workers: effective margins
    # degrade as the loop gets faster (paper Fig. 7 trend).
    ratios = result.parameter("ratio")
    eff = result.metric("phase_margin_eff_deg")
    lti = result.metric("phase_margin_lti_deg")
    assert np.all(np.isfinite(eff))
    degradation = lti - eff
    slow = degradation[ratios == 0.05].mean()
    fast = degradation[ratios == 0.1].mean()
    assert fast > slow >= 0.0
