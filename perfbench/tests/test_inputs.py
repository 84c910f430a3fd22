"""Seeded input generation: the seed alone fixes every input."""

import json

from perfbench import config, inputs


def test_same_seed_same_inputs():
    assert inputs.rung_requests(7, 0, 40.0, 5.0) == inputs.rung_requests(7, 0, 40.0, 5.0)
    assert inputs.warmup_requests(7) == inputs.warmup_requests(7)
    assert inputs.map_spec(7) == inputs.map_spec(7)
    assert inputs.sweep_spec(7) == inputs.sweep_spec(7)


def test_different_seed_different_inputs():
    assert inputs.rung_requests(7, 0, 40.0, 5.0) != inputs.rung_requests(8, 0, 40.0, 5.0)
    assert inputs.warmup_requests(7) != inputs.warmup_requests(8)
    assert inputs.map_spec(7) != inputs.map_spec(8)
    assert inputs.sweep_spec(7) != inputs.sweep_spec(8)


def test_rung_offers_its_rate_with_the_stated_mix():
    requests = inputs.rung_requests(3, 1, 90.0, 20.0)
    assert len(requests) == 1800
    assert all(0.0 <= r.due <= 20.0 for r in requests)
    assert [r.due for r in requests] == sorted(r.due for r in requests)
    props = inputs.describe(requests)
    assert abs(props["repeat_share"] - config.HOT_SHARE) < 0.05
    assert 0.4 < props["margins_share"] < 0.6
    lo, hi = config.GRID_POINTS
    assert lo <= props["grid_points_median"] <= hi


def test_warmup_designs_are_outside_the_measured_population():
    warm = inputs.warmup_requests(5)
    measured = inputs.rung_requests(5, 0, 40.0, 10.0)
    assert not {r.key for r in warm} & {r.key for r in measured}
    for request in warm:
        separation = json.loads(request.body)["design"]["separation"]
        assert separation > config.SEPARATION_RANGE[1]


def test_campaign_specs_have_their_stated_size():
    assert inputs.spec_points(inputs.map_spec(1)) == config.MAP_AXES[0] * config.MAP_AXES[1]
    assert inputs.spec_points(inputs.sweep_spec(1)) == config.SWEEP_AXES[0] * config.SWEEP_AXES[1]


def test_hot_grid_sizes_do_not_follow_popularity():
    import numpy as np

    strata = inputs._hot_response_strata(np.random.default_rng(3))
    everything = list(range(strata.shape[1]))
    # Over the rung's rotations every rank holds every size stratum once,
    # and every rotation holds every stratum once.
    assert all(sorted(column) == everything for column in strata.T)
    assert all(sorted(row) == everything for row in strata)
    first = {
        tuple(inputs._hot_response_strata(np.random.default_rng(s))[0]) for s in range(6)
    }
    assert len(first) > 1
