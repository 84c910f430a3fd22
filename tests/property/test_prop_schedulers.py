"""Property: every execution path produces the same record set for a campaign.

The serial path (``workers=1``) is the oracle; ``workers=2`` runs two
lease workers on this host, and independently launched lease workers join
a store by themselves.  They may differ only in *how* points reach
terminal records — never in the records themselves (id, status, metrics,
params), modulo ordering and per-run incidentals (elapsed, worker,
tracebacks).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignSpec,
    ExecutionPolicy,
    GridSpace,
    ListSpace,
    ResultStore,
    run_campaign,
)
from repro.campaign.lease import run_worker


@st.composite
def small_point_lists(draw):
    """1-7 unique design points over the useful region (some may fail)."""
    n = draw(st.integers(min_value=1, max_value=7))
    ratios = draw(
        st.lists(
            st.floats(min_value=0.02, max_value=0.3),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    separations = draw(
        st.lists(
            st.floats(min_value=2.0, max_value=9.0), min_size=n, max_size=n
        )
    )
    return [
        {"ratio": r, "separation": s} for r, s in zip(ratios, separations)
    ]


def _essentials(records):
    """The scheduler-invariant projection of a record set, keyed by id."""
    out = {}
    for r in records:
        essential = {
            "status": r["status"],
            "params": r["params"],
            "attempts": r["attempts"],
        }
        if r["status"] == "ok":
            essential["metrics"] = {
                k: ("nan" if isinstance(v, float) and math.isnan(v) else v)
                for k, v in r["metrics"].items()
            }
        else:
            essential["error"] = r["error"]["message"]
        out[r["id"]] = essential
    return out


class TestSchedulerEquivalence:
    @given(points=small_point_lists())
    @settings(max_examples=10, deadline=None)
    def test_lease_matches_serial(self, points, tmp_path_factory):
        spec = CampaignSpec.create(
            name="prop", space=ListSpace.of(points), task="design_summary"
        )
        tmp = tmp_path_factory.mktemp("lease")
        serial = run_campaign(spec, tmp / "serial.jsonl")
        lease_result = run_campaign(
            spec,
            tmp / "r.jsonl",
            policy=ExecutionPolicy(
                workers=2, batch_size=2, heartbeat_interval=None
            ),
        )
        assert _essentials(lease_result.records) == _essentials(serial.records)
        store = ResultStore.open(tmp / "r.jsonl")
        assert max(store.terminal_record_counts().values()) == 1
        assert _essentials(store.merged_point_records()) == _essentials(
            ResultStore.open(tmp / "serial.jsonl").point_records()
        )

    @pytest.mark.campaign
    def test_three_way_equivalence_with_stores(self, tmp_path):
        points = [
            {"ratio": 0.02 + 0.03 * i, "separation": 2.5 + 0.5 * i}
            for i in range(9)
        ]
        spec = CampaignSpec.create(
            name="prop3", space=ListSpace.of(points), task="design_summary"
        )
        serial = run_campaign(spec, tmp_path / "serial.jsonl")
        two_workers = run_campaign(
            spec,
            tmp_path / "two.jsonl",
            policy=ExecutionPolicy(workers=2, batch_size=3),
        )
        lease_store = tmp_path / "lease.jsonl"
        ResultStore.create(lease_store, spec)
        # Two sequential elastic workers share the lease store: the first
        # covers everything, the second must change nothing.
        run_worker(lease_store, batch_size=4, heartbeat_interval=None, max_idle=0.5)
        run_worker(lease_store, batch_size=4, heartbeat_interval=None, max_idle=0.2)

        oracle = _essentials(serial.records)
        assert _essentials(two_workers.records) == oracle
        merged = ResultStore.open(lease_store).merged_point_records()
        assert _essentials(merged) == oracle
        for path in (tmp_path / "serial.jsonl", tmp_path / "two.jsonl", lease_store):
            counts = ResultStore.open(path).terminal_record_counts()
            assert max(counts.values()) == 1, path


SPACE = GridSpace.of(ratio=[0.05, 0.1, 0.2], separation=[3.0, 5.0])


def _records_by_id(result):
    return {r["id"]: r for r in result.records}


def _assert_identical_metrics(a, b, context):
    assert a.keys() == b.keys(), context
    for key in a:
        va, vb = a[key], b[key]
        if isinstance(va, float) and math.isnan(va):
            assert math.isnan(vb), (context, key)
        else:
            assert va == vb, (context, key, va, vb)


class TestAnalysisTasks:
    """Real analysis tasks: ``--workers 2`` records equal the serial ones bit for bit."""

    @pytest.mark.parametrize("task", ["margins", "band_map", "stability_cell"])
    def test_workers_match_serial(self, task):
        spec = CampaignSpec.create(name="t", space=SPACE, task=task)
        serial = run_campaign(spec)
        workers = run_campaign(spec, policy=ExecutionPolicy(workers=2, batch_size=6))
        ref = _records_by_id(serial)
        assert len(workers.records) == len(serial.records) == 6
        for record in workers.records:
            expected = ref[record["id"]]
            assert record["status"] == expected["status"] == "ok"
            _assert_identical_metrics(
                expected["metrics"], record["metrics"], record["id"]
            )

    def test_failed_point_matches_serial(self):
        space = ListSpace.of(
            [
                {"ratio": 0.1, "separation": 4.0},
                {"separation": 4.0},
                {"ratio": 0.2, "separation": 4.0},
            ]
        )
        spec = CampaignSpec.create(name="t", space=space, task="margins")
        serial = run_campaign(spec)
        workers = run_campaign(spec, policy=ExecutionPolicy(workers=2, batch_size=3))
        ref = _records_by_id(serial)
        for record in workers.records:
            expected = ref[record["id"]]
            assert record["status"] == expected["status"]
            if record["status"] == "failed":
                assert (
                    record["error"]["message"] == expected["error"]["message"]
                )
            else:
                _assert_identical_metrics(
                    expected["metrics"], record["metrics"], record["id"]
                )
