"""Vectorized batch adapters: the scalar path is the correctness oracle.

Every assertion here is about *identity*, not closeness: the stacked
batch evaluation must produce bit-for-bit the numbers the scalar adapter
produces per point (the contract that lets ``ExecutionPolicy.vectorize``
default to on).  Plus the degradation ladder: per-slot exceptions stay
per-slot, and a broken batch adapter falls back to the scalar path.
"""

import math

import pytest

from repro.campaign import (
    CampaignSpec,
    ExecutionPolicy,
    GridSpace,
    get_batch_task,
    register_batch_task,
    register_task,
    run_campaign,
    run_point_batch,
)
from repro.campaign.tasks import get_task

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


class TestBitwiseIdentity:
    @pytest.mark.parametrize("task", ["margins", "band_map", "stability_cell"])
    def test_batch_adapter_matches_scalar(self, task):
        batch = list(SPACE.points())
        scalar_fn = get_task(task)
        batch_fn = get_batch_task(task)
        assert batch_fn is not None
        outcomes = batch_fn([dict(p) for p in batch])
        assert len(outcomes) == len(batch)
        for params, outcome in zip(batch, outcomes):
            expected = scalar_fn(dict(params))
            assert not isinstance(outcome, Exception)
            _assert_identical_metrics(
                {k: float(v) for k, v in expected.items()},
                {k: float(v) for k, v in outcome.items()},
                (task, params),
            )

    @pytest.mark.parametrize("task", ["margins", "band_map", "stability_cell"])
    def test_campaign_vectorized_matches_serial_scalar(self, task):
        spec = CampaignSpec.create(name="t", space=SPACE, task=task)
        scalar = run_campaign(spec, policy=ExecutionPolicy(vectorize=False))
        vectorized = run_campaign(
            spec, policy=ExecutionPolicy(workers=2, batch_size=6)
        )
        ref = _records_by_id(scalar)
        assert len(vectorized.records) == len(scalar.records) == 6
        for record in vectorized.records:
            expected = ref[record["id"]]
            assert record["status"] == expected["status"] == "ok"
            assert record.get("vectorized") is True
            assert record.get("batch_points") == 6
            _assert_identical_metrics(
                expected["metrics"], record["metrics"], record["id"]
            )

    def test_mixed_shapes_split_into_groups(self):
        # Points with different grid resolutions can share one batch; the
        # adapter groups them internally and each still matches scalar.
        batch = [
            {"ratio": 0.1, "separation": 4.0, "points": 2000},
            {"ratio": 0.1, "separation": 4.0, "points": 4000},
            {"ratio": 0.2, "separation": 4.0, "points": 2000},
        ]
        scalar_fn = get_task("margins")
        outcomes = get_batch_task("margins")([dict(p) for p in batch])
        for params, outcome in zip(batch, outcomes):
            _assert_identical_metrics(
                {k: float(v) for k, v in scalar_fn(dict(params)).items()},
                {k: float(v) for k, v in outcome.items()},
                params,
            )


class TestPerSlotFailure:
    def test_bad_point_fails_alone(self):
        batch = [
            {"ratio": 0.1, "separation": 4.0},
            {"separation": 4.0},  # missing ratio -> ValidationError
            {"ratio": 0.2, "separation": 4.0},
        ]
        outcomes = get_batch_task("margins")([dict(p) for p in batch])
        assert not isinstance(outcomes[0], Exception)
        assert isinstance(outcomes[1], Exception)
        assert not isinstance(outcomes[2], Exception)

    def test_campaign_batch_failure_matches_scalar(self):
        from repro.campaign.spec import ListSpace

        space = ListSpace.of(
            [
                {"ratio": 0.1, "separation": 4.0},
                {"separation": 4.0},
                {"ratio": 0.2, "separation": 4.0},
            ]
        )
        spec = CampaignSpec.create(name="t", space=space, task="margins")
        scalar = run_campaign(spec, policy=ExecutionPolicy(vectorize=False))
        vectorized = run_campaign(
            spec, policy=ExecutionPolicy(workers=2, batch_size=3)
        )
        ref = _records_by_id(scalar)
        for record in vectorized.records:
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


def _unregistered_square(params):
    x = float(params["x"])
    return {"square": x * x}


class TestRunPointBatch:
    def _payloads(self, task, values):
        return [
            (task, f"p{i}", {"x": v}, None, 1) for i, v in enumerate(values)
        ]

    def test_scalar_task_without_batch_adapter_still_works(self):
        records = run_point_batch(
            self._payloads(_unregistered_square, [2.0, 3.0]), vectorize=True
        )
        assert [r["metrics"]["square"] for r in records] == [4.0, 9.0]
        # no batch adapter -> plain scalar records, no vectorized tag
        assert all("vectorized" not in r for r in records)

    def test_vectorize_off_uses_scalar_path(self):
        payloads = [
            ("margins", f"p{i}", {"ratio": r, "separation": 4.0}, None, 1)
            for i, r in enumerate([0.05, 0.1])
        ]
        records = run_point_batch(payloads, vectorize=False)
        assert all("vectorized" not in r for r in records)
        assert all(r["status"] == "ok" for r in records)

    def test_vectorized_records_carry_batch_shape(self):
        payloads = [
            ("margins", f"p{i}", {"ratio": r, "separation": 4.0}, None, 1)
            for i, r in enumerate([0.05, 0.1, 0.2])
        ]
        records = run_point_batch(payloads, vectorize=True)
        assert all(r["vectorized"] is True for r in records)
        assert all(r["batch_points"] == 3 for r in records)
        assert all(r["status"] == "ok" for r in records)

    def test_broken_batch_adapter_falls_back_to_scalar(self):
        calls = {"batch": 0}

        @register_task("broken_batch_demo")
        def scalar(params):
            return {"y": float(params["x"]) + 1.0}

        @register_batch_task("broken_batch_demo")
        def broken(batch):
            calls["batch"] += 1
            raise RuntimeError("batch machinery exploded")

        records = run_point_batch(
            self._payloads("broken_batch_demo", [1.0, 2.0]), vectorize=True
        )
        assert calls["batch"] == 1
        assert [r["metrics"]["y"] for r in records] == [2.0, 3.0]
        assert all(r["status"] == "ok" for r in records)
        assert all("vectorized" not in r for r in records)

    def test_wrong_length_batch_result_falls_back(self):
        @register_task("short_batch_demo")
        def scalar(params):
            return {"y": float(params["x"]) * 2.0}

        @register_batch_task("short_batch_demo")
        def short(batch):
            return [{"y": 0.0}]  # wrong length -> whole batch unusable

        records = run_point_batch(
            self._payloads("short_batch_demo", [1.0, 2.0]), vectorize=True
        )
        assert [r["metrics"]["y"] for r in records] == [2.0, 4.0]

    def test_single_point_skips_batch_machinery(self):
        records = run_point_batch(
            [("margins", "p0", {"ratio": 0.1, "separation": 4.0}, None, 1)],
            vectorize=True,
        )
        assert len(records) == 1
        assert "vectorized" not in records[0]
