"""Tests for repro.campaign.spec — spaces, point ids, spec round-trips."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro._errors import ValidationError
from repro.campaign.spec import (
    CampaignSpec,
    GridSpace,
    ListSpace,
    ParameterSpace,
    ProductSpace,
    ZipSpace,
    canonical_params,
    point_id,
)

ROOT = Path(__file__).resolve().parents[2]


class TestPointId:
    def test_deterministic_and_order_independent(self):
        a = point_id({"ratio": 0.1, "separation": 4.0})
        b = point_id({"separation": 4.0, "ratio": 0.1})
        assert a == b
        assert len(a) == 16 and int(a, 16) >= 0

    def test_distinguishes_values_and_names(self):
        base = point_id({"ratio": 0.1})
        assert point_id({"ratio": 0.2}) != base
        assert point_id({"other": 0.1}) != base

    def test_numpy_scalars_coerce_to_same_id(self):
        import numpy as np

        assert point_id({"ratio": np.float64(0.1)}) == point_id({"ratio": 0.1})
        assert point_id({"n": np.int64(3)}) == point_id({"n": 3})

    def test_stable_across_processes(self):
        # PYTHONHASHSEED-independent: a fresh interpreter computes the same id.
        expected = point_id({"ratio": 0.125, "separation": 4.0})
        code = (
            "from repro.campaign.spec import point_id;"
            "print(point_id({'ratio': 0.125, 'separation': 4.0}))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "12345"},
            cwd=ROOT,
            check=True,
        )
        assert out.stdout.strip() == expected

    def test_rejects_non_scalars_and_nonfinite(self):
        with pytest.raises(ValidationError):
            canonical_params({"bad": [1, 2]})
        with pytest.raises(ValidationError):
            canonical_params({"bad": float("inf")})
        with pytest.raises(ValidationError):
            canonical_params({})


class TestSpaces:
    def test_grid_row_major_order(self):
        space = GridSpace.of(a=[1, 2], b=[10, 20, 30])
        pts = list(space.points())
        assert len(space) == 6 and len(pts) == 6
        assert pts[0] == {"a": 1, "b": 10}
        assert pts[1] == {"a": 1, "b": 20}  # last axis fastest
        assert pts[-1] == {"a": 2, "b": 30}

    def test_zip_equal_lengths(self):
        space = ZipSpace.of(a=[1, 2, 3], b=[4.0, 5.0, 6.0])
        assert len(space) == 3
        assert list(space)[1] == {"a": 2, "b": 5.0}
        with pytest.raises(ValidationError):
            ZipSpace.of(a=[1, 2], b=[1])

    def test_list_space(self):
        space = ListSpace.of([{"x": 1.0}, {"x": 2.0}])
        assert len(space) == 2
        assert list(space) == [{"x": 1.0}, {"x": 2.0}]
        with pytest.raises(ValidationError):
            ListSpace.of([])

    def test_product_space(self):
        space = GridSpace.of(a=[1, 2]) * ListSpace.of([{"b": 5.0}, {"b": 6.0}])
        assert isinstance(space, ProductSpace)
        assert len(space) == 4
        assert list(space)[0] == {"a": 1, "b": 5.0}
        with pytest.raises(ValidationError):
            GridSpace.of(a=[1]) * GridSpace.of(a=[2])  # overlapping name

    def test_empty_axes_rejected(self):
        with pytest.raises(ValidationError):
            GridSpace.of()
        with pytest.raises(ValidationError):
            GridSpace.of(a=[])

    @pytest.mark.parametrize(
        "space",
        [
            GridSpace.of(ratio=[0.05, 0.1], separation=[2.0, 4.0]),
            ZipSpace.of(ratio=[0.05, 0.1], separation=[2.0, 4.0]),
            ListSpace.of([{"ratio": 0.05}, {"ratio": 0.1}]),
            GridSpace.of(ratio=[0.05]) * ZipSpace.of(sep=[2.0, 3.0]),
        ],
    )
    def test_json_roundtrip(self, space):
        data = json.loads(json.dumps(space.to_json()))
        back = ParameterSpace.from_json(data)
        assert list(back.points()) == list(space.points())
        assert len(back) == len(space)

    def test_from_json_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            ParameterSpace.from_json({"kind": "mystery"})
        with pytest.raises(ValidationError):
            ParameterSpace.from_json({})


class TestCampaignSpec:
    def make(self):
        return CampaignSpec.create(
            name="t",
            space=GridSpace.of(ratio=[0.05, 0.1]),
            task="margins",
            defaults={"omega0": 6.0},
        )

    def test_points_merge_defaults(self):
        spec = self.make()
        pts = list(spec.points())
        assert len(pts) == len(spec) == 2
        pid, params = pts[0]
        assert params == {"omega0": 6.0, "ratio": 0.05}
        assert pid == point_id(params)

    def test_point_overrides_default(self):
        spec = CampaignSpec.create(
            name="t",
            space=ListSpace.of([{"omega0": 9.0, "ratio": 0.1}]),
            task="margins",
            defaults={"omega0": 6.0},
        )
        _, params = next(iter(spec.points()))
        assert params["omega0"] == 9.0

    def test_duplicate_points_get_unique_suffixed_ids(self):
        spec = CampaignSpec.create(
            name="t",
            space=ListSpace.of([{"x": 1.0}, {"x": 1.0}, {"x": 1.0}]),
            task="margins",
        )
        ids = [pid for pid, _ in spec.points()]
        assert len(set(ids)) == 3
        assert ids[1] == f"{ids[0]}-1" and ids[2] == f"{ids[0]}-2"

    def test_json_roundtrip(self):
        spec = self.make()
        back = CampaignSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert back.name == spec.name and back.task == spec.task
        assert list(back.points()) == list(spec.points())

    def test_callable_task_does_not_serialize(self):
        spec = CampaignSpec.create(
            name="t", space=GridSpace.of(x=[1]), task=lambda p: {"m": 1.0}
        )
        with pytest.raises(ValidationError):
            spec.to_json()

    def test_create_validation(self):
        with pytest.raises(ValidationError):
            CampaignSpec.create(name="", space=GridSpace.of(x=[1]), task="margins")
        with pytest.raises(ValidationError):
            CampaignSpec.create(name="t", space="not-a-space", task="margins")
        with pytest.raises(ValidationError):
            CampaignSpec.create(name="t", space=GridSpace.of(x=[1]), task=3)
