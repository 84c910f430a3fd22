"""Wire-protocol tests: request parsing, errors, zero-copy serialization."""

import json
import math

import numpy as np
import pytest

from repro.serve.protocol import (
    ServeError,
    design_fingerprint,
    design_params,
    dumps_bytes,
    grid_from_request,
    parse_json_body,
)

W0 = 2 * math.pi


def _err(fn, *args):
    with pytest.raises(ServeError) as exc_info:
        fn(*args)
    return exc_info.value


class TestParseJsonBody:
    def test_valid_object(self):
        assert parse_json_body(b'{"a": 1}') == {"a": 1}

    def test_empty_is_400(self):
        err = _err(parse_json_body, b"")
        assert err.status == 400 and err.code == "empty_body"

    def test_malformed_is_400(self):
        err = _err(parse_json_body, b"{nope")
        assert err.status == 400 and err.code == "malformed_json"

    def test_non_object_is_400(self):
        err = _err(parse_json_body, b"[1, 2]")
        assert err.status == 400 and err.code == "malformed_json"

    def test_error_body_shape(self):
        err = _err(parse_json_body, b"")
        body = err.body()
        assert set(body) == {"error"}
        assert body["error"]["code"] == "empty_body"
        assert isinstance(body["error"]["message"], str)


class TestDesignParams:
    def test_missing_design(self):
        assert _err(design_params, {}).code == "missing_design"
        assert _err(design_params, {"design": {}}).code == "missing_design"
        assert _err(design_params, {"design": [1]}).code == "missing_design"

    def test_fingerprint_is_key_order_independent(self):
        a = design_params({"design": {"ratio": 0.1, "separation": 4.0}})
        b = design_params({"design": {"separation": 4.0, "ratio": 0.1}})
        assert design_fingerprint(a) == design_fingerprint(b)

    def test_fingerprint_matches_campaign_point_id(self):
        from repro.campaign.spec import canonical_params, point_id

        params = design_params({"design": {"ratio": 0.1}})
        assert design_fingerprint(params) == point_id(
            canonical_params({"ratio": 0.1})
        )

    def test_non_scalar_design_is_400(self):
        err = _err(design_params, {"design": {"ratio": [0.1, 0.2]}})
        assert err.status == 400 and err.code == "invalid_design"

    def test_oversized_design_points_is_413(self):
        # design.points sizes the margins scan and the noise grid, so it
        # has the explicit grid's cap.
        for points in (400_000, 20_001, "400000"):
            err = _err(design_params, {"design": {"ratio": 0.1, "points": points}})
            assert err.status == 413 and err.code == "grid_too_large"
        params = design_params({"design": {"ratio": 0.1, "points": 20_000}})
        assert params["points"] == 20_000


class TestGridFromRequest:
    def test_default_is_baseband_of_omega0(self):
        from repro.core.grid import FrequencyGrid

        assert grid_from_request({}, W0) == FrequencyGrid.baseband(W0)

    def test_explicit_omega(self):
        grid = grid_from_request({"grid": {"omega": [1.0, 2.0, 3.0]}}, W0)
        assert np.array_equal(grid.omega, [1.0, 2.0, 3.0])

    def test_log_linear_baseband_kinds(self):
        log = grid_from_request(
            {"grid": {"kind": "log", "start": 0.1, "stop": 10, "points": 5}}, W0
        )
        lin = grid_from_request(
            {"grid": {"kind": "linear", "start": 1, "stop": 2, "points": 3}}, W0
        )
        base = grid_from_request({"grid": {"kind": "baseband", "points": 7}}, W0)
        assert log.omega.size == 5 and lin.omega.size == 3 and base.omega.size == 7

    def test_oversized_grid_is_413(self):
        err = _err(
            grid_from_request,
            {"grid": {"kind": "log", "start": 1, "stop": 2, "points": 10**6}},
            W0,
        )
        assert err.status == 413 and err.code == "grid_too_large"
        err = _err(grid_from_request, {"grid": {"omega": [0.0] * 30000}}, W0)
        assert err.status == 413

    def test_bad_specs_are_400(self):
        assert _err(grid_from_request, {"grid": 7}, W0).status == 400
        assert _err(grid_from_request, {"grid": {"omega": []}}, W0).status == 400
        assert (
            _err(grid_from_request, {"grid": {"kind": "banana"}}, W0).code
            == "invalid_grid"
        )
        assert (
            _err(grid_from_request, {"grid": {"kind": "log", "start": 1}}, W0).code
            == "invalid_grid"
        )


class TestDumpsBytes:
    def _round_trip(self, obj):
        return json.loads(dumps_bytes(obj))

    def test_matches_stdlib_for_plain_json(self):
        obj = {"a": 1, "b": [1.5, "x", None, True], "c": {"d": -2}}
        assert self._round_trip(obj) == json.loads(json.dumps(obj))

    def test_float64_array_is_exact(self):
        arr = np.linspace(0.1, 1.0, 17)
        decoded = np.asarray(self._round_trip({"x": arr})["x"])
        assert np.array_equal(decoded, arr)  # repr round-trips exactly

    def test_read_only_and_strided_arrays(self):
        arr = np.arange(10, dtype=float)
        arr.flags.writeable = False
        assert self._round_trip(arr) == list(range(10))
        assert self._round_trip(np.arange(10, dtype=float)[::2]) == [
            0.0,
            2.0,
            4.0,
            6.0,
            8.0,
        ]

    def test_complex_array_re_im_views(self):
        arr = np.array([1 + 2j, 3 - 4j, -0.5 + 0j])
        out = self._round_trip(arr)
        assert out == {"re": [1.0, 3.0, -0.5], "im": [2.0, -4.0, 0.0]}

    def test_non_finite_encode_as_null(self):
        out = self._round_trip(np.array([1.0, np.nan, np.inf, -np.inf]))
        assert out == [1.0, None, None, None]
        assert self._round_trip({"v": float("nan")}) == {"v": None}

    def test_2d_array_nests_rows(self):
        arr = np.arange(6, dtype=float).reshape(2, 3)
        assert self._round_trip(arr) == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]

    def test_numpy_scalars(self):
        out = self._round_trip({"i": np.int64(7), "f": np.float64(0.25)})
        assert out == {"i": 7, "f": 0.25}

    def test_exact_values_of_computed_response(self):
        """Encoded floats parse back bitwise identical to the source array."""
        rng = np.random.default_rng(42)
        arr = rng.standard_normal(64) * 1e-7
        decoded = np.asarray(self._round_trip(arr))
        assert arr.tobytes() == decoded.tobytes()
