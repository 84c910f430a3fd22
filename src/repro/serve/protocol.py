"""Wire protocol of the analysis service: requests, errors, serialization.

The serving layer speaks plain HTTP/JSON (stdlib only).  This module owns
everything that touches the wire format so the app/batcher stay about
control flow:

* :class:`ServeError` — structured HTTP errors.  Every client-visible
  failure maps to one ``{"error": {"code", "message", ...}}`` body with a
  meaningful status (400 malformed request, 404 unknown route/job, 413
  oversized body, 429 admission backpressure, 503 feature disabled, 504
  deadline exceeded, 500 anything unexpected).
* request parsing — :func:`parse_json_body`, :func:`design_params`,
  :func:`grid_from_request`: JSON bodies carry a ``design`` parameter dict
  (the same scalars the campaign task adapters accept) plus
  endpoint-specific fields.  Design identity is the campaign point-id
  scheme — :func:`design_fingerprint` is :func:`repro.campaign.spec.
  point_id` (canonical-JSON blake2b), so a design hashes identically
  whether it arrives over HTTP or enumerates out of a campaign space.
* response encoding — :func:`dumps_bytes`: JSON with **zero intermediate
  copies** for numpy arrays.  A C-contiguous float64 array is serialized
  by iterating ``memoryview(arr).cast("d")`` (element-at-a-time off the
  original buffer — never ``tolist()``, which materializes the whole array
  as boxed floats first); complex arrays are emitted as ``{"re", "im"}``
  from their ``.real``/``.imag`` *views* (no copy either).  Non-finite
  values encode as ``null`` (JSON has no NaN/Inf).
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Mapping

import numpy as np

from repro._errors import ValidationError
from repro.campaign.spec import canonical_params, point_id
from repro.core.grid import FrequencyGrid

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_GRID_POINTS",
    "ServeError",
    "design_fingerprint",
    "design_params",
    "dumps_bytes",
    "error_body",
    "grid_from_request",
    "parse_json_body",
]

#: Request-body cap: analysis requests are parameter dicts, never bulk
#: uploads, so anything past 1 MiB is a client bug (or abuse) -> 413.
MAX_BODY_BYTES = 1 << 20

#: Frequency-point cap for a request grid and for ``design.points``: the
#: evaluation's memory grows linearly with it -> 413 beyond.
MAX_GRID_POINTS = 20_000


class ServeError(ValidationError):
    """A client-visible service error with an HTTP status and stable code."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after: float | None = None,
        **detail: Any,
    ):
        super().__init__(message)
        self.status = int(status)
        self.code = str(code)
        self.message = str(message)
        self.retry_after = retry_after
        self.detail = detail

    def body(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "error": {"code": self.code, "message": self.message}
        }
        if self.detail:
            out["error"]["detail"] = self.detail
        return out


def error_body(status: int, code: str, message: str) -> dict[str, Any]:
    """A :class:`ServeError`-shaped body without raising."""
    return {"error": {"code": code, "message": message}}


def parse_json_body(raw: bytes) -> dict[str, Any]:
    """Decode a request body into a JSON object; 400 on anything else."""
    if not raw:
        raise ServeError(400, "empty_body", "request body must be a JSON object")
    try:
        data = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ServeError(
            400, "malformed_json", f"request body is not valid JSON: {exc}"
        ) from None
    if not isinstance(data, dict):
        raise ServeError(
            400,
            "malformed_json",
            f"request body must be a JSON object, got {type(data).__name__}",
        )
    return data


def design_params(body: Mapping[str, Any]) -> dict[str, Any]:
    """The canonical design-parameter dict of a request body.

    ``body["design"]`` must be an object of JSON scalars — the same
    parameters the campaign task adapters take (``ratio``/``omega_ug``,
    ``separation``, ``omega0``, ``points``, ...).  Canonicalization (key
    sort + scalar coercion) is what makes the fingerprint stable.
    ``points`` above :data:`MAX_GRID_POINTS` is a 413, as for a grid.
    """
    design = body.get("design")
    if not isinstance(design, Mapping) or not design:
        raise ServeError(
            400,
            "missing_design",
            "request needs a non-empty 'design' object of scalar parameters",
        )
    try:
        params = canonical_params(design)
    except ValidationError as exc:
        raise ServeError(400, "invalid_design", str(exc)) from None
    try:
        too_large = float(params.get("points", 0)) > MAX_GRID_POINTS
    except ValueError:  # not a number: the task adapter rejects it
        too_large = False
    if too_large:
        raise ServeError(
            413,
            "grid_too_large",
            f"design.points is {params['points']}; the limit is {MAX_GRID_POINTS}",
        )
    return params


def design_fingerprint(params: Mapping[str, Any]) -> str:
    """Deterministic blake2b fingerprint — the campaign point-id scheme."""
    return point_id(params)


def grid_from_request(
    body: Mapping[str, Any], omega0: float, max_points: int = MAX_GRID_POINTS
) -> FrequencyGrid:
    """Build the request's frequency grid.

    ``body["grid"]`` is either ``{"omega": [...]}`` (explicit rad/s values)
    or ``{"kind": "log"|"linear"|"baseband", "start", "stop", "points"}``.
    Missing entirely, the canonical baseband margin grid of the design's
    ``omega0`` is used (200 points up to just below ``omega0/2``).
    """
    spec = body.get("grid")
    try:
        if spec is None:
            return FrequencyGrid.baseband(omega0)
        if not isinstance(spec, Mapping):
            raise ServeError(
                400, "invalid_grid", "'grid' must be a JSON object"
            )
        if "omega" in spec:
            omega = np.asarray(spec["omega"], dtype=float)
            if omega.ndim != 1 or omega.size == 0:
                raise ServeError(
                    400, "invalid_grid", "'grid.omega' must be a non-empty list"
                )
            if omega.size > max_points:
                raise ServeError(
                    413,
                    "grid_too_large",
                    f"grid has {omega.size} points; the limit is {max_points}",
                )
            return FrequencyGrid(omega)
        kind = str(spec.get("kind", "log"))
        points = int(spec.get("points", 200))
        if points > max_points:
            raise ServeError(
                413,
                "grid_too_large",
                f"grid has {points} points; the limit is {max_points}",
            )
        if kind == "baseband":
            return FrequencyGrid.baseband(
                float(spec.get("omega0", omega0)), points=points
            )
        if kind not in ("log", "linear"):
            raise ServeError(
                400,
                "invalid_grid",
                f"unknown grid kind {kind!r}; expected log/linear/baseband",
            )
        start = float(spec["start"])
        stop = float(spec["stop"])
        factory = FrequencyGrid.log if kind == "log" else FrequencyGrid.linear
        return factory(start, stop, points)
    except ServeError:
        raise
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ServeError(400, "invalid_grid", f"bad grid spec: {exc}") from None


# -- zero-copy JSON encoding -------------------------------------------------------

_COMMA = b","


def _encode_float(value: float, out: list[bytes]) -> None:
    if math.isfinite(value):
        out.append(repr(value).encode())
    else:
        out.append(b"null")


def _iter_floats(arr: np.ndarray) -> Iterable[float]:
    """Element-at-a-time float iteration without materializing a list.

    C-contiguous float64 data iterates straight off the buffer through a
    ``memoryview`` cast; strided views (``.real`` of a complex array) fall
    back to ``np.nditer``, which also walks the original buffer.
    """
    if arr.dtype == np.float64 and arr.flags.c_contiguous:
        # cast() only converts via the byte format, so round-trip through "B".
        return memoryview(arr).cast("B").cast("d")
    return (float(x) for x in np.nditer(arr, order="C"))


def _encode_array(arr: np.ndarray, out: list[bytes]) -> None:
    if np.iscomplexobj(arr):
        # .real/.imag are strided *views* of the same buffer — no copies.
        out.append(b'{"re":')
        _encode_array(arr.real, out)
        out.append(b',"im":')
        _encode_array(arr.imag, out)
        out.append(b"}")
        return
    flat = arr.reshape(-1) if arr.ndim != 1 else arr
    if arr.ndim > 1:
        # Nested rows keep the shape information; each row is a 1-D view.
        out.append(b"[")
        for i in range(arr.shape[0]):
            if i:
                out.append(_COMMA)
            _encode_array(arr[i], out)
        out.append(b"]")
        return
    out.append(b"[")
    first = True
    for value in _iter_floats(flat):
        if not first:
            out.append(_COMMA)
        first = False
        _encode_float(float(value), out)
    out.append(b"]")


def _encode(obj: Any, out: list[bytes]) -> None:
    if isinstance(obj, np.ndarray):
        _encode_array(obj, out)
    elif isinstance(obj, Mapping):
        out.append(b"{")
        first = True
        for key, value in obj.items():
            if not first:
                out.append(_COMMA)
            first = False
            out.append(json.dumps(str(key)).encode())
            out.append(b":")
            _encode(value, out)
        out.append(b"}")
    elif isinstance(obj, (list, tuple)):
        out.append(b"[")
        for i, value in enumerate(obj):
            if i:
                out.append(_COMMA)
            _encode(value, out)
        out.append(b"]")
    elif isinstance(obj, (np.floating, float)):
        _encode_float(float(obj), out)
    elif isinstance(obj, (np.integer,)):
        out.append(str(int(obj)).encode())
    else:
        out.append(json.dumps(obj).encode())


def dumps_bytes(obj: Any) -> bytes:
    """Encode a response payload as JSON bytes (see module docs).

    Numpy arrays stream element-wise off their buffers; NaN/Inf become
    ``null`` so the output is always strict JSON.
    """
    out: list[bytes] = []
    _encode(obj, out)
    return b"".join(out)
