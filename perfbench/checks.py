"""Correctness gate: served and stored results against in-process recomputation.

Runs in the benchmark's own process through the public API, after the
timed phase, so it costs the measured program nothing.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from perfbench import config

MARGIN_FIELDS = (
    "omega_ug_lti",
    "phase_margin_lti_deg",
    "omega_ug_eff",
    "phase_margin_eff_deg",
    "bandwidth_extension",
    "margin_degradation",
)


def _design(params: dict):
    from repro.pll.design import design_typical_loop

    omega0 = float(params.get("omega0", 2 * math.pi))
    return design_typical_loop(
        omega0=omega0,
        omega_ug=float(params["ratio"]) * omega0,
        separation=float(params.get("separation", 4.0)),
    )


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * abs(b)


def quickstart() -> str | None:
    """The README quickstart margins line; an error message when it drifts."""
    from repro import FrequencyGrid, compare_margins, design_typical_loop

    omega0 = 2 * np.pi
    pll = design_typical_loop(omega0=omega0, omega_ug=0.15 * omega0)
    line = compare_margins(pll, grid=FrequencyGrid.baseband(omega0, points=4000)).summary()
    if not line.startswith(config.QUICKSTART_LINE):
        return f"quickstart line drifted: {line!r}"
    return None


def served(request_body: bytes, endpoint: str, response_body: bytes) -> str | None:
    """Check one served response against ``compare_margins`` / ``frequency_response``."""
    from repro.pll.closedloop import ClosedLoopHTM
    from repro.pll.margins import compare_margins

    request = json.loads(request_body)
    reply = json.loads(response_body)
    pll = _design(request["design"])
    if endpoint == "margins":
        expected = compare_margins(pll, points=4000)
        for field in MARGIN_FIELDS:
            got = reply["metrics"][field]
            got = math.nan if got is None else float(got)
            if not _close(got, float(getattr(expected, field)), config.MARGINS_RTOL):
                return f"margins {field}: served {got!r}, expected {getattr(expected, field)!r}"
        return None
    omega = np.asarray(request["grid"]["omega"], dtype=float)
    served_omega = np.asarray(reply["omega"], dtype=float)
    if served_omega.shape != omega.shape or not np.array_equal(served_omega, omega):
        return "response grid differs from the requested grid"
    h00 = reply["h00"]
    got = np.asarray(
        [math.nan if v is None else v for v in h00["re"]], dtype=float
    ) + 1j * np.asarray([math.nan if v is None else v for v in h00["im"]], dtype=float)
    expected = ClosedLoopHTM(pll).frequency_response(omega)
    if not np.allclose(got, expected, rtol=config.H00_RTOL, atol=0.0, equal_nan=True):
        worst = float(np.nanmax(np.abs(got - expected) / np.abs(expected)))
        return f"H00 differs from frequency_response (max relative error {worst:.3g})"
    return None


def campaign_store(store: Path, sample: int, seed: int) -> tuple[int, int, list[str]]:
    """One ok terminal record per point, and sampled metrics equal to the adapter.

    Returns ``(points, bad_points, errors)``; a bad point is one without
    exactly one ``ok`` terminal record across the store and its shards.
    """
    from repro.campaign.spec import CampaignSpec
    from repro.campaign.store import ResultStore
    from repro.campaign.tasks import get_task

    handle = ResultStore.open(store)
    spec = CampaignSpec.from_json(handle.spec_data())
    points = list(spec.points())
    counts = handle.terminal_record_counts()
    merged = {r["id"]: r for r in handle.merged_point_records()}
    bad = [
        pid
        for pid, _params in points
        if counts.get(pid) != 1 or merged.get(pid, {}).get("status") != "ok"
    ]
    errors = [f"{len(bad)} point(s) without exactly one ok terminal record"] if bad else []
    rng = np.random.default_rng([seed, 5])
    task = get_task(spec.task)
    for index in rng.choice(len(points), size=min(sample, len(points)), replace=False):
        pid, params = points[int(index)]
        stored = merged.get(pid, {}).get("metrics") or {}
        direct = task(dict(params))
        for name, value in direct.items():
            got = stored.get(name)
            got = math.nan if got is None else float(got)
            if not (got == float(value) or (math.isnan(got) and math.isnan(float(value)))):
                errors.append(f"point {pid} {name}: stored {got!r}, adapter {value!r}")
    return len(points), len(bad), errors
