"""A cache hit's reply is the miss reply, byte for byte, with the other flag.

``repro serve`` answers a repeated request from bytes encoded once: an
entry's first hit encodes its reply's prefix (design echo, fingerprint,
grid, values) and later hits copy those bytes.  For random designs and
grids — a one-point grid, repeated points, and grids through
``omega = 0``, where H00 is NaN and encodes as ``null`` — the miss, the
first hit and a later hit must each equal ``dumps_bytes`` of the payload
built here without the server, with ``"cached"`` false, true and true.
The scalar endpoints and the inline stability map follow the same rule.
"""

import asyncio
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign import tasks as campaign_tasks
from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec, GridSpace
from repro.obs.manifest import spec_fingerprint
from repro.pll.closedloop import ClosedLoopHTM
from repro.serve import AnalysisServer, ServerConfig
from repro.serve.protocol import design_fingerprint, design_params, dumps_bytes

DESIGNS = st.fixed_dictionaries(
    {"ratio": st.floats(0.03, 0.2), "separation": st.floats(2.0, 8.0)},
    optional={"points": st.integers(40, 400)},
)
#: rad/s for the default omega0 = 2 pi; 0 makes H00 NaN.
FREQUENCIES = st.one_of(st.just(0.0), st.floats(1e-3, 3.0))
#: A list, then up to six of its leading points again.
GRIDS = st.tuples(st.lists(FREQUENCIES, min_size=1, max_size=24), st.integers(0, 6)).map(
    lambda drawn: drawn[0] + drawn[0][: drawn[1]]
)


def served(path: str, body: dict, times: int = 3) -> list[bytes]:
    """The reply bodies of ``times`` identical requests to one fresh server,
    as the server writes them."""
    server = AnalysisServer(ServerConfig())
    raw = json.dumps(body).encode()

    async def scenario() -> list[bytes]:
        out = []
        for _ in range(times):
            status, payload, _ = await server._dispatch("POST", path, raw)
            assert status == 200, payload
            out.append(payload if isinstance(payload, bytes) else dumps_bytes(payload))
        return out

    return asyncio.run(scenario())


def assert_replies(bodies: list[bytes], payload: dict) -> None:
    miss, *hits = bodies
    assert miss == dumps_bytes(dict(payload, cached=False))
    for hit in hits:
        assert hit == dumps_bytes(dict(payload, cached=True))
    json.loads(miss)  # strict JSON: non-finite values are null


@pytest.mark.filterwarnings("ignore:.*(divide|invalid value):RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(design=DESIGNS, grid=GRIDS)
@example(design={"ratio": 0.1, "separation": 4.0}, grid=[1.0])
@example(design={"ratio": 0.1, "separation": 4.0}, grid=[0.5, 0.5, 2.0, 0.5])
@example(design={"ratio": 0.1, "separation": 4.0}, grid=[0.0, 1.0, 0.0])
def test_response_hits_repeat_the_miss_bytes(design, grid):
    params = design_params({"design": design})
    omega = np.asarray(grid, dtype=float)
    with np.errstate(all="ignore"):  # omega = 0 divides by zero
        h00 = ClosedLoopHTM(campaign_tasks.design_from_params(params)).frequency_response(
            omega
        )
    payload = {
        "design": params,
        "fingerprint": design_fingerprint(params),
        "points": omega.size,
        "omega": omega,
        "h00": h00,
    }
    assert_replies(served("/v1/response", {"design": design, "grid": {"omega": grid}}), payload)


@pytest.mark.parametrize("path, task", [("/v1/margins", "margins"), ("/v1/noise", "noise_summary")])
@settings(max_examples=6, deadline=None)
@given(design=DESIGNS)
def test_scalar_hits_repeat_the_miss_bytes(path, task, design):
    params = design_params({"design": design})
    payload = {
        "design": params,
        "fingerprint": design_fingerprint(params),
        "metrics": campaign_tasks.get_task(task)(dict(params)),
    }
    assert_replies(served(path, {"design": design}), payload)


@settings(max_examples=4, deadline=None)
@given(
    separation=st.lists(st.floats(2.0, 8.0), min_size=1, max_size=2, unique=True),
    ratio=st.floats(0.03, 0.2),
)
def test_stability_map_hits_repeat_the_miss_bytes(separation, ratio):
    body = {"space": {"separation": separation, "ratio": [ratio]}, "defaults": {"points": 100}}
    spec = CampaignSpec.create(
        name="serve-stability-map",
        space=GridSpace.of(separation=separation, ratio=[ratio]),
        task="stability_cell",
        defaults={"points": 100},
    )
    result = run_campaign(spec, workers=1)
    payload = {
        "cells": len(spec),
        "fingerprint": spec_fingerprint(spec),
        "records": [
            {
                "id": r["id"],
                "params": r["params"],
                "status": r["status"],
                "metrics": r.get("metrics"),
            }
            for r in result.records
        ],
        "failed": len(result.failed_records),
    }
    assert_replies(served("/v1/stability_map", body), payload)
