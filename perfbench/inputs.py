"""Seeded input generation: every request and campaign spec comes from the seed.

The program under test receives only what these functions return; nothing
here imports ``repro``, so the inputs are fixed by the seed alone.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from perfbench import config

OMEGA0 = 2.0 * math.pi


@dataclass(frozen=True)
class Request:
    """One scheduled request of an open-loop rung."""

    due: float  # seconds after the rung starts
    endpoint: str  # "margins" or "response"
    body: bytes  # the exact JSON body sent
    key: str  # input identity: equal keys are byte-identical requests
    hot: bool  # drawn from the hot set


def _rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng([int(p) for p in parts])


def _design(rng: np.random.Generator, separation_range) -> dict:
    return {
        "ratio": round(float(rng.uniform(*config.RATIO_RANGE)), 5),
        "separation": round(float(rng.uniform(*separation_range)), 4),
    }


def _grid_points(quantile: float) -> int:
    """Grid size at ``quantile`` of the log-uniform size distribution."""
    lo, hi = config.GRID_POINTS
    return int(round(math.exp(math.log(lo) + quantile * (math.log(hi) - math.log(lo)))))


def _grid(rng: np.random.Generator, points: int) -> list[float]:
    lo = 10.0 ** rng.uniform(-3.0, -2.0) * OMEGA0
    hi = rng.uniform(0.30, 0.49) * OMEGA0
    return np.logspace(math.log10(lo), math.log10(hi), points).tolist()


def _strata(rng: np.random.Generator, count: int) -> list[float]:
    """``count`` stratified quantiles in random order (one per equal slice).

    Grid sizes span two decades and a 3000-point H00 costs ~100x a
    30-point one to encode, so plain random draws would let one seed's
    mix be much heavier than another's; one draw per slice keeps every
    seed's size distribution the same while the values still vary.
    """
    quantiles = (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count
    return list(rng.permutation(quantiles))


def _body(endpoint: str, design: dict, grid: list[float] | None) -> bytes:
    payload: dict = {"design": design}
    if grid is not None:
        payload["grid"] = {"omega": grid}
    return json.dumps(payload, separators=(",", ":")).encode()


def _request(due: float, endpoint: str, body: bytes, hot: bool) -> Request:
    key = endpoint + ":" + hashlib.blake2b(body, digest_size=8).hexdigest()
    return Request(due=due, endpoint=endpoint, body=body, key=key, hot=hot)


def _make(rng: np.random.Generator, endpoint: str, separation_range, quantile: float) -> bytes:
    design = _design(rng, separation_range)
    grid = _grid(rng, _grid_points(quantile)) if endpoint == "response" else None
    return _body(endpoint, design, grid)


#: Hot-set endpoints by Zipf rank, alternating from a margins entry on the
#: heaviest rank: margins entries carry ~61% of the hot traffic.
_HOT_ENDPOINTS = tuple(
    "margins" if rank % 2 == 0 else "response" for rank in range(config.HOT_SET)
)
_HOT_RESPONSE_RANKS = tuple(r for r, e in enumerate(_HOT_ENDPOINTS) if e == "response")


def _hot_response_strata(rng: np.random.Generator) -> np.ndarray:
    """The size stratum held by each hot response rank, one row per rotation.

    The hot set holds one response entry per size stratum for the whole
    rung; what rotates is which entry holds which Zipf rank.  Rotation 0
    deals the strata to the response ranks in a seeded random order, and
    every later rotation shifts that order by one stratum, so over a
    rung's ``HOT_ROTATIONS`` rotations every rank holds every stratum once
    (a cyclic Latin square).  A grid's size therefore does not depend on
    its popularity, and every size stratum carries the same share of the
    hot traffic for every seed.  With one fixed assignment per rung,
    whichever sizes landed on the two heaviest response ranks would set
    p50.
    """
    count = len(_HOT_RESPONSE_RANKS)
    base = rng.permutation(count)
    return (base[None, :] + np.arange(config.HOT_ROTATIONS)[:, None]) % count


def _kinds(rng: np.random.Generator, count: int, fresh_before: int) -> list[tuple[str, int]]:
    """Request kinds of one rotation, in random order.

    ``HOT_SHARE`` of them are hot ranks, by systematic sampling of the Zipf
    weights (each rank's count within one of its expectation); the rest
    are fresh, ``FRESH_MARGINS_SHARE`` of them margins by systematic
    sampling across the whole rung (``fresh_before`` fresh requests came
    earlier).
    """
    weights = 1.0 / np.arange(1, config.HOT_SET + 1) ** config.ZIPF_S
    cdf = np.cumsum(weights / weights.sum())
    hot = int(round(config.HOT_SHARE * count))
    points = (np.arange(hot) + rng.uniform()) / max(hot, 1)
    ranks = np.minimum(np.searchsorted(cdf, points), config.HOT_SET - 1)
    share = config.FRESH_MARGINS_SHARE
    kinds = [("hot", int(r)) for r in ranks] + [
        ("fresh", int(math.floor((i + 1) * share) == math.floor(i * share)))
        for i in range(fresh_before, fresh_before + count - hot)
    ]
    return [kinds[int(k)] for k in rng.permutation(count)]


def rung_requests(seed: int, rung: int, rate: float, duration: float) -> list[Request]:
    """The open-loop schedule of one rung: Poisson arrivals at ``rate``.

    Arrivals are a Poisson process conditioned on its count
    (``round(rate * duration)`` uniform order statistics), so every rung
    offers exactly its nominal rate.  ``HOT_SHARE`` of requests repeat one
    of ``HOT_SET`` (design, grid) pairs in proportion to Zipf weights; the
    rest carry fresh designs, half of them margins.  The hot set is fixed
    for the rung.  Its response entries, one at the middle of each
    grid-size stratum, trade Zipf ranks in each of ``HOT_ROTATIONS``
    equal stretches of the rung (``_hot_response_strata``).  The
    composition of every stretch is stratified (fixed counts, seeded
    order), so the hit/miss and grid-size mix that sets p50 and p95 is
    the same for every seed; designs, grids and arrival order still come
    from the seed.
    """
    rng = _rng(seed, 1, rung)
    count = max(1, int(round(rate * duration)))
    dues = np.sort(rng.uniform(0.0, duration, count))
    strata = len(_HOT_RESPONSE_RANKS)
    margins = {
        rank: _make(rng, "margins", config.SEPARATION_RANGE, 0.0)
        for rank, endpoint in enumerate(_HOT_ENDPOINTS)
        if endpoint == "margins"
    }
    responses = [
        _make(rng, "response", config.SEPARATION_RANGE, (stratum + 0.5) / strata)
        for stratum in range(strata)
    ]
    rotations = np.minimum(
        (dues / duration * config.HOT_ROTATIONS).astype(int), config.HOT_ROTATIONS - 1
    )
    kinds: list[tuple[str, int]] = []
    for rotation in range(config.HOT_ROTATIONS):
        fresh_before = sum(kind == "fresh" for kind, _ in kinds)
        kinds += _kinds(rng, int(np.sum(rotations == rotation)), fresh_before)
    fresh_sizes = iter(_strata(rng, sum(kind == "fresh" for kind, _ in kinds)))
    holders = _hot_response_strata(rng)
    out = []
    for due, rotation, (kind, value) in zip(dues, rotations, kinds):
        if kind == "hot":
            endpoint = _HOT_ENDPOINTS[value]
            if endpoint == "margins":
                body = margins[value]
            else:
                body = responses[int(holders[rotation][_HOT_RESPONSE_RANKS.index(value)])]
            out.append(_request(float(due), endpoint, body, True))
        else:
            endpoint = ("margins", "response")[value]
            body = _make(rng, endpoint, config.SEPARATION_RANGE, next(fresh_sizes))
            out.append(_request(float(due), endpoint, body, False))
    return out


def warmup_requests(seed: int) -> list[Request]:
    """Warm-up requests on designs outside the measured population."""
    rng = _rng(seed, 2)
    sizes = _strata(rng, config.WARMUP_REQUESTS)
    out = []
    for i in range(config.WARMUP_REQUESTS):
        endpoint = ("margins", "response")[i % 2]
        body = _make(rng, endpoint, config.WARMUP_SEPARATION, sizes[i])
        out.append(_request(0.0, endpoint, body, False))
    return out


def repeat_share(requests: list[Request]) -> float:
    """Share of requests whose exact input appeared earlier in the sequence."""
    seen: set[str] = set()
    repeats = 0
    for request in requests:
        if request.key in seen:
            repeats += 1
        seen.add(request.key)
    return repeats / len(requests) if requests else 0.0


def describe(requests: list[Request]) -> dict:
    """Measured input properties printed with each run."""
    grids = [
        len(json.loads(r.body)["grid"]["omega"])
        for r in requests
        if r.endpoint == "response"
    ]
    return {
        "requests": len(requests),
        "repeat_share": repeat_share(requests),
        "margins_share": sum(r.endpoint == "margins" for r in requests)
        / max(len(requests), 1),
        "grid_points_median": float(np.median(grids)) if grids else 0.0,
        "grid_points_max": max(grids) if grids else 0,
        "share_ge_1000_points": sum(g >= 1000 for g in grids) / max(len(requests), 1),
    }


def _axis(rng: np.random.Generator, lo_range, hi_range, count: int, digits: int):
    lo = rng.uniform(*lo_range)
    hi = rng.uniform(*hi_range)
    return [round(float(v), digits) for v in np.linspace(lo, hi, count)]


def map_spec(seed: int) -> dict:
    """campaign-map: a stability_cell grid across the z-domain stability limit."""
    rng = _rng(seed, 3)
    n_sep, n_ratio = config.MAP_AXES
    return {
        "name": "perfbench-map",
        "task": "stability_cell",
        "space": {
            "kind": "grid",
            "axes": {
                "separation": _axis(rng, (2.0, 2.5), (5.5, 6.5), n_sep, 4),
                "ratio": _axis(rng, (0.03, 0.06), (0.40, 0.46), n_ratio, 5),
            },
        },
    }


def sweep_spec(seed: int) -> dict:
    """campaign-sweep: a design_summary grid of fixed size."""
    rng = _rng(seed, 4)
    n_sep, n_ratio = config.SWEEP_AXES
    return {
        "name": "perfbench-sweep",
        "task": "design_summary",
        "space": {
            "kind": "grid",
            "axes": {
                "separation": _axis(rng, (2.0, 2.5), (5.5, 6.5), n_sep, 4),
                "ratio": _axis(rng, (0.02, 0.05), (0.40, 0.46), n_ratio, 5),
            },
        },
    }


def spec_points(spec: dict) -> int:
    n = 1
    for values in spec["space"]["axes"].values():
        n *= len(values)
    return n
