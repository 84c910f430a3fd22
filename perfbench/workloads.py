"""The three workloads, each as an untraced (end-to-end) and a traced run.

* ``serve-mix`` — open-loop Poisson arrivals at fixed rates against a
  ``repro serve`` subprocess with its default config.
* ``campaign-map`` — ``repro campaign run --workers <nproc>`` over a
  stability_cell map.
* ``campaign-sweep`` — ``repro campaign init`` plus ``nproc`` processes of
  ``repro campaign worker --stream`` with ``REPRO_OBS=1``.

Every repetition starts fresh processes, so no cache of the program
survives from one repetition into the next.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import checks, client, config, inputs, layers, procs, stats, tracing


@dataclass
class Result:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    table: str = ""

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        self.lines.append(f"{name} = {value:.6g} {unit}" + (f"  [{note}]" if note else ""))

    def note(self, line: str) -> None:
        self.lines.append(line)

    def error(self, message: str) -> None:
        self.correct = False
        self.errors.append(message)


def _pct(values: list[float], q: float) -> tuple[float, str]:
    value = stats.percentile(values, q)
    if value is None:
        raise RuntimeError(
            f"p{q:g} needs {stats.min_samples(q)} samples, got {len(values)}"
        )
    beyond = len(values) - math.ceil(q / 100.0 * len(values))
    return value, f"n={len(values)}, {beyond} beyond"


# -- serve-mix ----------------------------------------------------------------------


@dataclass
class Rung:
    rate: float
    setup_s: float
    result: client.RungResult
    schedule: list[inputs.Request]
    statz: tuple[dict, dict]
    rss_mb: float
    spans: list[dict] | None

    def latencies(self) -> list[float]:
        return self.result.latencies_ms()

    def p95(self) -> float | None:
        return stats.percentile(self.latencies(), 95)

    def passes(self) -> bool:
        """p95 within the limit, and no growing backlog: the rung completed
        at least ``KEEP_UP`` of its offered rate."""
        p95 = self.p95()
        return (
            p95 is not None
            and p95 <= config.P95_LIMIT_MS
            and self.result.achieved_rate() >= config.KEEP_UP * self.rate
        )

    def window(self) -> tuple[float, float]:
        sent = [o.sent for o in self.result.outcomes if not math.isnan(o.sent)]
        done = [o.done for o in self.result.outcomes if not math.isnan(o.done)]
        return min(sent) - 1e-3, max(done) + 1e-3


def _rung_seconds(rate: float, seconds: float) -> float:
    """Measured time of one rung: its share of ``seconds``, enough for a p95."""
    share = {
        config.LOW_RATE: config.LOW_RATE_SHARE,
        config.HIGH_RATE: config.HIGH_RATE_SHARE,
    }.get(rate, config.STAIRCASE_RUNG_SHARE)
    return max(share * seconds, stats.min_samples(95) / rate)


def _fingerprints(schedule: list[inputs.Request]) -> list[str]:
    from repro.campaign.spec import point_id

    by_key: dict[str, str] = {}
    out = []
    for request in schedule:
        if request.key not in by_key:
            by_key[request.key] = point_id(json.loads(request.body)["design"])
        out.append(by_key[request.key])
    return out


def _verification_sample(schedule: list[inputs.Request], seed: int, index: int) -> set[int]:
    """Indices of the first occurrence of a seeded sample of distinct inputs."""
    first: dict[str, int] = {}
    for i, request in enumerate(schedule):
        first.setdefault(request.key, i)
    keys = sorted(first)
    rng = np.random.default_rng([seed, 6, index])
    chosen = rng.choice(len(keys), size=min(config.VERIFY_SAMPLE, len(keys)), replace=False)
    return {first[keys[int(k)]] for k in chosen}


class Server:
    """One fresh ``repro serve`` process with its default config."""

    def __init__(self, seed: int, work: Path, traced: bool, out: Result):
        self.spans_dir = work / f"spans-serve-{time.time_ns()}" if traced else None
        self.port = procs.free_port()
        self.sampler = procs.MemorySampler()
        t0 = time.perf_counter()
        self.proc = procs.launch(
            ["serve", "--port", str(self.port)], work, work / "serve.log", self.spans_dir
        )
        try:
            self.sampler.watch(self.proc.pid)
            self.sampler.start()
            self.setup_s = procs.wait_healthy(self.proc, self.port, t0)
            warm = client.run_sequential(self.port, inputs.warmup_requests(seed))
        except BaseException:
            self.close()
            raise
        if any(status != 200 for status in warm):
            out.error(f"warm-up statuses {sorted(set(warm))}")

    def rung(self, seed: int, index: int, seconds: float, out: Result, attempt: int) -> "Rung":
        """One ladder rung, measured in one piece."""
        rung = _SlicedRung(self, seed, config.LADDER[index], seconds, slices=1, attempt=attempt)
        rung.run_slice(0)
        return rung.finish(out)

    def close(self) -> tuple[float, list[dict] | None]:
        """Stop the server; returns its peak RSS (MB) and its spans."""
        rss = self.sampler.stop()
        procs.stop(self.proc)
        spans = tracing.load(self.spans_dir) if self.spans_dir is not None else None
        return rss, spans


def _fixed_rates(
    seed: int,
    plan: list[tuple[bool, float]],
    seconds: float,
    work: Path,
    out: Result,
    between=None,
) -> list[Rung]:
    """Fixed-rate rungs, each on its own fresh server, run in alternating slices.

    ``plan`` lists ``(traced, rate)`` pairs.  Every rung's schedule is cut
    into ``SLICES`` consecutive slices by due time and the rungs take turns
    slice by slice, so each rung samples the whole run.  ``between()``, if
    given, runs after each round of slices.
    """
    servers: list[Server] = []
    try:
        for traced, _rate in plan:
            servers.append(Server(seed, work, traced, out))
        rungs = [
            _SlicedRung(server, seed, rate, seconds)
            for server, (_traced, rate) in zip(servers, plan)
        ]
        for part in range(config.SLICES):
            for rung in rungs:
                rung.run_slice(part)
            if between is not None:
                between()
        finished = [rung.finish(out) for rung in rungs]
    finally:
        closed = [server.close() for server in servers]
    for rung, (rss, spans) in zip(finished, closed):
        rung.rss_mb, rung.spans = rss, spans
    return finished


@dataclass
class _SlicedRung:
    """A rung being measured one slice at a time."""

    server: Server
    seed: int
    rate: float
    seconds: float
    slices: int = config.SLICES
    attempt: int = 0  # a repeated rung gets a fresh schedule

    def __post_init__(self):
        stream = config.LADDER.index(self.rate) + self.attempt * len(config.LADDER)
        self.duration = _rung_seconds(self.rate, self.seconds)
        self.schedule = inputs.rung_requests(self.seed, stream, self.rate, self.duration)
        self.fingerprints = _fingerprints(self.schedule)
        self.keep = _verification_sample(self.schedule, self.seed, stream)
        self.before = procs.get_json(self.server.port, "/v1/statz")
        self.parts: list[client.RungResult] = []

    def run_slice(self, part: int) -> None:
        width = self.duration / self.slices
        lo = part * width
        hi = math.inf if part == self.slices - 1 else lo + width
        index = [i for i, r in enumerate(self.schedule) if lo <= r.due < hi]
        sub = [dataclasses.replace(self.schedule[i], due=self.schedule[i].due - lo) for i in index]
        keep = {k for k, i in enumerate(index) if i in self.keep}
        fingerprints = [self.fingerprints[i] for i in index]
        self.parts.append(client.run_rung(self.server.port, sub, fingerprints, self.rate, keep))

    def finish(self, out: Result) -> Rung:
        after = procs.get_json(self.server.port, "/v1/statz")
        result = client.merge(self.rate, self.parts)
        _check_rung(self.schedule, result, out)
        return Rung(
            self.rate, self.server.setup_s, result, self.schedule, (self.before, after), 0.0, None
        )


def _check_rung(schedule: list[inputs.Request], result: client.RungResult, out: Result) -> None:
    out.attempted += result.attempted
    out.failed += result.failed
    digests: dict[str, str] = {}
    for request, outcome in zip(schedule, result.outcomes):
        if math.isnan(outcome.sent):
            continue
        if outcome.status not in (0, 200, 429, 503, 504):
            out.error(f"{request.endpoint} answered {outcome.status} to a valid request")
            continue
        if outcome.status == 200 and not outcome.ok:
            out.error(f"{request.endpoint} reply lacks the request's design fingerprint")
            continue
        if not outcome.ok:
            continue
        held = digests.setdefault(request.key, outcome.digest)
        if held != outcome.digest:
            out.error(f"two replies to the same {request.endpoint} input differ")
        if outcome.body is not None:
            problem = checks.served(request.body, request.endpoint, outcome.body)
            if problem:
                out.error(problem)


def serve_mix(seed: int, seconds: float, trace: bool, work: Path) -> Result:
    out = Result()
    if trace:
        return _serve_traced(seed, seconds, work, out)
    stairs_server = Server(seed, work, False, out)
    try:
        stairs = _Staircase(stairs_server, seed, seconds, out)
        low, high = _fixed_rates(
            seed,
            [(False, config.LOW_RATE), (False, config.HIGH_RATE)],
            seconds,
            work,
            out,
            stairs.step,
        )
    finally:
        stairs_rss, _spans = stairs_server.close()
    setups = [low.setup_s, high.setup_s, stairs_server.setup_s]
    out.metric("setup_s", stats.median(setups), "s", f"median of {len(setups)} server starts")
    for label, rung in (("low", low), ("high", high)):
        lat = rung.latencies()
        for q in (50, 95):
            value, note = _pct(lat, q)
            out.metric(f"p{q}_ms.{label}", value, "ms", f"{rung.rate:g} req/s, {note}")
    max_rps, note = stairs.estimate()
    out.metric("max_rps", max_rps, "req/s", note)
    out.metric(
        "points_per_s", max_rps, "points/s", "one request evaluates one design point: = max_rps"
    )
    rss = stats.median([low.rss_mb, high.rss_mb, stairs_rss])
    out.metric("peak_rss_mb", rss, "MB", "server process, median of its starts")
    for rung in (low, high, *stairs.rungs):
        p95 = rung.p95()
        late = rung.result.generator_lateness_ms()
        props = inputs.describe(rung.schedule)
        out.note(
            f"rung {rung.rate:g} req/s: {'pass' if rung.passes() else 'FAIL'}"
            f" p95={p95 if p95 is None else round(p95, 2)} ms"
            f" achieved={rung.result.achieved_rate():.1f} req/s"
            f" generator_late p50={stats.median(late) if late else 0:.3f} ms"
            f" max={max(late) if late else 0:.2f} ms"
            f" repeat_share={props['repeat_share']:.3f}"
            f" margins_share={props['margins_share']:.3f}"
            f" grid_points median={props['grid_points_median']:.0f} max={props['grid_points_max']}"
            f" share_ge_1000_points={props['share_ge_1000_points']:.3f}"
        )
    return out


class _Staircase:
    """``max_rps`` from a staircase on the ladder, one rung per slice round.

    A rung steps up the ladder after it passes and down after it fails, so
    the rungs gather around the highest rate that passes, and being spread
    over the whole run they sample all of its host speeds.  A rung that a
    stall of the host fails costs one step down, not the estimate.  Until
    the first failure a pass steps up two rungs, so the ladder's top is in
    reach of one run even for a server more than twice as fast as today's.
    """

    def __init__(self, server: Server, seed: int, seconds: float, out: Result):
        self.server, self.seed, self.seconds, self.out = server, seed, seconds, out
        self.index = config.LADDER.index(config.STAIRCASE_START)
        self.lowest = next(i for i, r in enumerate(config.LADDER) if r > config.HIGH_RATE)
        self.visits: dict[int, int] = {}
        self.rungs: list[Rung] = []

    def step(self) -> None:
        attempt = self.visits.get(self.index, 0)  # each visit gets a fresh schedule
        self.visits[self.index] = attempt + 1
        rung = self.server.rung(self.seed, self.index, self.seconds, self.out, attempt)
        self.rungs.append(rung)
        if not rung.passes():
            self.index -= 1
        else:
            self.index += 1 if any(not r.passes() for r in self.rungs) else 2
        self.index = min(max(self.index, self.lowest), len(config.LADDER) - 1)

    def estimate(self) -> tuple[float, str]:
        """Median achieved rate of the rungs that passed after the first
        failure; else the highest passing rung's."""
        fail = next((i for i, r in enumerate(self.rungs) if not r.passes()), None)
        passed = [r for r in self.rungs[0 if fail is None else fail + 1 :] if r.passes()]
        if fail is None or not passed:
            passed = [r for r in self.rungs if r.passes()]
            if not passed:
                return 0.0, "no rung passed"
            top = max(passed, key=lambda r: r.rate)
            return top.result.achieved_rate(), f"highest passing rung {top.rate:g} req/s"
        rates = [r.result.achieved_rate() for r in passed]
        return stats.median(rates), (
            f"median of {len(rates)} passing rungs after the first failure,"
            f" at {' '.join(f'{r.rate:g}' for r in passed)} req/s"
        )


def _serve_layers(rungs: list[Rung]) -> tuple[dict, dict]:
    """Per-layer metrics of the traced serve rungs."""
    tot = layers.Totals()
    stat = {"hits": 0, "misses": 0, "requests": 0, "calls": 0, "refused": 0, "served": 0}
    bytes_seen = []
    latency_sum = 0.0
    requests = 0
    response_requests = 0
    for rung in rungs:
        tot.add(layers.totals(rung.spans or [], rung.window()))
        before, after = rung.statz
        stat["hits"] += after["cache"]["hits"] - before["cache"]["hits"]
        stat["misses"] += after["cache"]["misses"] - before["cache"]["misses"]
        stat["requests"] += after["batcher"]["requests"] - before["batcher"]["requests"]
        stat["calls"] += (
            after["batcher"]["underlying_calls"] - before["batcher"]["underlying_calls"]
        )
        server_a, server_b = after["server"], before["server"]
        stat["refused"] += sum(
            server_a[k] - server_b[k] for k in ("rejected", "timeouts", "failures")
        )
        stat["served"] += server_a["requests"] - server_b["requests"]
        bytes_seen.append(after["cache"]["bytes"])
        for request, outcome in zip(rung.schedule, rung.result.outcomes):
            if outcome.ok:
                latency_sum += outcome.done - outcome.sent
                requests += 1
                response_requests += request.endpoint == "response"
    designs = tot.calls.get("pll.design", 0)
    waits = [b[2] - b[0] for b in tot.batches]
    queues = [b[2] - b[1] for b in tot.batches]
    encodes = tot.calls.get("serve.protocol.encode", 0)
    m = {
        "serve.protocol.parse_s": (layers.per(tot.self_of("serve.protocol.parse"), requests), "s"),
        "serve.protocol.encode_s": (layers.per(tot.self_of("serve.protocol.encode"), encodes), "s"),
        "serve.protocol.encode_bytes": (
            layers.per(tot.n.get("serve.protocol.encode", 0), encodes),
            "bytes",
        ),
        "serve.cache.lookup_s": (layers.per(tot.self_of("serve.cache"), requests), "s"),
        "serve.cache.hit_ratio": (layers.per(stat["hits"], stat["hits"] + stat["misses"]), "ratio"),
        "serve.cache.bytes": (stats.median(bytes_seen), "bytes"),
        "serve.batcher.wait_s": (layers.per(sum(waits), len(waits)), "s"),
        "serve.batcher.requests_per_call": (
            layers.per(stat["requests"], stat["calls"]),
            "req/call",
        ),
        "serve.app.queue_s": (layers.per(sum(queues), len(queues)), "s"),
        "serve.app.refused": (layers.per(stat["refused"], stat["served"]), "ratio"),
        "campaign.tasks.self_s": (layers.per(tot.self_of("campaign.tasks"), requests), "s"),
        "pll.closedloop.response_s": (
            layers.per(tot.self_of("pll.closedloop.response"), response_requests),
            "s",
        ),
    }
    m.update(_numerics(tot, designs))
    op_time = layers.per(latency_sum, requests)
    rows = _rows(tot, requests, designs)
    waits_rows = [("batcher window + compute-thread queue", layers.per(sum(waits), requests))]
    return m, {"op": "request", "op_time": op_time, "rows": rows, "waits": waits_rows}


def _numerics(tot: layers.Totals, designs: int) -> dict:
    return {
        "pll.design.design_s": (layers.per(tot.inclusive_s.get("pll.design", 0.0), designs), "s"),
        "pll.margins.self_s": (layers.per(tot.self_of("pll.margins"), designs), "s"),
        "lti.bode.crossover_s": (layers.per(tot.self_of("lti.bode"), designs), "s"),
        "lti.bode.crossover_calls": (
            layers.per(tot.calls.get("lti.bode", 0), designs),
            "calls/design",
        ),
        "pll.closedloop.lambda_s": (layers.per(tot.self_of("pll.closedloop.lambda"), designs), "s"),
        "core.aliasing.eval_s": (layers.per(tot.self_of("core.aliasing"), designs), "s"),
        "core.aliasing.points": (
            layers.per(tot.n.get("core.aliasing", 0), designs),
            "points/design",
        ),
    }


def _rows(tot: layers.Totals, ops: int, designs: int) -> list[tuple[str, float, str]]:
    rows = []
    for layer in layers.LAYERS:
        calls = tot.calls.get(layer, 0)
        if not calls:
            continue
        counts = f"{layers.per(calls, ops):.3g} calls"
        if layer == "core.aliasing":
            counts += f", {layers.per(tot.n.get(layer, 0), designs):.0f} points/design"
        if layer == "serve.protocol.encode":
            counts += f", {layers.per(tot.n.get(layer, 0), calls):.0f} bytes/call"
        rows.append((layer, layers.per(tot.self_of(layer), ops), counts))
    return rows


def _serve_traced(seed: int, seconds: float, work: Path, out: Result) -> Result:
    plain, low, high = _fixed_rates(
        seed,
        [(False, config.LOW_RATE), (True, config.LOW_RATE), (True, config.HIGH_RATE)],
        seconds,
        work,
        out,
    )
    metrics, table = _serve_layers([low, high])
    p50_plain = stats.percentile(plain.latencies(), 50)
    p50_traced = stats.percentile(low.latencies(), 50)
    overhead = (p50_traced - p50_plain) / p50_plain
    _finish_traced(out, metrics, overhead, "`p50_ms.low`", table, "serve-mix")
    out.note(
        f"p50_ms.low untraced {p50_plain:.3f} ms, traced {p50_traced:.3f} ms; "
        f"rates {config.LOW_RATE:g} and {config.HIGH_RATE:g} req/s traced"
    )
    return out


# -- campaigns ----------------------------------------------------------------------


class StoreWatch:
    """Follows a campaign store and its shards as they grow.

    Records when the store's header line appears, when its summary line
    appears, and when each point's first terminal record appears, in the
    store or in any worker's shard.
    """

    def __init__(self, path: Path):
        from repro.campaign.store import shard_dir

        self.path = path
        self.shards = shard_dir(path)
        self.offsets: dict[Path, int] = {}
        self.partial: dict[Path, bytes] = {}
        self.header_at: float | None = None
        self.summary_at: float | None = None
        self.point_at: dict[str, float] = {}

    def poll(self) -> None:
        # The store first: the summary is written after every point, so the
        # shards read after it hold every point record.
        self._read(self.path)
        if self.shards.is_dir():
            for shard in sorted(self.shards.glob("*.jsonl")):
                self._read(shard)

    def _read(self, path: Path) -> None:
        offset = self.offsets.get(path, 0)
        try:
            with path.open("rb") as handle:
                handle.seek(offset)
                data = handle.read()
        except OSError:
            return
        if not data:
            return
        now = time.perf_counter()
        self.offsets[path] = offset + len(data)
        lines = (self.partial.get(path, b"") + data).split(b"\n")
        self.partial[path] = lines.pop()
        for line in lines:
            if path == self.path and self.header_at is None:
                self.header_at = now
            if b'"kind":"point"' in line:
                self.point_at.setdefault(json.loads(line)["id"], now)
            elif b'"kind":"summary"' in line and path == self.path and self.summary_at is None:
                self.summary_at = now


def _wait(watch: StoreWatch, workers: list, timeout: float = 150.0) -> None:
    start = time.perf_counter()
    while watch.summary_at is None:
        watch.poll()
        if watch.summary_at is not None:
            break
        if all(p.poll() is not None for p in workers):
            watch.poll()
            break
        if time.perf_counter() - start > timeout:
            raise RuntimeError("campaign did not complete in time")
        time.sleep(0.01)


@dataclass
class Rep:
    setup_s: float
    wall_s: float
    points: int
    rss_mb: float
    done_ms: list[float]  # per point: launch until its terminal record appeared
    store: Path
    spans: list[dict] | None


def _finish_rep(
    store: Path, watch: StoreWatch, launched: float, seed: int, out: Result
) -> tuple[int, list[float]]:
    points, bad, errors = checks.campaign_store(store, config.CAMPAIGN_VERIFY_SAMPLE, seed)
    out.attempted += points
    out.failed += bad
    for message in errors:
        out.error(message)
    watch.poll()
    if len(watch.point_at) != points:
        out.error(f"saw terminal records of {len(watch.point_at)} of {points} points appear")
    return points, [1000.0 * (t - launched) for t in watch.point_at.values()]


def _map_rep(
    seed: int, spec_path: Path, work: Path, workers: int, traced: bool, out: Result
) -> Rep:
    tag = f"{int(time.time() * 1e6)}"
    store = work / f"map-{tag}.results.jsonl"
    spans_dir = work / f"spans-map-{tag}" if traced else None
    watch = StoreWatch(store)
    sampler = procs.MemorySampler()
    t0 = time.perf_counter()
    proc = procs.launch(
        [
            "campaign", "run", str(spec_path), "--workers", str(workers),
            "--quiet", "--out", str(store),
        ],
        work,
        work / "map.log",
        spans_dir,
    )
    sampler.watch(proc.pid)
    sampler.start()
    try:
        while watch.header_at is None and proc.poll() is None:
            watch.poll()
            time.sleep(0.005)
        _wait(watch, [proc])
    finally:
        rss = sampler.stop()
        code = procs.finish(proc)
    if code != 0 or watch.summary_at is None:
        out.error(f"campaign run exited with {code}")
    end = watch.summary_at or time.perf_counter()
    points, done = _finish_rep(store, watch, t0, seed, out)
    spans = tracing.load(spans_dir) if spans_dir is not None else None
    setup = (watch.header_at or end) - t0
    return Rep(setup, end - t0, points, rss, done, store, spans)


def _sweep_rep(seed: int, spec_path: Path, work: Path, traced: bool, out: Result) -> Rep:
    tag = f"{int(time.time() * 1e6)}"
    store = work / f"sweep-{tag}.results.jsonl"
    spans_dir = work / f"spans-sweep-{tag}" if traced else None
    t0 = time.perf_counter()
    init = procs.launch(
        ["campaign", "init", str(spec_path), "--out", str(store)], work, work / "sweep.log"
    )
    if procs.finish(init) != 0:
        out.error(f"campaign init exited with {init.returncode}")
    setup = time.perf_counter() - t0
    watch = StoreWatch(store)
    watch.poll()
    sampler = procs.MemorySampler()
    t1 = time.perf_counter()
    workers = [
        procs.launch(
            [
                "campaign", "worker", str(store), "--stream", "--quiet",
                "--max-idle", config.SWEEP_MAX_IDLE,
            ],
            work,
            work / "sweep.log",
            spans_dir,
            env={"REPRO_OBS": "1"},
        )
        for _ in range(config.NPROC)
    ]
    for proc in workers:
        sampler.watch(proc.pid)
    sampler.start()
    try:
        _wait(watch, workers)
    finally:
        rss = sampler.stop()
        codes = [procs.finish(p) for p in workers]
    if any(codes) or watch.summary_at is None:
        out.error(f"campaign workers exited with {codes}")
    end = watch.summary_at or time.perf_counter()
    points, done = _finish_rep(store, watch, t1, seed, out)
    spans = tracing.load(spans_dir) if spans_dir is not None else None
    return Rep(setup, end - t1, points, rss, done, store, spans)


def _campaign_e2e(reps: list[Rep], out: Result, what: str) -> None:
    setup = stats.median([r.setup_s for r in reps])
    out.metric("setup_s", setup, "s", f"median of {len(reps)} {what}")
    done = [d for r in reps for d in r.done_ms]
    for q in (50, 95):
        value, note = _pct(done, q)
        for label in ("low", "high"):
            out.metric(
                f"p{q}_ms.{label}",
                value,
                "ms",
                f"launch until a point's terminal record appeared in the store, {note}",
            )
    pps = stats.median([r.points / r.wall_s for r in reps])
    out.metric("points_per_s", pps, "points/s", f"median of {len(reps)} repetitions")
    out.metric("max_rps", pps, "req/s", "all points are submitted at once: = points_per_s")
    out.metric("peak_rss_mb", stats.median([r.rss_mb for r in reps]), "MB", "summed over processes")
    out.note("per repetition: points/s " + " ".join(f"{r.points / r.wall_s:.1f}" for r in reps))
    out.note("per repetition: setup s " + " ".join(f"{r.setup_s:.3f}" for r in reps))


def _repeat(seconds: float, once) -> list[Rep]:
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds or len(reps) < 3:
        reps.append(once())
    return reps


def _write_spec(work: Path, name: str, spec: dict) -> Path:
    path = work / f"{name}.json"
    path.write_text(json.dumps(spec))
    return path


def campaign_map(seed: int, seconds: float, trace: bool, work: Path) -> Result:
    out = Result()
    spec = inputs.map_spec(seed)
    spec_path = _write_spec(work, "map", spec)
    out.note(
        f"campaign-map: {inputs.spec_points(spec)} stability_cell points, "
        f"--workers {config.NPROC}"
    )
    if not trace:
        reps = _repeat(seconds, lambda: _map_rep(seed, spec_path, work, config.NPROC, False, out))
        _campaign_e2e(reps, out, "campaign runs")
        return out
    plain, traced = _alternate(lambda t: _map_rep(seed, spec_path, work, config.NPROC, t, out))
    serial = _map_rep(seed, spec_path, work, 1, True, out)
    metrics, table = _campaign_layers(traced[-1])
    metrics["campaign.executor.scaling_efficiency"] = (
        serial.wall_s / (config.NPROC * traced[-1].wall_s),
        "ratio",
    )
    overhead = _overhead(plain, traced)
    _note_pairs(out, plain, traced)
    _finish_traced(out, metrics, overhead, "wall time per point", table, "campaign-map")
    return out


def campaign_sweep(seed: int, seconds: float, trace: bool, work: Path) -> Result:
    out = Result()
    spec = inputs.sweep_spec(seed)
    spec_path = _write_spec(work, "sweep", spec)
    out.note(
        f"campaign-sweep: {inputs.spec_points(spec)} design_summary points, "
        f"{config.NPROC} lease workers"
    )
    if not trace:
        reps = _repeat(seconds, lambda: _sweep_rep(seed, spec_path, work, False, out))
        _campaign_e2e(reps, out, "campaign inits")
        return out
    plain, traced = _alternate(lambda t: _sweep_rep(seed, spec_path, work, t, out))
    metrics, table = _campaign_layers(traced[-1])
    overhead = _overhead(plain, traced)
    _note_pairs(out, plain, traced)
    _finish_traced(out, metrics, overhead, "wall time per point", table, "campaign-sweep")
    return out


def _alternate(rep) -> tuple[list[Rep], list[Rep]]:
    """Two untraced and two traced repetitions, alternating.

    One untraced repetition runs first and is discarded: the first start
    in a run reads the interpreter and libraries from a cold page cache.
    """
    rep(False)
    plain: list[Rep] = []
    traced: list[Rep] = []
    for _ in range(2):
        plain.append(rep(False))
        traced.append(rep(True))
    return plain, traced


def _overhead(plain: list[Rep], traced: list[Rep]) -> float:
    """(traced - untraced) / untraced of the mean wall time per point.

    Positive means tracing slowed the campaign down, as on serve-mix.
    """
    def time_per_point(reps: list[Rep]) -> float:
        return sum(r.wall_s / r.points for r in reps) / len(reps)

    return time_per_point(traced) / time_per_point(plain) - 1.0


def _note_pairs(out: Result, plain: list[Rep], traced: list[Rep]) -> None:
    for label, reps in (("untraced", plain), ("traced", traced)):
        out.note(f"{label} points/s: " + " ".join(f"{r.points / r.wall_s:.1f}" for r in reps))


def _sidecars(store: Path) -> tuple[int, int]:
    from repro.campaign.lease import lease_dir
    from repro.campaign.store import shard_dir
    from repro.obs.heartbeat import heartbeat_dir
    from repro.obs.manifest import manifest_path
    from repro.obs.profile import profile_dir
    from repro.obs.stream import stream_path
    from repro.obs.trace import trace_dir

    total = files = 0
    for path in (
        heartbeat_dir(store),
        stream_path(store),
        trace_dir(store),
        profile_dir(store),
        manifest_path(store),
        lease_dir(store),
        shard_dir(store),
    ):
        if path.is_file():
            total += path.stat().st_size
            files += 1
        elif path.is_dir():
            for child in path.rglob("*"):
                if child.is_file():
                    total += child.stat().st_size
                    files += 1
    return total, files


def _campaign_layers(rep: Rep) -> tuple[dict, dict]:
    from repro.campaign.store import ResultStore

    tot = layers.totals(rep.spans or [])
    points = rep.points
    designs = tot.calls.get("pll.design", 0)
    task_s = tot.inclusive_s.get("campaign.tasks", 0.0)
    processes = max(len(tot.task_pids), 1)
    capacity = processes * rep.wall_s
    batches = tot.fn_calls.get("mark_done", 0)
    duplicates = sum(
        1 for n in ResultStore.open(rep.store).terminal_record_counts().values() if n > 1
    )
    sidecar_bytes, sidecar_files = _sidecars(rep.store)
    m = {
        "campaign.tasks.self_s": (layers.per(tot.self_of("campaign.tasks"), points), "s"),
        "baselines.zdomain.poles_s": (layers.per(tot.self_of("baselines.zdomain"), points), "s"),
        "campaign.executor.busy_ratio": (layers.per(task_s, capacity), "ratio"),
        "campaign.executor.overhead_s": (layers.per(capacity - task_s, points), "s"),
        "campaign.store.append_s": (layers.per(tot.self_of("campaign.store.append"), points), "s"),
        "campaign.store.fsyncs": (
            layers.per(tot.counts.get("store.fsyncs", 0), points),
            "fsyncs/point",
        ),
        "campaign.store.read_s": (layers.per(tot.self_of("campaign.store.read"), points), "s"),
        "campaign.store.records_read_per_point": (
            layers.per(tot.counts.get("store.records", 0), points),
            "records/point",
        ),
        "campaign.lease.claim_s": (layers.per(tot.self_of("campaign.lease"), batches), "s"),
        "campaign.lease.claim_win_ratio": (
            layers.per(tot.counts.get("lease.wins", 0), tot.counts.get("lease.attempts", 0)),
            "ratio",
        ),
        "campaign.lease.duplicates": (duplicates, "count"),
        "obs.sidecar_bytes_per_point": (layers.per(sidecar_bytes, points), "bytes/point"),
        "obs.sidecar_files": (sidecar_files, "count"),
    }
    m.update(_numerics(tot, designs))
    rows = _rows(tot, points, designs)
    return m, {
        "op": "point",
        "op_time": layers.per(capacity, points),
        "rows": rows,
        "waits": [],
    }


# -- traced output ------------------------------------------------------------------

#: Every per-layer metric and its unit; a layer that does no work on a
#: workload reports 0 there.
PER_LAYER_UNITS = {
    "serve.protocol.parse_s": "s",
    "serve.protocol.encode_s": "s",
    "serve.protocol.encode_bytes": "bytes",
    "serve.cache.lookup_s": "s",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.bytes": "bytes",
    "serve.batcher.wait_s": "s",
    "serve.batcher.requests_per_call": "req/call",
    "serve.app.queue_s": "s",
    "serve.app.refused": "ratio",
    "campaign.tasks.self_s": "s",
    "pll.design.design_s": "s",
    "pll.margins.self_s": "s",
    "lti.bode.crossover_s": "s",
    "lti.bode.crossover_calls": "calls/design",
    "pll.closedloop.lambda_s": "s",
    "pll.closedloop.response_s": "s",
    "core.aliasing.eval_s": "s",
    "core.aliasing.points": "points/design",
    "baselines.zdomain.poles_s": "s",
    "campaign.executor.busy_ratio": "ratio",
    "campaign.executor.overhead_s": "s",
    "campaign.executor.scaling_efficiency": "ratio",
    "campaign.store.append_s": "s",
    "campaign.store.fsyncs": "fsyncs/point",
    "campaign.store.read_s": "s",
    "campaign.store.records_read_per_point": "records/point",
    "campaign.lease.claim_s": "s",
    "campaign.lease.claim_win_ratio": "ratio",
    "campaign.lease.duplicates": "count",
    "obs.sidecar_bytes_per_point": "bytes/point",
    "obs.sidecar_files": "count",
    "bench.remainder_s": "s",
    "bench.trace_overhead": "ratio",
}


def _finish_traced(
    out: Result, metrics: dict, overhead: float, main: str, table: dict, workload: str
) -> None:
    accounted = sum(r[1] for r in table["rows"]) + sum(w[1] for w in table["waits"])
    metrics["bench.remainder_s"] = (table["op_time"] - accounted, "s")
    metrics["bench.trace_overhead"] = (overhead, "ratio")
    ran = set(metrics)
    for name, unit in PER_LAYER_UNITS.items():
        value, unit = metrics.get(name, (0.0, unit))
        out.metric(name, value, unit, "" if name in ran else "layer not on this workload")
    out.table = layers.table(
        workload,
        table["op"],
        table["op_time"],
        table["rows"],
        table["waits"],
        (main, overhead),
    )


WORKLOADS = {
    "serve-mix": serve_mix,
    "campaign-map": campaign_map,
    "campaign-sweep": campaign_sweep,
}


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> Result:
    """Run one workload in a private work directory under ``root``."""
    work = root / ".perfbench-work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = WORKLOADS[name](seed, seconds, trace, work)
        problem = checks.quickstart()
        if problem:
            result.error(problem)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
