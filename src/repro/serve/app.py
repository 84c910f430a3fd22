"""The analysis server: asyncio HTTP/JSON front end over the task adapters.

Stdlib-only (``asyncio`` streams + hand-rolled HTTP/1.1) so serving costs
no dependencies.  The request path is deliberately thin — every endpoint
is *parse → fingerprint → cache → batch → encode*:

1. the JSON body's ``design`` dict canonicalizes to the campaign point id
   (the design **fingerprint**);
2. the :class:`~repro.serve.cache.ShardedGridCache` answers repeats
   without computing;
3. misses join the :class:`~repro.serve.batcher.MicroBatcher` — concurrent
   same-fingerprint requests collapse to one underlying evaluation on a
   merged frequency grid, sliced back per request;
4. results stream out through the zero-copy encoder
   (:func:`~repro.serve.protocol.dumps_bytes`).

Admission control is a plain in-flight counter: past ``max_inflight`` the
server answers ``429`` with ``Retry-After`` instead of queueing unbounded
work.  Requests may carry ``deadline_seconds``; a request that cannot
finish in time gets ``504`` (its batch still completes and lands in the
cache, so the retry is cheap).  Stability maps larger than the spill
threshold become background campaign jobs (:mod:`repro.serve.jobs`),
answered ``202`` + job id.

Observability: the expensive compute opens a ``serve.request/<endpoint>``
span *in the worker thread* (the obs span stack is thread-local, so spans
must never straddle an ``await`` on the event loop); the async layer
records per-endpoint request counters and latency histograms, and 500s
raise ``serve.request_failure`` health events.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import os
import time
import urllib.parse
from pathlib import Path
from typing import Any, Awaitable, Callable, Mapping

import numpy as np

from repro._errors import ReproError, ValidationError
from repro.campaign import tasks as campaign_tasks
from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec, GridSpace
from repro.obs import health as obs_health
from repro.obs import manifest as obs_manifest
from repro.obs import profile as obs_profile
from repro.obs import prom as obs_prom
from repro.obs import slo as obs_slo
from repro.obs import spans as obs
from repro.obs import trace as obs_trace
from repro.obs.registry import histogram_quantiles
from repro.pll.closedloop import ClosedLoopHTM
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import ShardedGridCache
from repro.serve.jobs import JobManager
from repro.serve.protocol import (
    MAX_BODY_BYTES,
    ServeError,
    design_fingerprint,
    design_params,
    dumps_bytes,
    error_body,
    grid_from_request,
    parse_json_body,
)

__all__ = ["AnalysisServer", "ServerConfig", "ServerStats"]

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclasses.dataclass
class ServerConfig:
    """Every serving knob, recorded verbatim in the server manifest."""

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 4  # compute thread-pool width
    max_inflight: int = 64  # admission bound -> 429 past this
    retry_after: float = 1.0  # seconds clients should back off on 429
    cache_shards: int = 4
    cache_entries: int = 256  # per shard
    cache_bytes: int | None = None  # total across shards
    cache_ttl: float | None = None  # seconds
    batch_window: float = 0.005  # micro-batching window, seconds
    max_batch: int = 64
    spill_threshold: int = 64  # stability-map cells beyond which -> job
    jobs_dir: str | None = None  # None disables the job spill path
    job_workers: int = 1
    job_autostart: bool = True  # False: only prepare store+lease plan for
    #   an external `repro campaign worker` fleet on a shared jobs dir
    job_lease_batch: int | None = None  # lease-plan batch size (None=default)
    manifest_path: str | None = None  # None -> <jobs_dir>/server.manifest.json
    trace_log: str | None = None  # span-event JSONL; enables trace recording
    profile: bool = False  # always-on statistical sampling profiler
    profile_hz: int = 97  # sampling rate for the always-on profiler
    slo_spec: str | None = None  # SLO definitions JSON; None -> serve defaults
    slo_interval: float = 10.0  # seconds between SLO burn-rate samples

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


class ServerStats:
    """Request-level counters for ``/v1/statz`` (obs-independent)."""

    __slots__ = (
        "started",
        "requests",
        "rejected",
        "timeouts",
        "failures",
        "cache_hits",
        "by_endpoint",
        "by_status",
        "by_id_source",
    )

    def __init__(self) -> None:
        self.started = time.monotonic()
        self.requests = 0
        self.rejected = 0
        self.timeouts = 0
        self.failures = 0
        self.cache_hits = 0
        self.by_endpoint: dict[str, int] = {}
        self.by_status: dict[int, int] = {}
        self.by_id_source: dict[str, int] = {}

    def record(self, endpoint: str, status: int) -> None:
        self.requests += 1
        self.by_endpoint[endpoint] = self.by_endpoint.get(endpoint, 0) + 1
        self.by_status[status] = self.by_status.get(status, 0) + 1

    def record_id_source(self, source: str) -> None:
        self.by_id_source[source] = self.by_id_source.get(source, 0) + 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "uptime_seconds": time.monotonic() - self.started,
            "requests": self.requests,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "failures": self.failures,
            "cache_hits": self.cache_hits,
            "by_endpoint": dict(self.by_endpoint),
            "by_status": {str(k): v for k, v in self.by_status.items()},
            "by_id_source": dict(self.by_id_source),
        }


class AnalysisServer:
    """One asyncio server instance; create, ``await start()``, ``serve()``.

    Lifecycle::

        server = AnalysisServer(ServerConfig(port=0))
        await server.start()          # binds; server.port is now real
        await server.serve_forever()  # or: await server.stop()
    """

    def __init__(self, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        self.stats = ServerStats()
        self.cache = ShardedGridCache(
            shards=self.config.cache_shards,
            maxsize=self.config.cache_entries,
            max_bytes=self.config.cache_bytes,
            ttl_seconds=self.config.cache_ttl,
        )
        self.batcher = MicroBatcher(
            window=self.config.batch_window, max_batch=self.config.max_batch
        )
        self.jobs: JobManager | None = (
            JobManager(
                self.config.jobs_dir,
                workers=self.config.job_workers,
                autostart=self.config.job_autostart,
                lease_batch=self.config.job_lease_batch,
            )
            if self.config.jobs_dir
            else None
        )
        self._executor = None  # set in start(): ThreadPoolExecutor(workers)
        self._server: asyncio.base_events.Server | None = None
        self._inflight = 0
        self._own_trace_sink = False  # True when start() configured trace_log
        self._own_profiler = False  # True when start() armed the sampler
        self._own_profile_sink = False
        self._profilez_busy = False  # one on-demand capture at a time
        self._env_info: dict[str, Any] = {}  # cached environment_info()
        self._slo_monitor: obs_slo.SLOMonitor | None = None
        self._slo_task: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`; 0 binds any)."""
        if self._server is None:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        from concurrent.futures import ThreadPoolExecutor

        self._executor = ThreadPoolExecutor(
            max_workers=max(int(self.config.workers), 1),
            thread_name_prefix="repro-serve",
        )
        self.batcher.executor = self._executor
        log = None
        if self.config.trace_log:
            log = Path(self.config.trace_log)
            if log.suffix not in (".jsonl", ".json"):
                log = log.with_suffix(log.suffix + ".jsonl")
            obs_trace.configure_sink(log)
            self._own_trace_sink = True
        # Environment identity is computed once (the git lookup shells out)
        # and merged into every /v1/healthz response.
        self._env_info = obs_manifest.environment_info()
        if self.config.profile or obs_profile.profile_requested():
            if obs_profile.active() is None:
                obs_profile.start(hz=self.config.profile_hz)
                self._own_profiler = True
            # The server's profile deltas share its one log.
            if log is not None and not obs_profile.sink_configured():
                obs_profile.configure_sink(log)
                self._own_profile_sink = True
        definitions = (
            obs_slo.load_slo_spec(self.config.slo_spec)
            if self.config.slo_spec
            else obs_slo.default_serve_slos()
        )
        self._slo_monitor = obs_slo.SLOMonitor(definitions)
        self._server = await asyncio.start_server(
            self._handle_client, host=self.config.host, port=self.config.port
        )
        self._slo_task = asyncio.get_running_loop().create_task(self._slo_loop())
        self._write_manifest()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._slo_task is not None:
            self._slo_task.cancel()
            try:
                await self._slo_task
            except asyncio.CancelledError:
                pass
            self._slo_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._own_profiler:
            obs_profile.stop()  # flushes the final delta when a sink is set
            self._own_profiler = False
        if self._own_profile_sink:
            obs_profile.close_sink()
            self._own_profile_sink = False
        if self._own_trace_sink:
            obs_trace.close_sink()
            self._own_trace_sink = False

    def _write_manifest(self) -> None:
        """Record the serving configuration + environment, like a run manifest."""
        path = self.config.manifest_path
        if path is None and self.config.jobs_dir:
            path = str(Path(self.config.jobs_dir) / "server.manifest.json")
        if not path:
            return
        manifest = {
            "kind": "server_manifest",
            "created": time.time(),
            "host": self.config.host,
            "port": self.port,
            "config": self.config.to_dict(),
            **obs_manifest.environment_info(),
        }
        obs_manifest.write_manifest(path, manifest)

    # -- HTTP plumbing -------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                try:
                    method, target, version = (
                        request_line.decode("latin-1").strip().split(" ", 2)
                    )
                except ValueError:
                    await self._respond(
                        writer,
                        400,
                        error_body(400, "bad_request_line", "unparseable request line"),
                        {"X-Request-Id": self._request_id(None)},
                    )
                    break
                headers: dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                request_id = self._request_id(headers)
                try:
                    length = int(headers.get("content-length") or 0)
                except ValueError:
                    length = -1
                if length < 0 or length > MAX_BODY_BYTES:
                    # Drain the oversized body (bounded) before answering:
                    # closing with unread data pending turns into a TCP RST
                    # and the client never sees the 413.
                    if 0 < length <= (64 << 20):
                        try:
                            await reader.readexactly(length)
                        except Exception:
                            pass
                    await self._respond(
                        writer,
                        413,
                        error_body(413, "body_too_large", f"body must be <= {MAX_BODY_BYTES} bytes"),
                        {"X-Request-Id": request_id},
                    )
                    break
                body = await reader.readexactly(length) if length else b""
                status, payload, extra = await self._dispatch(
                    method, target, body, headers, request_id
                )
                keep_alive = (
                    version == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                )
                await self._respond(writer, status, payload, extra, keep_alive)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        extra_headers: Mapping[str, str] | None = None,
        keep_alive: bool = False,
    ) -> None:
        body = payload if isinstance(payload, bytes) else dumps_bytes(payload)
        extra = dict(extra_headers or {})
        content_type = extra.pop("Content-Type", "application/json")
        head = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in extra.items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    def _request_id(self, headers: Mapping[str, str] | None) -> str:
        """Echo the client-supplied ``X-Request-Id`` or mint one.

        Every response — including the early 400/413 and the 429/504/500
        error paths — carries the id back, and ``/v1/statz`` counts how
        many requests brought their own versus got one generated.
        """
        rid = (headers or {}).get("x-request-id", "").strip()
        if rid:
            self.stats.record_id_source("client")
            return rid
        self.stats.record_id_source("generated")
        return os.urandom(8).hex()

    async def _dispatch(
        self,
        method: str,
        target: str,
        raw: bytes,
        headers: Mapping[str, str] | None = None,
        request_id: str | None = None,
    ) -> tuple[int, Any, dict[str, str]]:
        """Route + run one request; always returns a JSON-able triple."""
        headers = headers or {}
        if request_id is None:
            request_id = self._request_id(headers)
        parsed = urllib.parse.urlsplit(target)
        path = parsed.path.rstrip("/") or "/"
        query = dict(urllib.parse.parse_qsl(parsed.query))
        endpoint = path.split("/")[-1] if path != "/" else "root"
        if path.startswith("/v1/jobs/"):
            endpoint = "jobs"
        # Server-side span context: a child of the client's traceparent when
        # one was sent, else a fresh root when span events are being logged.
        client_ctx = obs_trace.parse_traceparent(headers.get("traceparent"))
        if client_ctx is not None:
            ctx = client_ctx.child()
        elif obs_trace.sink_configured():
            ctx = obs_trace.new_context()
        else:
            ctx = None
        start = time.perf_counter()
        wall0 = time.time() if ctx is not None else 0.0
        status, payload, extra = await self._route(method, path, query, raw, ctx)
        elapsed = time.perf_counter() - start
        extra = dict(extra)
        extra["X-Request-Id"] = request_id
        if ctx is not None:
            extra.setdefault("traceparent", ctx.traceparent())
            obs_trace.record_event(
                f"serve.request/{endpoint}",
                ctx,
                wall0,
                time.time(),
                status=status,
                request_id=request_id,
            )
        self.stats.record(endpoint, status)
        if obs.enabled():
            obs.add(f"serve.requests.{endpoint}")
            obs.observe(f"serve.latency.{endpoint}", elapsed)
            if status >= 500:
                with obs_trace.activate(ctx):
                    obs.health_event(
                        "serve.request_failure",
                        1.0,
                        0.0,
                        severity="error",
                        message=f"{method} {path} -> {status}",
                    )
        return status, payload, extra

    async def _route(
        self,
        method: str,
        path: str,
        query: dict[str, str],
        raw: bytes,
        ctx: obs_trace.TraceContext | None = None,
    ) -> tuple[int, Any, dict[str, str]]:
        try:
            if method == "GET":
                if path == "/v1/healthz":
                    return 200, self._healthz(), {}
                if path == "/v1/statz":
                    return 200, self._statz(), {}
                if path == "/v1/sloz":
                    return 200, self._sloz(), {}
                if path == "/v1/profilez":
                    return await self._profilez(query)
                if path == "/v1/metricsz":
                    return (
                        200,
                        self._metricsz(),
                        {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
                    )
                if path.startswith("/v1/jobs/"):
                    job_id = path[len("/v1/jobs/") :]
                    return 200, await self._job_status(job_id, query), {}
                raise ServeError(404, "unknown_route", f"no such resource: {path}")
            if method != "POST":
                raise ServeError(405, "method_not_allowed", f"unsupported method {method}")
            handlers: dict[
                str,
                Callable[[dict[str, Any], obs_trace.TraceContext | None], Awaitable[Any]],
            ] = {
                "/v1/margins": self._margins,
                "/v1/noise": self._noise,
                "/v1/response": self._response,
                "/v1/stability_map": self._stability_map,
            }
            handler = handlers.get(path)
            if handler is None:
                raise ServeError(404, "unknown_route", f"no such resource: {path}")
            if self._inflight >= self.config.max_inflight:
                self.stats.rejected += 1
                if obs.enabled():
                    obs.add("serve.rejected")
                raise ServeError(
                    429,
                    "overloaded",
                    f"{self._inflight} requests in flight (limit {self.config.max_inflight})",
                    retry_after=self.config.retry_after,
                )
            body = parse_json_body(raw)
            deadline = body.get("deadline_seconds")
            self._inflight += 1
            try:
                if deadline is not None:
                    result = await asyncio.wait_for(
                        handler(body, ctx), timeout=float(deadline)
                    )
                else:
                    result = await handler(body, ctx)
            finally:
                self._inflight -= 1
            if isinstance(result, tuple):  # (status, payload) handler override
                return result[0], result[1], {}
            return 200, result, {}
        except ServeError as exc:
            extra = {}
            if exc.retry_after is not None:
                extra["Retry-After"] = f"{exc.retry_after:g}"
            return exc.status, exc.body(), extra
        except asyncio.TimeoutError:
            self.stats.timeouts += 1
            return 504, error_body(504, "deadline_exceeded", "request deadline exceeded"), {}
        except ReproError as exc:
            return 400, error_body(400, "invalid_request", str(exc)), {}
        except Exception as exc:  # noqa: BLE001 - the 500 boundary
            self.stats.failures += 1
            return (
                500,
                error_body(500, "internal_error", f"{type(exc).__name__}: {exc}"),
                {},
            )

    # -- GET endpoints -------------------------------------------------------------

    def _healthz(self) -> dict[str, Any]:
        counts = obs_health.severity_counts(obs.snapshot()) if obs.enabled() else {}
        degraded = bool(counts.get("error") or counts.get("fatal"))
        env = self._env_info
        return {
            "status": "degraded" if degraded else "ok",
            "uptime_seconds": time.monotonic() - self.stats.started,
            "inflight": self._inflight,
            "health_events": counts,
            "version": env.get("package_version"),
            "git_sha": env.get("git_sha"),
            "python": env.get("python"),
            "numpy": env.get("numpy"),
        }

    # -- SLO burn-rate monitoring ----------------------------------------------------

    def _slo_sample_once(self) -> None:
        """Feed one cumulative-counter sample to the SLO monitor."""
        monitor = self._slo_monitor
        if monitor is None:
            return
        stats = self.stats
        sample: dict[str, Any] = {
            "requests": float(stats.requests),
            "failures": float(stats.failures + stats.timeouts),
            "rejected": float(stats.rejected),
        }
        snap = obs.snapshot() if obs.enabled() else None
        if snap is not None:
            counts = obs_health.severity_counts(snap)
            if counts:
                sample["health"] = counts
        monitor.sample(sample, snapshot=snap)

    async def _slo_loop(self) -> None:
        """Background sampler driving multi-window burn-rate evaluation."""
        interval = max(float(self.config.slo_interval), 0.1)
        while True:
            await asyncio.sleep(interval)
            try:
                self._slo_sample_once()
                monitor = self._slo_monitor
                if monitor is not None:
                    monitor.evaluate()  # emits obs.slo.burn events on breach
            except Exception:
                pass  # monitoring must never take down the server

    def _sloz(self) -> dict[str, Any]:
        if self._slo_monitor is None:
            raise ServeError(503, "slo_disabled", "server started without SLOs")
        self._slo_sample_once()
        return self._slo_monitor.evaluate()

    # -- on-demand profile capture ---------------------------------------------------

    async def _profilez(self, query: dict[str, str]) -> tuple[int, Any, dict[str, str]]:
        """Capture ``seconds`` of stack samples and return collapsed stacks.

        With the always-on profiler running this is a pure snapshot delta;
        otherwise a temporary sampler is armed for the window (thread mode —
        the capture runs on the compute pool, not the main thread).
        """
        try:
            seconds = float(query.get("seconds", "5"))
            hz = int(query.get("hz", str(self.config.profile_hz)))
        except ValueError:
            raise ServeError(
                400, "invalid_profile_params", "seconds and hz must be numeric"
            ) from None
        if not 0 < seconds <= 60:
            raise ServeError(
                400, "invalid_profile_params", "seconds must be in (0, 60]"
            )
        if self._profilez_busy:
            raise ServeError(
                429,
                "profile_busy",
                "a profile capture is already running",
                retry_after=seconds,
            )
        self._profilez_busy = True
        try:
            loop = asyncio.get_running_loop()
            profile = await loop.run_in_executor(
                self._executor, lambda: obs_profile.capture(seconds, hz=hz)
            )
        finally:
            self._profilez_busy = False
        if query.get("format") == "json":
            return 200, profile, {}
        return (
            200,
            obs_profile.to_collapsed(profile).encode("utf-8"),
            {"Content-Type": "text/plain; charset=utf-8"},
        )

    def _statz(self) -> dict[str, Any]:
        out = {
            "server": self.stats.to_dict(),
            "batcher": self.batcher.stats.to_dict(),
            "cache": self.cache.stats(),
            "config": self.config.to_dict(),
        }
        if obs.enabled():
            quantiles: dict[str, dict[str, float]] = {}
            snap = obs.snapshot()
            for entry in (snap.get("histograms") or {}).values():
                name = str(entry.get("name", ""))
                if name.startswith("serve.latency."):
                    q = histogram_quantiles(entry)
                    if q:
                        quantiles[name[len("serve.latency.") :]] = q
            out["latency_quantiles"] = quantiles
        if self.jobs is not None:
            out["jobs"] = [
                {k: job.get(k) for k in ("job_id", "running", "complete", "done", "failed", "pending")}
                for job in self.jobs.list_jobs()
            ]
        return out

    def _metricsz(self) -> bytes:
        """The obs registry + server counters in Prometheus text format."""
        lines = [obs_prom.to_prometheus(obs.snapshot()).rstrip("\n")]
        stats = self.stats
        for name, value in (
            ("repro_serve_requests_total", stats.requests),
            ("repro_serve_rejected_total", stats.rejected),
            ("repro_serve_timeouts_total", stats.timeouts),
            ("repro_serve_failures_total", stats.failures),
            ("repro_serve_cache_hits_total", stats.cache_hits),
        ):
            lines.append(f"# TYPE {name} counter")
            lines.append(obs_prom.format_sample(name, {}, float(value)))
        lines.append("# TYPE repro_serve_requests_by_endpoint_total counter")
        for endpoint in sorted(stats.by_endpoint):
            lines.append(
                obs_prom.format_sample(
                    "repro_serve_requests_by_endpoint_total",
                    {"endpoint": endpoint},
                    float(stats.by_endpoint[endpoint]),
                )
            )
        lines.append("# TYPE repro_serve_responses_total counter")
        for status in sorted(stats.by_status):
            lines.append(
                obs_prom.format_sample(
                    "repro_serve_responses_total",
                    {"status": str(status)},
                    float(stats.by_status[status]),
                )
            )
        lines.append("# TYPE repro_serve_requests_by_id_source_total counter")
        for source in sorted(stats.by_id_source):
            lines.append(
                obs_prom.format_sample(
                    "repro_serve_requests_by_id_source_total",
                    {"source": source},
                    float(stats.by_id_source[source]),
                )
            )
        lines.append("# TYPE repro_serve_uptime_seconds gauge")
        lines.append(
            obs_prom.format_sample(
                "repro_serve_uptime_seconds", {}, time.monotonic() - stats.started
            )
        )
        return ("\n".join(lines) + "\n").encode("utf-8")

    async def _job_status(self, job_id: str, query: dict[str, str]) -> dict[str, Any]:
        if self.jobs is None:
            raise ServeError(503, "jobs_disabled", "server started without --jobs-dir")
        if not job_id:
            raise ServeError(404, "unknown_job", "empty job id")
        loop = asyncio.get_running_loop()
        status = await loop.run_in_executor(self._executor, self.jobs.status, job_id)
        if status is None:
            raise ServeError(404, "unknown_job", f"no job {job_id!r}")
        if query.get("results") in ("1", "true", "yes") and status.get("complete"):
            status["records"] = await loop.run_in_executor(
                self._executor, self.jobs.records, job_id
            )
        return status

    # -- POST endpoints ------------------------------------------------------------

    async def _margins(
        self, body: dict[str, Any], ctx: obs_trace.TraceContext | None = None
    ) -> dict[str, Any]:
        return await self._scalar_endpoint("margins", body, ctx)

    async def _noise(
        self, body: dict[str, Any], ctx: obs_trace.TraceContext | None = None
    ) -> dict[str, Any]:
        return await self._scalar_endpoint("noise_summary", body, ctx, endpoint="noise")

    async def _scalar_endpoint(
        self,
        task_name: str,
        body: dict[str, Any],
        ctx: obs_trace.TraceContext | None = None,
        endpoint: str | None = None,
    ) -> dict[str, Any]:
        """Shared scalar path: one metrics dict per design fingerprint.

        Scalar batching is pure deduplication — every coalesced waiter
        shares the single computed metrics dict.
        """
        endpoint = endpoint or task_name
        params = design_params(body)
        fingerprint = design_fingerprint(params)
        flavor = (endpoint,)
        cached = self.cache.lookup(fingerprint, None, flavor=flavor)
        if cached is not None:
            self.stats.cache_hits += 1
            return self._scalar_payload(params, fingerprint, cached, cached=True)
        task = campaign_tasks.get_task(task_name)
        compute_ctx = ctx.child() if ctx is not None else None

        def compute(_merged: np.ndarray | None) -> dict[str, float]:
            with obs_trace.activate(compute_ctx):
                with obs.span(f"serve.request/{endpoint}", fingerprint=fingerprint):
                    return task(dict(params))

        metrics = await self.batcher.submit(
            (fingerprint, endpoint), None, compute, trace=ctx
        )
        self.cache.store(fingerprint, None, metrics, flavor=flavor)
        return self._scalar_payload(params, fingerprint, metrics, cached=False)

    @staticmethod
    def _scalar_payload(
        params: dict[str, Any],
        fingerprint: str,
        metrics: Mapping[str, float],
        cached: bool,
    ) -> dict[str, Any]:
        return {
            "design": params,
            "fingerprint": fingerprint,
            "metrics": dict(metrics),
            "cached": cached,
        }

    async def _response(
        self, body: dict[str, Any], ctx: obs_trace.TraceContext | None = None
    ) -> dict[str, Any]:
        """Closed-loop baseband frequency response H00(j omega) on a grid.

        The grid endpoint exercises the full micro-batching mechanism:
        concurrent same-design requests are computed once on the merged
        (union) grid, and each response carries exactly the grid it asked
        for — bitwise identical to a serial evaluation.
        """
        params = design_params(body)
        fingerprint = design_fingerprint(params)
        omega0 = float(params.get("omega0", 2 * math.pi))
        grid = grid_from_request(body, omega0)
        omega = grid.omega
        flavor = ("response",)
        cached = self.cache.lookup(fingerprint, omega, flavor=flavor)
        if cached is not None:
            self.stats.cache_hits += 1
            return self._response_payload(params, fingerprint, omega, cached, True)
        compute_ctx = ctx.child() if ctx is not None else None

        def compute(merged: np.ndarray | None) -> np.ndarray:
            assert merged is not None
            with obs_trace.activate(compute_ctx):
                with obs.span(
                    "serve.request/response",
                    fingerprint=fingerprint,
                    points=int(merged.size),
                ):
                    pll = campaign_tasks.design_from_params(params)
                    return ClosedLoopHTM(pll).frequency_response(merged)

        h00 = await self.batcher.submit(
            (fingerprint, "response"), omega, compute, trace=ctx
        )
        self.cache.store(fingerprint, omega, h00, flavor=flavor)
        return self._response_payload(params, fingerprint, omega, h00, False)

    @staticmethod
    def _response_payload(
        params: dict[str, Any],
        fingerprint: str,
        omega: np.ndarray,
        h00: np.ndarray,
        cached: bool,
    ) -> dict[str, Any]:
        return {
            "design": params,
            "fingerprint": fingerprint,
            "points": int(np.asarray(omega).size),
            "omega": omega,
            "h00": h00,
            "cached": cached,
        }

    async def _stability_map(
        self, body: dict[str, Any], ctx: obs_trace.TraceContext | None = None
    ) -> Any:
        """A (separation, ratio) stability map — inline when small, job when big.

        The request's parameter grid *is* a campaign spec; past the spill
        threshold it runs as a background campaign job (202 + job id),
        otherwise inline on the compute pool.
        """
        spec = self._map_spec(body)
        cells = len(spec)
        if cells > self.config.spill_threshold:
            if self.jobs is None:
                raise ServeError(
                    503,
                    "jobs_disabled",
                    f"{cells} cells exceeds the inline limit "
                    f"({self.config.spill_threshold}) and the server has no jobs dir",
                )
            loop = asyncio.get_running_loop()
            job_ctx = ctx.child() if ctx is not None else None
            spill_start = time.time() if ctx is not None else 0.0
            job_id = await loop.run_in_executor(
                self._executor, lambda: self.jobs.submit(spec, trace=job_ctx)
            )
            if ctx is not None:
                obs_trace.record_event(
                    "serve.job.spill",
                    job_ctx,
                    spill_start,
                    time.time(),
                    job_id=job_id,
                    cells=cells,
                )
            if obs.enabled():
                obs.add("serve.jobs.spilled")
            return 202, {
                "job_id": job_id,
                "cells": cells,
                "poll": f"/v1/jobs/{job_id}",
            }
        fingerprint = obs_manifest.spec_fingerprint(spec)
        flavor = ("stability_map",)
        cached = self.cache.lookup(fingerprint, None, flavor=flavor)
        if cached is not None:
            self.stats.cache_hits += 1
            return dict(cached, cached=True)
        compute_ctx = ctx.child() if ctx is not None else None

        def compute(_merged: np.ndarray | None) -> dict[str, Any]:
            with obs_trace.activate(compute_ctx):
                with obs.span("serve.request/stability_map", cells=cells):
                    result = run_campaign(spec, workers=1, trace=compute_ctx)
            return {
                "cells": cells,
                "fingerprint": fingerprint,
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

        payload = await self.batcher.submit(
            (fingerprint, "stability_map"), None, compute, trace=ctx
        )
        self.cache.store(fingerprint, None, payload, flavor=flavor)
        return dict(payload, cached=False)

    def _map_spec(self, body: dict[str, Any]) -> CampaignSpec:
        space = body.get("space")
        if not isinstance(space, Mapping) or not space:
            raise ServeError(
                400,
                "missing_space",
                "stability_map needs a 'space' object of parameter lists "
                "(e.g. {'separation': [...], 'ratio': [...]})",
            )
        defaults = body.get("defaults") or {}
        if not isinstance(defaults, Mapping):
            raise ServeError(400, "invalid_defaults", "'defaults' must be a JSON object")
        try:
            axes = {
                str(name): list(values if isinstance(values, (list, tuple)) else [values])
                for name, values in space.items()
            }
            return CampaignSpec.create(
                name=str(body.get("name", "serve-stability-map")),
                space=GridSpace.of(**axes),
                task=str(body.get("task", "stability_cell")),
                defaults=dict(defaults),
            )
        except ValidationError as exc:
            raise ServeError(400, "invalid_space", str(exc)) from None
