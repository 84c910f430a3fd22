"""End-to-end analysis-server tests over real sockets.

Covers the PR's acceptance criteria directly: 50 concurrent
same-fingerprint requests collapse to a handful of underlying evaluations
(asserted via obs counters) while every response body stays bitwise
identical to a serial evaluation; overload answers 429 + Retry-After;
heavy stability maps spill to resumable campaign job stores (the
SIGKILL-mid-job scenario is a partially-written store that a resubmitted
request attaches to and completes without recomputing finished points).
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.campaign import tasks as campaign_tasks
from repro.campaign.spec import CampaignSpec, GridSpace
from repro.campaign.store import ResultStore
from repro.obs import spans as obs
from repro.serve import AnalysisServer, ServerConfig, job_id_for

DESIGN = {"ratio": 0.1, "separation": 4.0, "points": 300}


async def _request(port, method, path, body=None):
    """Minimal HTTP/1.1 client; returns (status, headers, parsed body)."""
    status, headers, raw = await _raw_request(port, method, path, body)
    return status, headers, json.loads(raw) if raw else None


async def _raw_request(port, method, path, body=None):
    """Like :func:`_request`, but returns the body's bytes as sent."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b""
    if body is not None:
        payload = body if isinstance(body, bytes) else json.dumps(body).encode()
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
        ).encode()
        + payload
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except Exception:
        pass
    head, _, rest = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, rest


def _run(config, scenario):
    """Start a server, run the async scenario(port, server), stop, return."""

    async def main():
        server = AnalysisServer(config)
        await server.start()
        try:
            return await scenario(server.port, server)
        finally:
            await server.stop()

    return asyncio.run(main())


class TestEndpoints:
    def test_margins_round_trip_and_cache_flag(self):
        async def scenario(port, server):
            st, _, first = await _request(
                port, "POST", "/v1/margins", {"design": DESIGN}
            )
            st2, _, second = await _request(
                port, "POST", "/v1/margins", {"design": DESIGN}
            )
            return st, first, st2, second

        st, first, st2, second = _run(ServerConfig(port=0), scenario)
        assert st == 200 and st2 == 200
        assert first["cached"] is False and second["cached"] is True
        assert first["metrics"] == second["metrics"]
        assert first["fingerprint"] == second["fingerprint"]
        assert first["metrics"]["phase_margin_eff_deg"] == pytest.approx(
            55.5, abs=2.0
        )

    def test_response_returns_requested_grid(self):
        omega = np.linspace(0.5, 3.0, 12)

        async def scenario(port, server):
            st, _, body = await _request(
                port,
                "POST",
                "/v1/response",
                {"design": DESIGN, "grid": {"omega": list(omega)}},
            )
            return st, body

        st, body = _run(ServerConfig(port=0), scenario)
        assert st == 200 and body["points"] == 12
        assert np.asarray(body["omega"]).tobytes() == omega.tobytes()
        assert len(body["h00"]["re"]) == 12
        assert all(v is not None for v in body["h00"]["re"])

    def test_noise_endpoint(self):
        async def scenario(port, server):
            return await _request(
                port, "POST", "/v1/noise", {"design": {"ratio": 0.1, "points": 48}}
            )

        st, _, body = _run(ServerConfig(port=0), scenario)
        assert st == 200
        assert {"rms_jitter", "peak_transfer", "peaking_db"} <= set(body["metrics"])

    def test_small_stability_map_runs_inline(self):
        async def scenario(port, server):
            return await _request(
                port,
                "POST",
                "/v1/stability_map",
                {
                    "space": {"separation": [3.0, 4.0], "ratio": [0.05, 0.1]},
                    "defaults": {"points": 200},
                },
            )

        st, _, body = _run(ServerConfig(port=0), scenario)
        assert st == 200
        assert body["cells"] == 4 and body["failed"] == 0
        assert len(body["records"]) == 4
        assert all(r["status"] == "ok" for r in body["records"])
        assert all("z_stable" in r["metrics"] for r in body["records"])

    def test_healthz_and_statz(self):
        async def scenario(port, server):
            st1, _, health = await _request(port, "GET", "/v1/healthz")
            await _request(port, "POST", "/v1/margins", {"design": DESIGN})
            st2, _, statz = await _request(port, "GET", "/v1/statz")
            return st1, health, st2, statz

        st1, health, st2, statz = _run(ServerConfig(port=0), scenario)
        assert st1 == 200 and health["status"] == "ok"
        assert st2 == 200
        assert statz["server"]["requests"] >= 2
        assert statz["batcher"]["underlying_calls"] == 1
        assert statz["cache"]["entries"] == 1
        assert statz["config"]["max_inflight"] == 64


class TestErrorPaths:
    def test_malformed_json_is_structured_400(self):
        async def scenario(port, server):
            st, _, body = await _request(port, "POST", "/v1/margins", b"{nope")
            st2, _, body2 = await _request(port, "POST", "/v1/margins", {"x": 1})
            st3, _, body3 = await _request(port, "GET", "/v1/nothing")
            st4, _, body4 = await _request(port, "DELETE", "/v1/margins")
            return (st, body), (st2, body2), (st3, body3), (st4, body4)

        (st, b1), (st2, b2), (st3, b3), (st4, b4) = _run(
            ServerConfig(port=0), scenario
        )
        assert st == 400 and b1["error"]["code"] == "malformed_json"
        assert st2 == 400 and b2["error"]["code"] == "missing_design"
        assert st3 == 404 and b3["error"]["code"] == "unknown_route"
        assert st4 == 405 and b4["error"]["code"] == "method_not_allowed"

    def test_oversized_body_is_413(self):
        async def scenario(port, server):
            big = b'{"pad": "' + b"x" * (1 << 20) + b'"}'
            st, _, body = await _request(port, "POST", "/v1/margins", big)
            return st, body

        st, body = _run(ServerConfig(port=0), scenario)
        assert st == 413 and body["error"]["code"] == "body_too_large"

    def test_deadline_exceeded_is_504(self):
        async def scenario(port, server):
            return await _request(
                port,
                "POST",
                "/v1/margins",
                {"design": DESIGN, "deadline_seconds": 1e-4},
            )

        st, _, body = _run(ServerConfig(port=0), scenario)
        assert st == 504 and body["error"]["code"] == "deadline_exceeded"

    def test_jobs_disabled_is_503(self):
        async def scenario(port, server):
            return await _request(
                port,
                "POST",
                "/v1/stability_map",
                {"space": {"separation": [2.0, 4.0], "ratio": [0.05, 0.1]}},
            )

        st, _, body = _run(
            ServerConfig(port=0, spill_threshold=2, jobs_dir=None), scenario
        )
        assert st == 503 and body["error"]["code"] == "jobs_disabled"


class TestBackpressure:
    def test_overload_answers_429_with_retry_after(self, monkeypatch):
        # The first request's task adapter blocks until the second has been
        # answered, so it is in flight for the whole admission check.
        margins = campaign_tasks.get_task("margins")
        started, release = threading.Event(), threading.Event()

        def held_margins(params):
            started.set()
            assert release.wait(10.0)
            return margins(params)

        monkeypatch.setitem(campaign_tasks._REGISTRY, "margins", held_margins)

        async def scenario(port, server):
            slow = _request(
                port, "POST", "/v1/margins", {"design": dict(DESIGN, points=500)}
            )
            slow_task = asyncio.ensure_future(slow)
            try:
                for _ in range(2000):  # ensure it is in flight
                    if started.is_set():
                        break
                    await asyncio.sleep(0.005)
                st, headers, body = await _request(
                    port, "POST", "/v1/margins", {"design": {"ratio": 0.08}}
                )
            finally:
                release.set()
            slow_st, _, _ = await slow_task
            return st, headers, body, slow_st, server.stats.rejected

        st, headers, body, slow_st, rejected = _run(
            ServerConfig(port=0, max_inflight=1), scenario
        )
        assert slow_st == 200
        assert st == 429 and body["error"]["code"] == "overloaded"
        assert float(headers["retry-after"]) > 0
        assert rejected == 1


class TestCoalescing:
    def test_50_concurrent_requests_few_underlying_calls_bitwise_identical(self):
        """The tentpole acceptance test.

        Serial pass: each distinct grid evaluated alone on a fresh server.
        Concurrent pass: 50 requests (4 distinct grids, one fingerprint)
        fired together at a second fresh server.  The concurrent pass must
        use <= 5 underlying evaluations (obs-counted) and return bodies
        bitwise identical to the serial pass.
        """
        base = np.linspace(0.5, 3.0, 24)
        grids = [base, base[::2], base[::3], base[5:15]]

        async def serial(port, server):
            out = []
            for grid in grids:
                _, _, body = await _request(
                    port,
                    "POST",
                    "/v1/response",
                    {"design": DESIGN, "grid": {"omega": list(grid)}},
                )
                out.append(body)
            return out

        async def concurrent(port, server):
            bodies = await asyncio.gather(
                *(
                    _request(
                        port,
                        "POST",
                        "/v1/response",
                        {"design": DESIGN, "grid": {"omega": list(grids[i % 4])}},
                    )
                    for i in range(50)
                )
            )
            return bodies, server.batcher.stats

        serial_bodies = _run(ServerConfig(port=0), serial)

        obs.reset()
        was_enabled = obs.enabled()
        obs.enable()
        try:
            bodies, stats = _run(
                ServerConfig(port=0, max_inflight=128),
                concurrent,
            )
            counters = obs.snapshot()["counters"]
        finally:
            obs.reset()
            if not was_enabled:
                obs.disable()

        underlying = counters["serve.batch.underlying"]["value"]
        assert 1 <= underlying <= 5
        assert counters["serve.batch.coalesced"]["value"] > 0
        assert stats.requests == 50
        assert stats.underlying_calls == underlying

        by_grid = {tuple(b["omega"]): b for _, _, b in (r for r in bodies)}
        for i, serial_body in enumerate(serial_bodies):
            concurrent_body = by_grid[tuple(serial_body["omega"])]
            for part in ("re", "im"):
                a = np.asarray(serial_body["h00"][part])
                b = np.asarray(concurrent_body["h00"][part])
                assert a.tobytes() == b.tobytes(), f"grid {i} {part} differs"


class TestEncodedReplies:
    """A hit's reply is the entry's prefix, encoded once, plus the flag."""

    GRID = {"omega": list(np.linspace(0.5, 3.0, 40))}
    HIT = b',"cached":true}'
    MISS = b',"cached":false}'

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/v1/response", {"design": DESIGN, "grid": GRID}),
            ("/v1/margins", {"design": DESIGN}),
            ("/v1/noise", {"design": {"ratio": 0.1, "points": 48}}),
            (
                "/v1/stability_map",
                {"space": {"separation": [3.0, 4.0]}, "defaults": {"points": 100}},
            ),
        ],
    )
    def test_hits_after_the_first_do_not_encode(self, monkeypatch, path, body):
        from repro.serve import app as serve_app

        calls = []
        encode = serve_app.dumps_bytes

        def counted(obj):
            calls.append(1)
            return encode(obj)

        monkeypatch.setattr(serve_app, "dumps_bytes", counted)

        async def scenario(port, server):
            counts, replies = [], []
            for _ in range(4):
                before = len(calls)
                st, _, raw = await _raw_request(port, "POST", path, body)
                assert st == 200, raw
                counts.append(len(calls) - before)
                replies.append(raw)
            return counts, replies

        counts, replies = _run(ServerConfig(port=0), scenario)
        # The miss encodes its reply, the first hit the entry's prefix.
        assert counts == [1, 1, 0, 0]
        miss, *hits = replies
        assert miss.endswith(self.MISS)
        assert all(hit == miss[: -len(self.MISS)] + self.HIT for hit in hits)

    def test_cache_bytes_count_the_stored_reply_by_length(self):
        body = {"design": DESIGN, "grid": self.GRID}

        async def scenario(port, server):
            await _raw_request(port, "POST", "/v1/response", body)
            after_miss = server.cache.stats()["bytes"]
            _, _, hit = await _raw_request(port, "POST", "/v1/response", body)
            return after_miss, hit, server.cache.stats()["bytes"]

        after_miss, hit, after_hit = _run(
            ServerConfig(port=0, cache_shards=1, cache_bytes=1 << 20), scenario
        )
        assert after_miss == 40 * 16  # the complex H00 array
        assert after_hit == len(hit) - len(self.HIT)

    def test_an_encoded_reply_can_evict_other_entries(self):
        """Two arrays fit the budget; one array plus one encoded reply not."""
        first = {"design": DESIGN, "grid": self.GRID}
        second = {"design": dict(DESIGN, ratio=0.12), "grid": self.GRID}

        async def scenario(port, server):
            await _raw_request(port, "POST", "/v1/response", second)
            await _raw_request(port, "POST", "/v1/response", first)
            full = server.cache.stats()
            await _raw_request(port, "POST", "/v1/response", first)  # first hit
            after = server.cache.stats()
            _, _, again = await _request(port, "POST", "/v1/response", second)
            return full, after, again

        full, after, again = _run(
            ServerConfig(port=0, cache_shards=1, cache_bytes=2000), scenario
        )
        assert full["entries"] == 2 and full["bytes"] == 2 * 40 * 16
        assert after["entries"] == 1 and after["evictions"] == 1
        assert after["bytes"] > 2000  # the one entry left may exceed the budget
        assert again["cached"] is False


class TestJobSpill:
    SPACE = {"separation": [2.0, 4.0], "ratio": [0.05, 0.1, 0.15]}
    DEFAULTS = {"points": 200}

    def _body(self):
        return {"space": self.SPACE, "defaults": self.DEFAULTS}

    def _spec(self):
        return CampaignSpec.create(
            name="serve-stability-map",
            space=GridSpace.of(**{k: list(v) for k, v in self.SPACE.items()}),
            task="stability_cell",
            defaults=self.DEFAULTS,
        )

    async def _poll_until_complete(self, port, job_id, timeout=60.0):
        deadline = asyncio.get_running_loop().time() + timeout
        while True:
            st, _, body = await _request(port, "GET", f"/v1/jobs/{job_id}")
            if st == 200 and body.get("complete") and not body.get("running"):
                return body
            if asyncio.get_running_loop().time() > deadline:
                raise AssertionError(f"job never completed: {body}")
            await asyncio.sleep(0.2)

    def test_spill_poll_and_results(self, tmp_path):
        async def scenario(port, server):
            st, _, body = await _request(
                port, "POST", "/v1/stability_map", self._body()
            )
            assert st == 202, body
            job_id = body["job_id"]
            assert body["poll"] == f"/v1/jobs/{job_id}"
            final = await self._poll_until_complete(port, job_id)
            st, _, with_records = await _request(
                port, "GET", f"/v1/jobs/{job_id}?results=1"
            )
            st404, _, missing = await _request(port, "GET", "/v1/jobs/zzzz")
            return body, final, with_records, st404, missing

        body, final, with_records, st404, missing = _run(
            ServerConfig(
                port=0, spill_threshold=4, jobs_dir=str(tmp_path / "jobs")
            ),
            scenario,
        )
        assert body["job_id"] == job_id_for(self._spec())
        assert final["done"] == 6 and final["failed"] == 0
        assert len(with_records["records"]) == 6
        assert st404 == 404 and missing["error"]["code"] == "unknown_job"
        # the spilled store is a normal campaign store on disk
        store = tmp_path / "jobs" / f"{body['job_id']}.jsonl"
        assert store.exists()
        assert ResultStore.open(store).status()["complete"]

    def test_two_worker_job_returns_every_record(self, tmp_path):
        # With job_workers=2 the job runs two lease workers, whose records
        # live in worker shards rather than in the main store.
        from repro.campaign.store import shard_dir

        async def scenario(port, server):
            st, _, body = await _request(
                port, "POST", "/v1/stability_map", self._body()
            )
            assert st == 202, body
            await self._poll_until_complete(port, body["job_id"])
            st, _, with_records = await _request(
                port, "GET", f"/v1/jobs/{body['job_id']}?results=1"
            )
            assert st == 200, with_records
            return body["job_id"], with_records["records"]

        job_id, records = _run(
            ServerConfig(
                port=0,
                spill_threshold=4,
                jobs_dir=str(tmp_path / "jobs"),
                job_workers=2,
            ),
            scenario,
        )
        store = ResultStore.open(tmp_path / "jobs" / f"{job_id}.jsonl")
        # One record per point, in the order of the job's spec.
        assert [r["id"] for r in records] == [pid for pid, _ in store.spec().points()]
        assert len(records) == 6 and all(r["status"] == "ok" for r in records)
        assert len(list(shard_dir(store.path).glob("*.jsonl"))) == 2
        assert store.point_records() == []

    def test_prepared_job_without_lease_batch_uses_the_default(self, tmp_path):
        # --no-job-autostart with no --job-lease-batch: the manifest policy
        # and the frozen plan both carry the default lease batch.
        from repro.campaign.lease import DEFAULT_LEASE_BATCH, lease_dir
        from repro.obs import manifest as obs_manifest
        from repro.serve.jobs import JobManager

        manager = JobManager(tmp_path / "jobs", autostart=False)
        store = manager.store_path(manager.submit(self._spec()))
        plan = json.loads((lease_dir(store) / "plan.json").read_text())
        manifest = obs_manifest.load_manifest(obs_manifest.manifest_path(store))
        assert plan["batch_size"] == manifest["policy"]["batch_size"]
        assert plan["batch_size"] == DEFAULT_LEASE_BATCH

    def test_killed_job_store_is_resumed_not_recomputed(self, tmp_path):
        """SIGKILL-mid-job simulation: a partial store (header + 3 of 6
        points) left by a dead server.  Resubmitting the same request
        attaches to the store, completes only the pending points, and the
        surviving records keep their original (sentinel) metrics."""
        spec = self._spec()
        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        store_path = jobs_dir / f"{job_id_for(spec)}.jsonl"
        store = ResultStore.create(store_path, spec)
        done_ids = []
        for point_id, params in list(spec.points())[:3]:
            store.append_point(
                {
                    "kind": "point",
                    "id": point_id,
                    "status": "ok",
                    "params": params,
                    "metrics": {"z_stable": 123.0},  # sentinel: not a real value
                    "elapsed": 0.0,
                }
            )
            done_ids.append(point_id)
        store.close()

        async def scenario(port, server):
            st, _, body = await _request(
                port, "POST", "/v1/stability_map", self._body()
            )
            assert st == 202, body
            final = await self._poll_until_complete(port, body["job_id"])
            st, _, with_records = await _request(
                port, "GET", f"/v1/jobs/{body['job_id']}?results=1"
            )
            return body["job_id"], final, with_records["records"]

        job_id, final, records = _run(
            ServerConfig(port=0, spill_threshold=4, jobs_dir=str(jobs_dir)),
            scenario,
        )
        assert job_id == store_path.stem  # resubmit resolved to the same store
        assert final["done"] == 6
        by_id = {r["id"]: r for r in records}
        for pid in done_ids:  # pre-crash work survived untouched
            assert by_id[pid]["metrics"]["z_stable"] == 123.0
        fresh = [r for r in records if r["id"] not in done_ids]
        assert len(fresh) == 3
        assert all(r["metrics"]["z_stable"] in (0.0, 1.0) for r in fresh)


class TestManifest:
    def test_server_manifest_written_with_config(self, tmp_path):
        async def scenario(port, server):
            return port

        manifest_file = tmp_path / "server.json"
        port = _run(
            ServerConfig(
                port=0, workers=2, max_inflight=7, manifest_path=str(manifest_file)
            ),
            scenario,
        )
        manifest = json.loads(manifest_file.read_text())
        assert manifest["kind"] == "server_manifest"
        assert manifest["port"] == port
        assert manifest["config"]["workers"] == 2
        assert manifest["config"]["max_inflight"] == 7
        assert "python" in manifest and "numpy" in manifest
