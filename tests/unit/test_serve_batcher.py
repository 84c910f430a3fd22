"""Micro-batcher semantics: coalescing, merged-grid equivalence, failures.

The load-bearing property is *bitwise* equivalence: a request served from a
merged-grid batch must return exactly the floats a serial evaluation of its
own grid would have produced.  That holds because grid evaluation is
elementwise across frequency points, and the batcher only ever reorders
*which* call computes a point, never how it is computed.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.serve.batcher import MicroBatcher


def _eval(omega: np.ndarray) -> np.ndarray:
    """An elementwise stand-in for a grid evaluation (deterministic)."""
    return np.sin(omega) * np.exp(-0.25 * omega) + omega**2


class TestCoalescing:
    def test_concurrent_same_key_is_one_underlying_call(self):
        async def scenario():
            batcher = MicroBatcher()
            calls = []

            def compute(merged):
                calls.append(merged)
                return _eval(merged)

            omega = np.linspace(0.1, 1.0, 16)
            results = await asyncio.gather(
                *(batcher.submit("k", omega, compute) for _ in range(20))
            )
            return calls, results, batcher.stats

        calls, results, stats = asyncio.run(scenario())
        assert len(calls) == 1
        assert stats.underlying_calls == 1
        assert stats.requests == 20 and stats.coalesced == 19
        assert stats.to_dict()["coalescing_ratio"] == pytest.approx(19 / 20)
        for r in results:
            assert r.tobytes() == _eval(np.linspace(0.1, 1.0, 16)).tobytes()

    def test_different_keys_do_not_coalesce(self):
        async def scenario():
            batcher = MicroBatcher()
            calls = []

            def compute(merged):
                calls.append(1)
                return _eval(merged)

            omega = np.linspace(0.1, 1.0, 4)
            await asyncio.gather(
                batcher.submit("a", omega, compute),
                batcher.submit("b", omega, compute),
            )
            return calls

        assert len(asyncio.run(scenario())) == 2

    def test_sequential_submits_do_not_coalesce(self):
        async def scenario():
            batcher = MicroBatcher()
            calls = []

            def compute(merged):
                calls.append(1)
                return _eval(merged)

            omega = np.linspace(0.1, 1.0, 4)
            await batcher.submit("k", omega, compute)
            await batcher.submit("k", omega, compute)
            return calls

        assert len(asyncio.run(scenario())) == 2

    def test_idle_key_computes_without_waiting(self):
        async def scenario():
            batcher = MicroBatcher()
            omega = np.linspace(0.1, 1.0, 4)
            results = await asyncio.wait_for(
                asyncio.gather(
                    *(batcher.submit("k", omega, _eval) for _ in range(3))
                ),
                timeout=5.0,
            )
            return results, batcher.stats

        results, stats = asyncio.run(scenario())
        assert len(results) == 3
        assert stats.underlying_calls == 1  # same tick: one batch

    def test_idle_key_reaches_its_compute_without_a_timer(self):
        """Nothing between submit and compute is scheduled on the clock."""

        async def scenario():
            loop = asyncio.get_running_loop()
            timers = []
            call_at = loop.call_at

            def recording_call_at(when, callback, *args, **kwargs):
                timers.append(callback)
                return call_at(when, callback, *args, **kwargs)

            loop.call_at = recording_call_at
            try:
                batcher = MicroBatcher()
                result = await batcher.submit("k", np.array([0.5, 1.5]), _eval)
            finally:
                del loop.call_at
            return timers, result

        timers, result = asyncio.run(scenario())
        assert timers == []
        assert result.tobytes() == _eval(np.array([0.5, 1.5])).tobytes()


class TestContinuousBatching:
    """Arrivals during a key's compute queue behind it as one next batch."""

    @staticmethod
    async def _until(flag, timeout=5.0):
        deadline = asyncio.get_running_loop().time() + timeout
        while not flag.is_set():
            assert asyncio.get_running_loop().time() < deadline, "compute never started"
            await asyncio.sleep(0.001)

    def test_arrivals_during_compute_form_one_next_batch(self):
        first = np.linspace(0.1, 1.0, 10)
        grids = [
            np.linspace(0.2, 2.0, 7),
            first[::2],
            np.array([0.55, 0.55, 3.0]),
            np.array([5.0]),
            np.linspace(0.2, 2.0, 7),
        ]

        async def scenario():
            batcher = MicroBatcher()
            started, gate = threading.Event(), threading.Event()
            calls = []

            def compute(merged):
                calls.append(np.array(merged))
                started.set()
                assert gate.wait(5.0)
                return _eval(merged)

            try:
                head = asyncio.ensure_future(batcher.submit("k", first, compute))
                await self._until(started)
                tail = [
                    asyncio.ensure_future(batcher.submit("k", g, compute))
                    for g in grids
                ]
                await asyncio.sleep(0.01)
                assert batcher.pending_keys() == ["k"]
            finally:
                gate.set()
            results = await asyncio.wait_for(asyncio.gather(head, *tail), timeout=10.0)
            return calls, results, batcher.stats

        calls, results, stats = asyncio.run(scenario())
        assert len(calls) == 2 and stats.underlying_calls == 2
        assert stats.coalesced == len(grids) - 1
        assert calls[1].tobytes() == np.unique(np.concatenate(grids)).tobytes()
        for grid, result in zip([first] + grids, results):
            assert result.tobytes() == _eval(grid).tobytes()

    def test_scalar_arrivals_share_the_result_in_flight(self):
        async def scenario():
            batcher = MicroBatcher()
            started, gate = threading.Event(), threading.Event()
            calls = []

            def compute(merged):
                assert merged is None
                calls.append(1)
                started.set()
                assert gate.wait(5.0)
                return {"metric": 1.25}

            try:
                head = asyncio.ensure_future(batcher.submit("s", None, compute))
                await self._until(started)
                tail = [
                    asyncio.ensure_future(batcher.submit("s", None, compute))
                    for _ in range(4)
                ]
                await asyncio.sleep(0.01)
                assert batcher.pending_keys() == []
            finally:
                gate.set()
            results = await asyncio.wait_for(asyncio.gather(head, *tail), timeout=10.0)
            return calls, results, batcher.stats

        calls, results, stats = asyncio.run(scenario())
        assert len(calls) == 1 and stats.underlying_calls == 1
        assert stats.coalesced == 4
        assert all(r is results[0] for r in results)

    def test_batch_span_links_scalar_waiters_that_joined_in_flight(self, tmp_path):
        from repro.obs import trace as obs_trace
        from repro.obs.trace import LogReader

        contexts = [obs_trace.new_context() for _ in range(3)]

        async def scenario():
            batcher = MicroBatcher()
            started, gate = threading.Event(), threading.Event()

            def compute(merged):
                started.set()
                assert gate.wait(5.0)
                return {"metric": 1.0}

            try:
                head = asyncio.ensure_future(
                    batcher.submit("s", None, compute, trace=contexts[0])
                )
                await self._until(started)
                tail = [
                    asyncio.ensure_future(batcher.submit("s", None, compute, trace=ctx))
                    for ctx in contexts[1:]
                ]
                await asyncio.sleep(0.01)
            finally:
                gate.set()
            await asyncio.wait_for(asyncio.gather(head, *tail), timeout=10.0)

        path = obs_trace.configure_sink(tmp_path / "t.jsonl")
        try:
            asyncio.run(scenario())
        finally:
            obs_trace.close_sink()
        spans = LogReader(logs=[path]).refresh().spans()
        (batch,) = [e for e in spans if e["name"] == "serve.batch"]
        assert batch["attrs"]["waiters"] == 3
        assert [link["span_id"] for link in batch["links"]] == [c.span_id for c in contexts]

    def test_failed_batch_does_not_break_the_next_one(self):
        async def scenario():
            batcher = MicroBatcher()
            started, gate = threading.Event(), threading.Event()

            def failing(merged):
                started.set()
                assert gate.wait(5.0)
                raise RuntimeError("injected evaluation failure")

            omega = np.linspace(0.1, 1.0, 5)
            try:
                head = asyncio.ensure_future(batcher.submit("k", omega, failing))
                await self._until(started)
                # Joins the next batch, whose compute is its own.
                queued = asyncio.ensure_future(batcher.submit("k", omega, _eval))
                await asyncio.sleep(0.01)
            finally:
                gate.set()
            head_result, queued_result = await asyncio.wait_for(
                asyncio.gather(head, queued, return_exceptions=True), timeout=10.0
            )
            later = await asyncio.wait_for(
                batcher.submit("k", omega[:2], _eval), timeout=10.0
            )
            return head_result, queued_result, later, batcher.stats

        head_result, queued_result, later, stats = asyncio.run(scenario())
        omega = np.linspace(0.1, 1.0, 5)
        assert isinstance(head_result, RuntimeError)
        assert queued_result.tobytes() == _eval(omega).tobytes()
        assert later.tobytes() == _eval(omega[:2]).tobytes()
        assert stats.errors == 1 and stats.underlying_calls == 3


class TestMergedGridEquivalence:
    def test_slices_are_bitwise_identical_to_serial(self):
        """Each waiter's answer equals a direct evaluation of its own grid,
        down to the last bit — the acceptance criterion of the serving PR."""
        grids = [
            np.linspace(0.1, 1.0, 37),
            np.linspace(0.1, 1.0, 37)[::3],
            np.linspace(0.4, 2.0, 11),
            np.array([0.55]),
        ]

        async def scenario():
            batcher = MicroBatcher()
            return await asyncio.gather(
                *(batcher.submit("k", g, _eval) for g in grids)
            )

        results = asyncio.run(scenario())
        for grid, result in zip(grids, results):
            serial = _eval(grid)
            assert result.tobytes() == serial.tobytes()
            assert not result.flags.writeable

    def test_merged_points_counter(self):
        async def scenario():
            batcher = MicroBatcher()
            await asyncio.gather(
                batcher.submit("k", np.array([1.0, 2.0]), _eval),
                batcher.submit("k", np.array([2.0, 3.0]), _eval),
            )
            return batcher.stats

        stats = asyncio.run(scenario())
        assert stats.merged_points == 3  # union of {1,2} and {2,3}

    def test_exact_grid_match_shares_the_result_array(self):
        async def scenario():
            batcher = MicroBatcher()
            omega = np.linspace(0.1, 1.0, 8)
            a, b = await asyncio.gather(
                batcher.submit("k", omega, _eval),
                batcher.submit("k", omega.copy(), _eval),
            )
            return a, b

        a, b = asyncio.run(scenario())
        assert a is b  # zero copy for identical grids


class TestScalarMode:
    def test_all_waiters_share_one_result(self):
        async def scenario():
            batcher = MicroBatcher()
            calls = []

            def compute(merged):
                assert merged is None
                calls.append(1)
                return {"metric": 1.25}

            results = await asyncio.gather(
                *(batcher.submit("s", None, compute) for _ in range(5))
            )
            return calls, results

        calls, results = asyncio.run(scenario())
        assert len(calls) == 1
        assert all(r is results[0] for r in results)


class TestFailureAndCancellation:
    def test_compute_failure_propagates_to_every_waiter(self):
        async def scenario():
            batcher = MicroBatcher()

            def compute(merged):
                raise RuntimeError("injected evaluation failure")

            tasks = [
                asyncio.ensure_future(
                    batcher.submit("k", np.array([float(i + 1)]), compute)
                )
                for i in range(4)
            ]
            results = await asyncio.gather(*tasks, return_exceptions=True)
            return results, batcher.stats

        results, stats = asyncio.run(scenario())
        assert len(results) == 4
        assert all(isinstance(r, RuntimeError) for r in results)
        assert stats.errors == 1  # one batch failed, not four

    def test_cancelled_waiter_does_not_poison_the_batch(self):
        async def scenario():
            batcher = MicroBatcher()
            started, gate = threading.Event(), threading.Event()

            def compute(merged):
                started.set()
                assert gate.wait(5.0)
                return _eval(merged)

            omega = np.linspace(0.1, 1.0, 9)
            try:
                victim = asyncio.ensure_future(batcher.submit("k", omega, compute))
                survivor = asyncio.ensure_future(
                    batcher.submit("k", omega[::2], compute)
                )
                await TestContinuousBatching._until(started)  # both in one batch
                victim.cancel()
            finally:
                gate.set()
            result = await survivor
            with pytest.raises(asyncio.CancelledError):
                await victim
            return result, batcher.stats

        result, stats = asyncio.run(scenario())
        assert result.tobytes() == _eval(np.linspace(0.1, 1.0, 9)[::2]).tobytes()
        assert stats.cancelled == 1
        assert stats.underlying_calls == 1

    def test_fully_cancelled_batch_still_computes(self):
        """Work in flight completes even if every client walked away — the
        result would land in the serve cache, so it is not wasted."""

        async def scenario():
            batcher = MicroBatcher()
            started, gate, done = (threading.Event() for _ in range(3))
            calls = []

            def compute(merged):
                started.set()
                assert gate.wait(5.0)
                calls.append(1)
                done.set()
                return _eval(merged)

            try:
                task = asyncio.ensure_future(
                    batcher.submit("k", np.array([0.5]), compute)
                )
                await TestContinuousBatching._until(started)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
            finally:
                gate.set()
            await TestContinuousBatching._until(done)  # let the batch run out
            return calls

        assert len(asyncio.run(scenario())) == 1
