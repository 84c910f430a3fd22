"""Open-loop HTTP load generator over a few keep-alive connections.

Requests are sent on their schedule, not after the previous reply: each
connection takes the next due request as soon as it is free, so a slow
server builds a backlog whose wait counts in latency, because latency is
measured from each request's *due* time.  A growing backlog also shows as
a completed rate below the offered one (``RungResult.achieved_rate``).
Every response is checked cheaply as it arrives (status, design
fingerprint, content hash); the full numeric check runs after the rung on
a seeded sample (``checks``).
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import math
from dataclasses import dataclass

from perfbench import config
from perfbench.inputs import Request


@dataclass
class Outcome:
    """What happened to one scheduled request (times in seconds, monotonic)."""

    due: float = math.nan
    sent: float = math.nan
    done: float = math.nan
    status: int = 0
    ok: bool = False
    idle_late: float | None = None  # send lateness when the connection was idle
    digest: str = ""  # hash of the body minus its "cached" flag
    cached: bool = False
    body: bytes | None = None  # kept only for the verification sample

    @property
    def latency(self) -> float:
        """Seconds from due time to the full response; inf when it failed."""
        return self.done - self.due if self.ok else math.inf


@dataclass
class RungResult:
    rate: float
    outcomes: list[Outcome]
    aborted: bool = False
    measured_s: float = 0.0  # summed slice spans: first due time to last reply

    @property
    def attempted(self) -> int:
        return sum(1 for o in self.outcomes if not math.isnan(o.sent))

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not math.isnan(o.sent) and not o.ok)

    def latencies_ms(self) -> list[float]:
        """Latency of every scheduled request; unsent or failed ones are inf."""
        return [o.latency * 1000.0 for o in self.outcomes]

    def achieved_rate(self) -> float:
        """Completed requests per second of measured time.

        Measured time is the sum over the rung's slices of the span from
        the slice's first due time to its last reply.
        """
        ok = sum(1 for o in self.outcomes if o.ok)
        return ok / self.measured_s if self.measured_s > 0 else 0.0

    def generator_lateness_ms(self) -> list[float]:
        return [o.idle_late * 1000.0 for o in self.outcomes if o.idle_late is not None]


def _strip_cached(body: bytes) -> bytes:
    cut = body.rfind(b',"cached":')
    return body[:cut] if cut >= 0 else body


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


async def _run(
    port: int,
    schedule: list[Request],
    fingerprints: list[str],
    keep: set[int],
    connections: int,
    abort_backlog: float | None,
) -> RungResult:
    loop = asyncio.get_running_loop()
    outcomes = [Outcome() for _ in schedule]
    heads = [
        (
            f"POST /v1/{r.endpoint} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nX-Request-Id: m-{i}\r\n"
            f"Content-Length: {len(r.body)}\r\n\r\n"
        ).encode("latin-1")
        for i, r in enumerate(schedule)
    ]
    streams = [
        await asyncio.open_connection("127.0.0.1", port) for _ in range(connections)
    ]
    start = loop.time() + 0.05
    for outcome, request in zip(outcomes, schedule):
        outcome.due = start + request.due
    result = RungResult(rate=0.0, outcomes=outcomes)
    cursor = 0

    async def connection(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        nonlocal cursor
        while cursor < len(schedule) and not result.aborted:
            i = cursor
            cursor += 1
            request = schedule[i]
            outcome = outcomes[i]
            now = loop.time()
            if now < outcome.due:
                await asyncio.sleep(outcome.due - now)
                outcome.sent = loop.time()
                outcome.idle_late = outcome.sent - outcome.due
            else:
                outcome.sent = now
                if abort_backlog is not None and now - outcome.due > abort_backlog:
                    outcome.sent = math.nan
                    result.aborted = True
                    break
            writer.write(heads[i] + request.body)
            try:
                status, body = await asyncio.wait_for(
                    _read_response(reader), timeout=config.REQUEST_TIMEOUT_S
                )
            except (asyncio.TimeoutError, asyncio.IncompleteReadError, OSError):
                outcome.done = loop.time()
                return
            outcome.done = loop.time()
            outcome.status = status
            outcome.cached = body.endswith(b'"cached":true}')
            outcome.ok = (
                status == 200
                and b'"fingerprint":"' + fingerprints[i].encode() + b'"' in body
            )
            outcome.digest = hashlib.blake2b(_strip_cached(body), digest_size=16).hexdigest()
            if i in keep:
                outcome.body = body

    try:
        await asyncio.gather(*(connection(r, w) for r, w in streams))
    finally:
        for _reader, writer in streams:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
    return result


def run_rung(
    port: int,
    schedule: list[Request],
    fingerprints: list[str],
    rate: float,
    keep: set[int] = frozenset(),
    connections: int = config.NPROC,
    abort_backlog: float | None = config.ABORT_BACKLOG_S,
) -> RungResult:
    """Drive one open-loop rung to completion; ``keep`` bodies are retained.

    The generator's garbage collector is off while the rung runs, so its
    collection pauses do not show as the server's latency.
    """
    gc.collect()
    gc.disable()
    try:
        result = asyncio.run(
            _run(port, schedule, fingerprints, set(keep), connections, abort_backlog)
        )
    finally:
        gc.enable()
    result.rate = rate
    done = [o.done for o in result.outcomes if not math.isnan(o.done)]
    if done:
        result.measured_s = max(done) - result.outcomes[0].due
    return result


def merge(rate: float, slices: list[RungResult]) -> RungResult:
    """One result from consecutive slices of a schedule (outcomes in order)."""
    return RungResult(
        rate=rate,
        outcomes=[o for part in slices for o in part.outcomes],
        aborted=any(part.aborted for part in slices),
        measured_s=sum(part.measured_s for part in slices),
    )


def run_sequential(port: int, schedule: list[Request]) -> list[int]:
    """Send requests back to back on one connection (warm-up); returns statuses."""

    async def go() -> list[int]:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        statuses = []
        try:
            for request in schedule:
                writer.write(
                    (
                        f"POST /v1/{request.endpoint} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        f"Content-Length: {len(request.body)}\r\n\r\n"
                    ).encode("latin-1")
                    + request.body
                )
                status, _ = await _read_response(reader)
                statuses.append(status)
        finally:
            writer.close()
            await writer.wait_closed()
        return statuses

    return asyncio.run(go())
