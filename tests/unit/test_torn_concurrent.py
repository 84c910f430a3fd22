"""Torn-line tolerance of the JSONL readers under a LIVE concurrent writer.

The durability story to date asserted torn-*tail* tolerance statically: a
file with a half-written last line parses.  Distributed tracing raises the
stakes — the collector, ``campaign watch``, and ``/v1/jobs`` polling all
read shards **while** workers on other processes are appending to them.
These tests run a real writer thread appending in deliberately split
``write()`` calls (worst-case interleaving: a reader can observe any
prefix) and hammer each reader concurrently, asserting two properties:

* readers never raise, whatever prefix they catch, and
* every *complete* line they return is intact — values are never mixed
  across records (each record is self-checksummed by construction).
"""

import json
import threading
import time

from repro.campaign.spec import CampaignSpec, GridSpace
from repro.campaign.store import ResultStore
from repro.obs import trace as obs_trace


class _SplitWriter(threading.Thread):
    """Appends ``count`` JSONL records, each via two raw writes.

    Splitting every line into two OS-level writes maximises the window in
    which a reader sees a torn (incomplete) final line.  ``payload(i)``
    must produce a dict whose fields let the reader verify integrity.
    """

    def __init__(self, path, count, payload):
        super().__init__(daemon=True)
        self.path = path
        self.count = count
        self.payload = payload
        self.done = threading.Event()

    def run(self):
        with open(self.path, "a", encoding="utf-8") as fh:
            for i in range(self.count):
                line = json.dumps(self.payload(i)) + "\n"
                split = max(1, len(line) // 2)
                fh.write(line[:split])
                fh.flush()
                fh.write(line[split:])
                fh.flush()
        self.done.set()


def _hammer(reader, writer, check):
    """Call ``reader`` repeatedly while ``writer`` runs; check every result.

    Do-while shape: even if the writer outruns the first (possibly slow)
    read, at least one read races the append window before the final
    full-file check.
    """
    writer.start()
    while True:
        check(reader())
        if writer.done.is_set():
            break
    writer.join()
    check(reader())  # and once over the final, complete file


class TestStreamReaderLive:
    def test_read_stream_under_live_writer(self, tmp_path):
        path = tmp_path / "w1.jsonl"

        def payload(i):
            # echo lets us catch line mixing
            return {"kind": "sample", "seq": i, "echo": i, "time": float(i)}

        def check(records):
            for record in records:
                assert record["echo"] == record["seq"]
            seqs = [r["seq"] for r in records]
            assert seqs == sorted(seqs)

        reader = obs_trace.LogReader(logs=[path])
        _hammer(
            lambda: reader.refresh().samples(),
            _SplitWriter(path, 300, payload),
            check,
        )


class TestTraceReaderLive:
    def test_read_trace_events_under_live_writer(self, tmp_path):
        path = tmp_path / "w1.jsonl"

        def payload(i):
            return {
                "kind": "trace_span",
                "event": "span",
                "name": f"n{i}",
                "trace_id": "a" * 32,
                "span_id": f"{i:016x}",
                "start": float(i),
                "end": float(i) + 0.5,
            }

        def check(events):
            for ev in events:
                i = int(ev["name"][1:])
                assert ev["span_id"] == f"{i:016x}"
                assert ev["start"] == float(i)

        reader = obs_trace.LogReader(logs=[path])
        _hammer(
            lambda: reader.refresh().spans(),
            _SplitWriter(path, 300, payload),
            check,
        )

    def test_collector_under_live_writer(self, tmp_path):
        """build_chrome_trace over a store whose log is mid-append."""
        store = tmp_path / "r.jsonl"
        shard_dir = obs_trace.trace_dir(store)
        shard_dir.mkdir()
        path = shard_dir / "w1.jsonl"

        def payload(i):
            return {
                "kind": "trace_span",
                "event": "span",
                "name": f"n{i}",
                "trace_id": "a" * 32,
                "span_id": f"{i:016x}",
                "host": "h",
                "worker": "w1",
                "pid": 1,
                "start": float(i),
                "end": float(i) + 0.5,
            }

        def check(doc):
            slices = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
            for ev in slices:
                assert ev["dur"] == 0.5e6

        _hammer(
            lambda: obs_trace.build_chrome_trace(events=[], store_path=store),
            _SplitWriter(path, 200, payload),
            check,
        )


class TestStoreShardReaderLive:
    def test_merged_point_records_under_live_shard_writer(self, tmp_path):
        """A reader merging shards while a worker shard is appending."""
        spec = CampaignSpec.create(
            name="torn",
            space=GridSpace.of(x=list(range(100))),
            task=lambda params: {"y": params["x"]},
        )
        store_path = tmp_path / "r.jsonl"
        ResultStore.create(store_path, spec).close()
        points = list(spec.points())
        shard = ResultStore.open_shard(store_path, "w1", spec)
        shard.close()
        shard_file = next(iter(store_path.parent.glob("r.jsonl.shards/*.jsonl")))

        def payload(i):
            pid, params = points[i]
            return {
                "kind": "point",
                "id": pid,
                "status": "ok",
                "params": params,
                "metrics": {"y": params["x"]},
                "elapsed": 0.0,
            }

        def check(records):
            for record in records:
                if record.get("metrics"):
                    assert record["metrics"]["y"] == record["params"]["x"]

        reader_store = ResultStore.open(store_path)
        _hammer(
            reader_store.merged_point_records,
            _SplitWriter(shard_file, len(points), payload),
            check,
        )


class TestWriterAtomicity:
    def test_record_event_single_write_lines(self, tmp_path):
        """The trace sink appends whole lines, one write per event.

        A regular-file read is not atomic with a concurrent append, so a
        reader polling a live *record_event* writer may catch the last
        line mid-write.  What the sink guarantees, and what the
        tail-following readers rely on, is that every newline-terminated
        line parses, and that once the writer stops the file holds exactly
        one parseable line per event.
        """
        path = obs_trace.configure_sink(tmp_path / "t.jsonl")
        try:
            ctx = obs_trace.new_context()
            stop = threading.Event()

            def write_loop():
                i = 0
                while not stop.is_set() and i < 500:
                    obs_trace.record_event("e", ctx.child(), float(i), i + 1.0, n=i)
                    i += 1
                stop.set()

            thread = threading.Thread(target=write_loop, daemon=True)
            thread.start()
            bad = 0
            while not stop.is_set():
                raw = path.read_text(encoding="utf-8") if path.exists() else ""
                for line in raw[: raw.rfind("\n") + 1].splitlines():
                    try:
                        json.loads(line)
                    except ValueError:
                        bad += 1
                time.sleep(0.001)
            thread.join()
            assert bad == 0
            raw = path.read_text(encoding="utf-8")
            assert raw.endswith("\n")
            events = [json.loads(line) for line in raw.splitlines()]
            assert [event["attrs"]["n"] for event in events] == list(range(500))
        finally:
            obs_trace.close_sink()
