"""The result store's tail-following reader: cost and reset rules.

A long-lived :class:`ResultStore` decodes only the newline-terminated lines
appended since its last read, and starts a file again from byte 0 when the
file was replaced, shrank or was rewritten in place.  The Hypothesis
property in ``tests/property/test_prop_store_tail.py`` checks the merged
views against a fresh reader over random interleavings; these tests pin
the individual rules.
"""

import json
import os

from repro.campaign.spec import CampaignSpec, GridSpace
from repro.campaign.store import ResultStore, shard_dir


def make_spec():
    return CampaignSpec.create(
        name="tail", space=GridSpace.of(x=list(range(8))), task="design_summary"
    )


def point(pid, status="ok", **extra):
    return {"kind": "point", "id": pid, "status": status, **extra}


def line(record):
    return json.dumps(record) + "\n"


def test_polling_decodes_each_record_once(tmp_path, monkeypatch):
    path = tmp_path / "r.jsonl"
    spec = make_spec()
    ResultStore.create(path, spec).close()
    shard = ResultStore.open_shard(path, "w1", spec)
    reader = ResultStore.open(path)
    decoded = []
    loads = json.loads

    def counting_loads(text, *args, **kwargs):
        decoded.append(1)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    n = 300
    for i in range(n):
        shard.append_point(point(f"p{i}"))
        assert len(reader.merged_completed_ids()) == i + 1
    shard.close()
    # One decode per record, plus the main store's and the shard's header.
    assert len(decoded) == n + 2


def test_unterminated_line_waits_for_its_newline(tmp_path):
    path = tmp_path / "r.jsonl"
    ResultStore.create(path, make_spec()).close()
    reader = ResultStore.open(path)
    text = line(point("a"))
    with path.open("a") as handle:
        handle.write(text[:-1])  # the whole object, but no newline yet
    assert reader.merged_completed_ids() == set()
    with path.open("a") as handle:
        handle.write("\n")
    assert reader.merged_completed_ids() == {"a"}


def test_replaced_file_is_read_from_the_start(tmp_path):
    path = tmp_path / "r.jsonl"
    replacement = tmp_path / "new.jsonl"
    for target, ids in ((path, "ab"), (replacement, "cde")):
        store = ResultStore.create(target, make_spec())
        for pid in ids:
            store.append_point(point(pid))
        store.close()
    reader = ResultStore.open(path)
    assert reader.merged_completed_ids() == {"a", "b"}
    # Lines of equal length: the byte before the old offset is still a
    # newline, so only the new inode shows the file was replaced.
    os.replace(replacement, path)
    assert reader.merged_completed_ids() == {"c", "d", "e"}
    assert reader.terminal_record_counts() == {"c": 1, "d": 1, "e": 1}


def test_shrunk_file_is_read_from_the_start(tmp_path):
    path = tmp_path / "r.jsonl"
    store = ResultStore.create(path, make_spec())
    for pid in "abc":
        store.append_point(point(pid))
    store.close()
    reader = ResultStore.open(path)
    assert reader.merged_completed_ids() == {"a", "b", "c"}
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2]))  # same inode, header + "a"
    assert reader.merged_completed_ids() == {"a"}


def test_file_rewritten_in_place_is_read_from_the_start(tmp_path):
    path = tmp_path / "r.jsonl"
    store = ResultStore.create(path, make_spec())
    store.append_point(point("a", status="failed"))
    store.close()
    reader = ResultStore.open(path)
    assert reader.merged_status()["failed"] == 1
    header = path.read_text().splitlines(keepends=True)[0]
    # Longer than before, so only the byte before the old offset shows it.
    path.write_text(header + line(point("b", pad="x" * 3)) + line(point("c")))
    status = reader.merged_status()
    assert (status["done"], status["failed"]) == (2, 0)


def test_repaired_torn_tail_on_shard_restart(tmp_path):
    path = tmp_path / "r.jsonl"
    spec = make_spec()
    ResultStore.create(path, spec).close()
    shard = ResultStore.open_shard(path, "w1", spec)
    shard.append_point(point("a"))
    shard.close()
    shard_file = shard_dir(path) / "w1.jsonl"
    with shard_file.open("a") as handle:
        handle.write(line(point("b"))[:12])  # killed mid-append
    reader = ResultStore.open(path)
    assert reader.merged_completed_ids() == {"a"}
    restarted = ResultStore.open_shard(path, "w1", spec)  # same worker id
    restarted.append_point(point("c"))  # truncates the torn tail first
    restarted.close()
    assert reader.merged_completed_ids() == {"a", "c"}
    assert reader.merged_point_records() == ResultStore.open(path).merged_point_records()


def test_corrupt_line_is_tolerated_only_while_last(tmp_path):
    path = tmp_path / "r.jsonl"
    spec = make_spec()
    ResultStore.create(path, spec).close()
    good = ResultStore.open_shard(path, "a", spec)
    good.append_point(point("p1"))
    good.close()
    bad = ResultStore.open_shard(path, "b", spec)
    bad.append_point(point("p2"))
    bad.close()
    reader = ResultStore.open(path)
    with (shard_dir(path) / "b.jsonl").open("a") as handle:
        handle.write("not json {{{\n")
    assert reader.merged_completed_ids() == {"p1", "p2"}
    with (shard_dir(path) / "b.jsonl").open("a") as handle:
        handle.write(line(point("p3")))
    # A line followed the bad one: shard "b" is corrupt and skipped whole.
    assert reader.merged_completed_ids() == {"p1"}
    assert reader.terminal_record_counts() == {"p1": 1}
    assert ResultStore.open(path).merged_completed_ids() == {"p1"}


def test_status_reads_counts_and_summary_in_one_pass(tmp_path, monkeypatch):
    path = tmp_path / "r.jsonl"
    store = ResultStore.create(path, make_spec())
    for i in range(8):
        store.append_point(point(f"p{i}", status="failed" if i == 3 else "ok"))
    store.append_summary({"done": 7, "failed": 1, "wall_seconds": 0.5})
    store.close()
    reader = ResultStore.open(path)
    decoded = []
    loads = json.loads

    def counting_loads(text, *args, **kwargs):
        decoded.append(1)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    status = reader.status()
    assert (status["done"], status["failed"], status["complete"]) == (7, 1, True)
    assert status["summary"]["wall_seconds"] == 0.5
    # Ten lines decoded once, plus the header line that header() reads.
    assert len(decoded) == 11
    assert reader.merged_status()["summary"] == status["summary"]
    assert len(decoded) == 12  # only the header again: no new lines
