"""Property: a long-lived store reader agrees with a fresh one at every step.

Random interleavings of what happens to a campaign's files while a lease
worker keeps one :class:`ResultStore` open: appends to the main store and
to shards, torn tails completed later or truncated by a same-id restart
(``_repair_torn_tail``), shards appearing mid-run, files shrunk in place or
replaced by a new inode, shards deleted, and corrupt lines that a later
line turns into mid-file corruption.  After every step the long-lived
reader's merged views must equal a fresh reader's, and both must equal the
merge computed with the full-read primitive :meth:`ResultStore.records`
over each file's newline-terminated lines.
"""

import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.spec import CampaignSpec, GridSpace
from repro.campaign.store import ResultStore, StoreCorruptError, shard_dir

FILES = ("main", "a", "b", "c")

#: One step: (what happens, to which file, point id, status, n).  ``n``
#: picks where a torn line is cut, or how many lines a shrink or replace
#: keeps.  Appends are listed three times so files collect repeated ids.
STEP = st.tuples(
    st.sampled_from(
        ("append", "append", "append", "torn", "complete", "corrupt",
         "truncate", "replace", "delete", "summary")
    ),
    st.sampled_from(FILES),
    st.sampled_from(("p0", "p1", "p2")),
    st.sampled_from(("ok", "failed")),
    st.integers(0, 10_000),
)


class Campaign:
    """The files of one campaign, and the writes the steps make to them."""

    def __init__(self, root: Path):
        self.spec = CampaignSpec.create(
            name="tail", space=GridSpace.of(x=[1.0, 2.0]), task="design_summary"
        )
        self.path = root / "r.jsonl"
        ResultStore.create(self.path, self.spec).close()
        self.torn: dict[Path, str] = {}  # file -> unwritten rest of its last line

    def _raw_append(self, path: Path, text: str) -> None:
        with path.open("a") as handle:
            handle.write(text)

    def _kept_lines(self, path: Path, n: int) -> list[bytes]:
        """The header and up to ``n % 7`` complete lines after it."""
        data = path.read_bytes()
        return data[: data.rfind(b"\n") + 1].splitlines(keepends=True)[: 1 + n % 7]

    def apply(self, step: int, kind: str, name: str, pid: str, status: str, n: int) -> None:
        record = {"kind": "point", "id": pid, "status": status, "step": step}
        if kind == "summary":
            store = ResultStore(self.path)
            store.append_summary({"step": step})
            store.close()
            self.torn.pop(self.path, None)
            return
        path = self.path if name == "main" else shard_dir(self.path) / f"{name}.jsonl"
        if kind in ("append", "torn") and not path.exists():
            ResultStore.open_shard(self.path, name, self.spec).close()  # appears mid-run
        if not path.exists():
            return
        if kind == "append":
            store = ResultStore(path)  # repairs a torn tail, like a restart
            store.append_point(record)
            store.close()
            self.torn.pop(path, None)
        elif kind == "torn" and path not in self.torn:
            text = json.dumps(record) + "\n"
            cut = 1 + n % (len(text) - 1)  # 1 .. len - 1: never the newline
            self._raw_append(path, text[:cut])
            self.torn[path] = text[cut:]
        elif kind == "complete" and path in self.torn:
            self._raw_append(path, self.torn.pop(path))
        elif kind == "corrupt":
            self._raw_append(path, "not json {{{\n")
            self.torn.pop(path, None)
        elif kind == "truncate":
            path.write_bytes(b"".join(self._kept_lines(path, n)))  # same inode
            self.torn.pop(path, None)
        elif kind == "replace":
            # New inode; the kept lines reversed after the header, so the
            # file can keep its size and its last newline.
            header, *lines = self._kept_lines(path, n)
            fresh = path.with_name(path.name + ".new")
            fresh.write_bytes(header + b"".join(reversed(lines)))
            os.replace(fresh, path)
            self.torn.pop(path, None)
        elif kind == "delete" and path != self.path:
            path.unlink()
            self.torn.pop(path, None)


def views(store: ResultStore) -> dict:
    out = {
        "records": {r["id"]: r for r in store.merged_point_records()},
        "completed": store.merged_completed_ids(),
        "ok": store.merged_completed_ids(include_failed=False),
        "counts": store.terminal_record_counts(),
    }
    try:
        out["status"] = store.merged_status()
    except StoreCorruptError:
        out["status"] = "corrupt"
    return out


def oracle(campaign: Campaign, workdir: Path) -> dict:
    """The merge over ``records()`` of each file's newline-terminated prefix."""
    merged: dict[str, dict] = {}
    counts: dict[str, int] = {}
    copy = workdir / "copy.jsonl"
    for path in [campaign.path, *sorted(shard_dir(campaign.path).glob("*.jsonl"))]:
        data = path.read_bytes()
        copy.write_bytes(data[: data.rfind(b"\n") + 1])
        try:
            points = [r for r in ResultStore(copy).records() if r.get("kind") == "point"]
        except StoreCorruptError:
            continue  # corrupt before its last line: the whole file is skipped
        last: dict[str, dict] = {}
        for record in points:
            last[record["id"]] = record
            counts[record["id"]] = counts.get(record["id"], 0) + 1
        for pid, record in last.items():
            held = merged.get(pid)
            if held is None or (held["status"] != "ok" and record["status"] == "ok"):
                merged[pid] = record
    return {
        "records": merged,
        "completed": {pid for pid, r in merged.items() if r["status"] in ("ok", "failed")},
        "ok": {pid for pid, r in merged.items() if r["status"] == "ok"},
        "counts": counts,
    }


@given(steps=st.lists(st.tuples(STEP, st.booleans()), max_size=30))
@settings(max_examples=150, deadline=None)
def test_long_lived_reader_matches_fresh_reader(steps):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "oracle").mkdir()
        campaign = Campaign(root)
        every_step = ResultStore(campaign.path)
        sometimes = ResultStore(campaign.path)
        for index, (step, poll) in enumerate(steps):
            campaign.apply(index, *step)
            fresh = views(ResultStore(campaign.path))
            assert views(every_step) == fresh
            # A reader that skips steps sees several appends at once.  It
            # reads after every shrink, replace or delete: a file shrunk and
            # regrown in place, or replaced or recreated twice (the inode
            # can be reused), between two reads is beyond what the offset
            # and the inode can detect.
            if poll or step[0] in ("truncate", "replace", "delete"):
                assert views(sometimes) == fresh
            expected = oracle(campaign, root / "oracle")
            assert {key: fresh[key] for key in expected} == expected
