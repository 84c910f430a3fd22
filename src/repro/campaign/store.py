"""Append-only JSONL result store with crash-safe checkpoint/resume.

A campaign's results live in one JSON-lines file.  Line kinds:

* ``campaign`` — the header: campaign name, the spec (when serializable),
  the total point count and a format version.  Written once at creation.
* ``point`` — one *terminal* record per point: status ``ok`` (with the
  metric dict) or ``failed`` (with the captured error), plus attempts,
  elapsed seconds, worker pid and the worker's grid-cache delta.
* ``checkpoint`` — periodic progress marker (done/failed counts, elapsed).
  Checkpoints are written with flush + ``fsync`` so a crash loses at most
  the points since the last checkpoint *line-wise* — and because every
  point line is flushed too, usually nothing at all.
* ``summary`` — the final telemetry dict, written when a run completes.

Crash semantics
---------------
Appends are single ``write()`` calls of one ``\\n``-terminated line.  A
process killed mid-write can leave at most one truncated final line; the
reader detects and ignores it (:meth:`ResultStore.records` skips an
undecodable *last* line, while corruption elsewhere raises).  ``resume``
therefore never double-counts a point: a point is complete iff its full
terminal line made it to disk.

Multi-writer campaigns (shards)
-------------------------------
The torn-tail repair truncates the file, which is only safe with a single
writer.  Multi-host lease workers therefore never append to the main
store: each worker owns a private *shard* store

    <store>.shards/<worker-id>.jsonl

(one writer per file, same format, same crash semantics) and readers
merge the main store with every shard via :meth:`merged_point_records`.
The merge keeps the last record per id within each file (so a retried-ok
beats an earlier failure, as in the single-file case), then across files
prefers ``ok`` over ``failed`` and otherwise the first file in
deterministic order (main store first, shards sorted by name).  A worker
killed mid-campaign leaves its shard behind; its completed points survive
and its replacement — a different worker id — gets a fresh shard.

Tail-following reads
--------------------
:meth:`ResultStore.records` decodes a whole file on every call, and
:meth:`~ResultStore.header` reads only the first line.  The record views
(:meth:`~ResultStore.point_records`, :meth:`~ResultStore.status` and the
merged views) share one tail-following reader instead.  Per file it keeps the byte offset just past the last newline and the file's
(device, inode).  A refresh decodes only the lines appended since, and only
those that end in a newline, so a line still being written is never read
half-way.  A file that was replaced (new device or inode), or no longer
has a newline just before the offset (it shrank, or was rewritten in
place), is read again from byte 0.  An undecodable line is
tolerated while it is its file's last complete line; once another line
follows it, the file is corrupt and the merged views skip it (views of the
main store itself, and :meth:`~ResultStore.merged_status`, raise
:class:`StoreCorruptError` for a corrupt main store).  One refresh costs a
directory listing of the shards, one open and ``fstat`` per file, and the
decode of the new lines, so a worker that keeps its instance decodes each
record about once over a whole campaign.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro._errors import ValidationError
from repro.campaign.spec import CampaignSpec

__all__ = ["ResultStore", "StoreCorruptError", "shard_dir"]

FORMAT_VERSION = 1


def shard_dir(store_path: str | Path) -> Path:
    """The per-worker shard directory for a result store path."""
    return Path(str(store_path) + ".shards")


class StoreCorruptError(ValidationError):
    """A result store line (other than a truncated tail) failed to parse."""


def _encode(record: Mapping[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


class _Tail:
    """What one store file's newline-terminated lines have said so far.

    ``offset`` is the byte just past the last newline consumed; a line
    still being appended (no newline yet) waits for a later refresh.
    """

    __slots__ = (
        "identity", "offset", "lines", "points", "counts", "summary", "bad_line", "corrupt"
    )

    def __init__(self, identity: tuple[int, int]):
        self.identity = identity  # (st_dev, st_ino)
        self.offset = 0
        self.lines = 0
        self.points: dict[str, dict[str, Any]] = {}  # id -> last point record
        self.counts: dict[str, int] = {}  # id -> point records in this file
        self.summary: dict[str, Any] | None = None  # last summary record
        self.bad_line = 0  # undecodable line, tolerated while it is the last
        self.corrupt: str | None = None  # why the file is skipped

    def consume(self, text: str, path: Path) -> list[str]:
        """Decode the newline-terminated lines of ``text``; the point ids they touch."""
        changed: list[str] = []
        for raw in text.split("\n")[:-1]:
            self.lines += 1
            if self.bad_line:
                self.corrupt = f"{path}: undecodable record at line {self.bad_line}"
                break
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except ValueError:
                self.bad_line = self.lines
                continue
            if not isinstance(record, dict):
                self.corrupt = f"{path}: line {self.lines} is not a JSON object"
                break
            kind = record.get("kind")
            if kind == "point":
                if "id" not in record or "status" not in record:
                    self.corrupt = f"{path}: line {self.lines} is not a point record"
                    break
                pid = record["id"]
                self.points[pid] = record
                self.counts[pid] = self.counts.get(pid, 0) + 1
                changed.append(pid)
            elif kind == "summary":
                self.summary = record
        if self.corrupt:
            changed.extend(self.points)  # they all leave the merge
        return changed


class ResultStore:
    """Append-only JSONL store for one campaign's results.

    Use :meth:`create` for a fresh store (writes the header) and
    :meth:`open` to append to / inspect an existing one.  The instance is a
    context manager; writes go through one buffered append handle that is
    flushed per record and fsynced at checkpoints.

    Reads follow each file's tail: the instance remembers how far it has
    decoded the main store and every shard, so a repeated read costs only
    the lines appended since the last one.  Keep one instance per reader
    (the views are not safe to call from two threads at once).
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle: io.TextIOBase | None = None
        self._tails: dict[Path, _Tail] = {}  # main store and each shard
        self._merged: dict[str, dict[str, Any]] = {}  # id -> winning record
        self._terminal: dict[str, int] = {}  # id -> terminal records, all files
        self._ok: set[str] = set()
        self._failed: set[str] = set()

    # -- lifecycle ---------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        spec: CampaignSpec,
        overwrite: bool = False,
    ) -> "ResultStore":
        """Start a fresh store with a campaign header line."""
        store = cls(path)
        if store.path.exists() and not overwrite:
            raise ValidationError(
                f"result store {store.path} already exists; "
                "pass overwrite=True or resume it"
            )
        header: dict[str, Any] = {
            "kind": "campaign",
            "version": FORMAT_VERSION,
            "name": spec.name,
            "task": spec.task_name,
            "points": len(spec),
        }
        try:
            header["spec"] = spec.to_json()
        except ValidationError:
            # Callable task: embed the space anyway (with task: null) so the
            # store stays resumable from the library via resume(..., task=...),
            # just not from the CLI.
            header["spec"] = {
                "name": spec.name,
                "task": None,
                "defaults": dict(spec.defaults),
                "space": spec.space.to_json(),
            }
        store.path.parent.mkdir(parents=True, exist_ok=True)
        with store.path.open("w") as handle:
            handle.write(_encode(header))
            handle.flush()
            os.fsync(handle.fileno())
        return store

    @classmethod
    def open_shard(
        cls, base_path: str | Path, worker: str, spec: CampaignSpec
    ) -> "ResultStore":
        """Open (creating if missing) this worker's private shard store.

        Idempotent across worker restarts: an existing shard is reopened in
        append mode, so a worker that crashed and was relaunched under the
        *same* worker id keeps its completed records.  Creation is
        atomic-enough because worker ids (hostname+pid) are unique among
        live processes — two concurrent creators cannot share an id.
        """
        directory = shard_dir(base_path)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{worker}.jsonl"
        if path.exists():
            return cls.open(path)
        try:
            return cls.create(path, spec)
        except ValidationError:
            return cls.open(path)

    @classmethod
    def open(cls, path: str | Path) -> "ResultStore":
        """Open an existing store (validates the header)."""
        store = cls(path)
        if not store.path.exists():
            raise ValidationError(f"no result store at {store.path}")
        if store.path.is_dir():
            raise ValidationError(
                f"result store path {store.path} is a directory; "
                "pass the JSONL file itself"
            )
        store.header()  # validates
        return store

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Flush and close the append handle (reads stay available)."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    # -- writing -----------------------------------------------------------------

    def _repair_torn_tail(self) -> None:
        """Drop a trailing partial line left by a crash mid-append.

        Without this, the first append after a resume would concatenate onto
        the torn fragment and corrupt an otherwise-valid record.
        """
        with self.path.open("r+b") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if size == 0:
                return
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
            handle.seek(0)
            data = handle.read()
            cut = data.rfind(b"\n") + 1  # 0 if no newline at all
            handle.truncate(cut)

    def _append(self, record: Mapping[str, Any], sync: bool = False) -> None:
        if self._handle is None:
            if self.path.exists():
                self._repair_torn_tail()
            self._handle = self.path.open("a")
        self._handle.write(_encode(record))
        self._handle.flush()
        if sync:
            os.fsync(self._handle.fileno())

    def append_point(self, record: Mapping[str, Any]) -> None:
        """Append one terminal point record (flushed, not fsynced)."""
        if record.get("kind") != "point":
            raise ValidationError("point records must carry kind='point'")
        if "id" not in record or "status" not in record:
            raise ValidationError("point records need 'id' and 'status'")
        self._append(record)

    def append_checkpoint(self, counts: Mapping[str, Any]) -> None:
        """Append an fsynced checkpoint marker."""
        self._append({"kind": "checkpoint", **counts}, sync=True)

    def append_summary(self, telemetry: Mapping[str, Any]) -> None:
        """Append the final fsynced telemetry summary."""
        self._append({"kind": "summary", **telemetry}, sync=True)

    # -- reading -----------------------------------------------------------------

    def records(self) -> Iterator[dict[str, Any]]:
        """Every decodable record, tolerating one truncated final line.

        The full-read primitive: it decodes the whole file on every call.
        The views below follow the file's tail instead.
        """
        with self.path.open("r") as handle:
            lines = handle.readlines()
        for index, line in enumerate(lines):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                if index == len(lines) - 1:
                    return  # torn tail from a crash mid-append
                raise StoreCorruptError(
                    f"{self.path}: undecodable record at line {index + 1}"
                ) from None
            if not isinstance(record, dict):
                raise StoreCorruptError(
                    f"{self.path}: line {index + 1} is not a JSON object"
                )
            yield record

    def header(self) -> dict[str, Any]:
        """The campaign header record (the file's first line only)."""
        with self.path.open("rb") as handle:
            line = handle.readline()
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if not isinstance(record, dict) or record.get("kind") != "campaign":
            raise StoreCorruptError(f"{self.path}: missing campaign header line")
        if record.get("version") != FORMAT_VERSION:
            raise StoreCorruptError(
                f"{self.path}: unsupported store version "
                f"{record.get('version')!r}"
            )
        return record

    def spec_data(self) -> dict[str, Any]:
        """The raw spec JSON from the header (``task`` may be ``None``)."""
        data = self.header().get("spec")
        if not data:
            raise ValidationError(f"{self.path} has no serialized spec")
        return data

    def spec(self) -> CampaignSpec:
        """Rebuild the campaign spec embedded in the header.

        Raises :class:`ValidationError` when the campaign was run with a
        non-registry callable task (header carries ``task: null``); resume
        such a store from the library by passing the task explicitly.
        """
        data = self.spec_data()
        if not data.get("task"):
            raise ValidationError(
                f"{self.path} was run with a non-registry task; resume it "
                "via repro.campaign.resume_campaign(..., task=...)"
            )
        return CampaignSpec.from_json(data)

    # -- tail-following reader -----------------------------------------------------

    def _follow(self, path: Path) -> list[str]:
        """Decode the complete lines ``path`` gained since the last call.

        Returns the point ids whose record in that file may have changed,
        in file order.  A file that was replaced (new device or inode), or
        no longer has a newline just before the offset (it shrank, or was
        rewritten in place), is read again from byte 0.  An ``OSError``
        leaves the reader's state untouched.
        """
        tail = self._tails.get(path)
        with path.open("rb") as handle:
            info = os.fstat(handle.fileno())
            identity = (info.st_dev, info.st_ino)
            fresh = tail is None or tail.identity != identity
            if not fresh and tail.offset:
                handle.seek(tail.offset - 1)
                fresh = handle.read(1) != b"\n"  # shrank, or rewritten in place
            if not fresh and tail.corrupt:
                return []
            handle.seek(0 if fresh else tail.offset)
            data = handle.read()
        changed: list[str] = []
        if fresh:
            if tail is not None:
                changed.extend(tail.points)
            tail = self._tails[path] = _Tail(identity)
        end = data.rfind(b"\n") + 1
        tail.offset += end
        changed += tail.consume(data[:end].decode("utf-8", "replace"), path)
        return changed

    def _refresh(self) -> _Tail:
        """Follow the main store and every shard, then re-merge the point
        ids that changed; returns the main store's tail.

        An ``OSError`` on the main store propagates; a shard that cannot be
        read, or has gone, contributes nothing.
        """
        changed = self._follow(self.path)
        present = {self.path}
        for path in self.shard_paths():
            try:
                changed += self._follow(path)
            except OSError:
                continue
            present.add(path)
        for path in [p for p in self._tails if p not in present]:
            changed.extend(self._tails.pop(path).points)
        if changed:
            self._merge(changed)
        return self._tails[self.path]

    def _merge(self, ids: list[str]) -> None:
        """Re-pick each id's record across the files that are not corrupt."""
        files = [
            tail
            for path, tail in sorted(
                self._tails.items(), key=lambda item: (item[0] != self.path, item[0])
            )
            if not tail.corrupt
        ]
        for pid in ids:
            best = None
            count = 0
            for tail in files:
                record = tail.points.get(pid)
                if record is None:
                    continue
                count += tail.counts[pid]
                if best is None or (best["status"] != "ok" and record["status"] == "ok"):
                    best = record
            self._ok.discard(pid)
            self._failed.discard(pid)
            if best is None:
                self._merged.pop(pid, None)
                self._terminal.pop(pid, None)
                continue
            self._merged[pid] = best
            self._terminal[pid] = count
            if best["status"] == "ok":
                self._ok.add(pid)
            elif best["status"] == "failed":
                self._failed.add(pid)

    def _own(self) -> _Tail:
        """The main store's tail, brought up to date; raises if it is corrupt."""
        tail = self._refresh()
        if tail.corrupt:
            raise StoreCorruptError(tail.corrupt)
        return tail

    def _snapshot(self, tail: _Tail, done: int, failed: int) -> dict[str, Any]:
        header = self.header()
        total = int(header.get("points") or 0)
        return {
            "name": header.get("name"),
            "task": header.get("task"),
            "points": total,
            "done": done,
            "failed": failed,
            "pending": max(total - done - failed, 0),
            "complete": total > 0 and done + failed >= total,
            "summary": tail.summary,
        }

    # -- single-file views -----------------------------------------------------------

    def point_records(self) -> list[dict[str, Any]]:
        """Terminal point records, de-duplicated (last record per id wins)."""
        return list(self._own().points.values())

    def completed_ids(self, include_failed: bool = True) -> set[str]:
        """Point ids resume() should skip.

        ``include_failed=False`` treats terminally-failed points as pending
        so a resume retries them.
        """
        return {
            pid
            for pid, record in self._own().points.items()
            if record["status"] == "ok"
            or (include_failed and record["status"] == "failed")
        }

    def status(self) -> dict[str, Any]:
        """Progress snapshot: header fields + done/failed/pending counts."""
        tail = self._own()
        statuses = [record["status"] for record in tail.points.values()]
        return self._snapshot(tail, statuses.count("ok"), statuses.count("failed"))

    # -- multi-writer merge (lease-scheduler shards) -------------------------------

    def shard_paths(self) -> list[Path]:
        """Shard store files next to this store, in deterministic name order."""
        directory = shard_dir(self.path)
        if not directory.is_dir():
            return []
        return sorted(directory.glob("*.jsonl"))

    def merged_point_records(self) -> list[dict[str, Any]]:
        """Terminal point records merged across the main store and all shards.

        Within each file the last record per id wins (a retried success
        beats an earlier failure, exactly as :meth:`point_records`).  Across
        files an ``ok`` record beats a ``failed`` one; between records of
        equal status the earliest file in deterministic order wins (main
        store first, then shards sorted by name), which makes the merge
        independent of filesystem enumeration order.  A file with a corrupt
        line before its last is skipped.  The list is in the order this
        reader first saw each id; key it by ``"id"``.
        """
        self._refresh()
        return list(self._merged.values())

    def terminal_record_counts(self) -> dict[str, int]:
        """``point id -> number of terminal records`` across store + shards.

        A well-behaved distributed run writes exactly one terminal record
        per point; any id counting 2+ means the lease protocol let two
        workers finish the same point (the CI smoke asserts this is empty
        after a worker SIGKILL).
        """
        self._refresh()
        return dict(self._terminal)

    def merged_completed_ids(self, include_failed: bool = True) -> set[str]:
        """Point ids a resume/worker should skip, across store + shards."""
        self._refresh()
        return self._ok | self._failed if include_failed else set(self._ok)

    def merged_status(self) -> dict[str, Any]:
        """Like :meth:`status` but counting points across store + shards."""
        tail = self._own()
        status = self._snapshot(tail, len(self._ok), len(self._failed))
        status["shards"] = len(self._tails) - 1
        return status
