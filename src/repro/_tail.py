"""Follow an append-only file of newline-terminated lines.

The byte-level half of a tail-following reader, shared by the result
store (:mod:`repro.campaign.store`) and the telemetry-log reader
(:mod:`repro.obs.trace`): where a reader stands in one file, and which of
its bytes are new.  What the lines mean stays with each reader.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["LineTail"]


class LineTail:
    """How far a reader has read one append-only file.

    ``offset`` is the byte just past the last newline consumed, so a line
    still being appended (no newline yet) waits for a later read;
    ``identity`` is the file's ``(st_dev, st_ino)``.
    """

    __slots__ = ("identity", "offset")

    def __init__(self) -> None:
        self.identity: tuple[int, int] | None = None
        self.offset = 0

    def read(self, path: Path, idle: bool = False) -> tuple[bool, str]:
        """The complete lines ``path`` gained since the last read.

        Returns ``(fresh, text)``.  ``fresh`` means the text starts at byte
        0: this is the first read, or the file was replaced (new device or
        inode), or it no longer has a newline just before the offset (it
        shrank, or was rewritten in place), so whatever the caller derived
        from earlier reads is void.  With ``idle=True`` a file that is not
        fresh is left unread.  An ``OSError`` propagates and leaves the
        position untouched.
        """
        with open(path, "rb") as handle:
            info = os.fstat(handle.fileno())
            identity = (info.st_dev, info.st_ino)
            fresh = identity != self.identity
            if not fresh and self.offset:
                handle.seek(self.offset - 1)
                fresh = handle.read(1) != b"\n"  # shrank, or rewritten in place
            if idle and not fresh:
                return False, ""
            start = 0 if fresh else self.offset
            handle.seek(start)
            data = handle.read()
        end = data.rfind(b"\n") + 1
        self.identity = identity
        self.offset = start + end
        return fresh, data[:end].decode("utf-8", "replace")
