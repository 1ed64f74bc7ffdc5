"""Seeded on-disk corruption of artifact-store files.

A test device for the store's crash-consistency tests: it breaks files
the way an interrupted or failing disk would, so the tests can check
that every broken artifact reads back as a cache miss.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field


@dataclass
class ArtifactChaos:
    """Seeded corruption of artifact files, for crash-consistency fuzz.

    Each method simulates one way a file ends up broken on disk — a
    write truncated mid-stream, a torn/garbage block, a created-but-
    empty file. The store contract under test: every one must read back
    as a cache miss (``None``), never an exception, so a corrupted
    cache degrades to recomputation.
    """

    seed: int = 0
    _calls: int = field(default=0, repr=False)

    def _fraction(self, tag: str) -> float:
        self._calls += 1
        digest = hashlib.sha256(
            f"{self.seed}:{self._calls}:{tag}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def truncate(self, path) -> int:
        """Cut the file mid-write; returns the bytes kept."""
        size = os.path.getsize(path)
        keep = int(size * self._fraction("truncate"))
        with open(path, "r+b") as handle:
            handle.truncate(keep)
        return keep

    def corrupt(self, path) -> None:
        """Overwrite a seeded slice of the file with garbage bytes."""
        size = os.path.getsize(path)
        if size == 0:
            return
        start = int((size - 1) * self._fraction("corrupt-start"))
        length = max(1, int((size - start) * self._fraction("corrupt-len")))
        junk = hashlib.sha256(
            f"{self.seed}:junk:{start}".encode()
        ).digest() * (length // 32 + 1)
        with open(path, "r+b") as handle:
            handle.seek(start)
            handle.write(junk[:length])

    def zero(self, path) -> None:
        """Replace the file with a zero-byte husk (created, never filled)."""
        with open(path, "wb"):
            pass
