"""The generator's model of the store, and the checks made against it.

Every payload the benchmark hands the program is remembered here as an
8-byte fingerprint, per log file and in append order, together with the
server timestamp it was acknowledged with and its position in the global
append order.  What the program reads back is compared with this model —
never with something the program itself said earlier.

Durability follows Section 2.3.1: a forced append makes *everything*
appended so far durable (the whole tail block goes to NVRAM), so the
model keeps one durable watermark per file, advanced on every force.
After a crash the surviving entries of each file must be a prefix of what
was appended, at least as long as the watermark, and across files the
lost entries must all be newer than every survivor (no holes).
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Iterable

__all__ = ["Oracle", "fingerprint", "fingerprints"]


def fingerprint(payload: bytes) -> int:
    """A signed 64-bit digest of one payload."""
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "big", signed=True
    )


def fingerprints(payloads: Iterable[bytes]) -> array:
    return array("q", map(fingerprint, payloads))


class Oracle:
    """What the store must contain, file by file."""

    def __init__(self) -> None:
        self.prints: dict[str, array] = {}
        self.stamps: dict[str, array] = {}
        self.seqs: dict[str, array] = {}
        self.sizes: dict[str, array] = {}
        self.durable: dict[str, int] = {}
        self._next_seq = 0
        #: SHA-256 over the fingerprints the scans should have returned,
        #: and over the ones they did return.
        self.scan_expected = hashlib.sha256()
        self.scan_actual = hashlib.sha256()

    def add_file(self, path: str) -> None:
        self.prints[path] = array("q")
        self.stamps[path] = array("q")
        self.seqs[path] = array("q")
        self.sizes[path] = array("q")
        self.durable[path] = 0

    def appended(self, path: str, payload: bytes, timestamp: int) -> None:
        """Record one acknowledged append."""
        self.prints[path].append(fingerprint(payload))
        self.stamps[path].append(timestamp)
        self.seqs[path].append(self._next_seq)
        self.sizes[path].append(len(payload))
        self._next_seq += 1

    def forced(self) -> None:
        """A force was acknowledged: everything so far is durable."""
        for path, prints in self.prints.items():
            self.durable[path] = len(prints)

    def count(self, path: str) -> int:
        return len(self.prints[path])

    @property
    def user_bytes(self) -> int:
        return sum(sum(sizes) for sizes in self.sizes.values())

    @property
    def entries(self) -> int:
        return sum(len(prints) for prints in self.prints.values())

    # -- checks ----------------------------------------------------------------

    def matches(self, path: str, start: int, payloads: list[bytes]) -> bool:
        """Do ``payloads`` equal the file's entries from index ``start``?"""
        if start < 0:
            return False
        expected = self.prints[path][start : start + len(payloads)]
        return len(expected) == len(payloads) and expected == fingerprints(payloads)

    def check_scan(self, path: str, start: int, payloads: list[bytes]) -> bool:
        """Fold one scan slice into both digests; True if it matched."""
        actual = fingerprints(payloads)
        expected = self.prints[path][start : start + len(payloads)]
        self.scan_actual.update(actual.tobytes())
        self.scan_expected.update(expected.tobytes())
        return actual == expected

    @property
    def scan_digests_agree(self) -> bool:
        return self.scan_actual.digest() == self.scan_expected.digest()

    def survivors(self, path: str, newest: list[bytes], asked: int) -> int | None:
        """How many entries of ``path`` survived a crash, given the answer
        to "the newest ``asked`` entries" (oldest first); None when that
        answer is not the end of any admissible prefix."""
        prints = self.prints[path]
        got = fingerprints(newest)
        if len(got) < asked:
            # Fewer exist than were asked for: this is the whole file.
            candidates: Iterable[int] = (len(got),)
        else:
            candidates = range(len(prints), self.durable[path] - 1, -1)
        for length in candidates:
            if (
                self.durable[path] <= length <= len(prints)
                and length >= len(got)
                and prints[length - len(got) : length] == got
            ):
                return length
        return None

    def truncate(self, surviving: dict[str, int]) -> bool:
        """Forget entries lost in a crash; False if the loss left a hole
        (a lost entry older than some survivor)."""
        newest_survivor = -1
        oldest_lost = self._next_seq
        for path, length in surviving.items():
            seqs = self.seqs[path]
            if length:
                newest_survivor = max(newest_survivor, seqs[length - 1])
            if length < len(seqs):
                oldest_lost = min(oldest_lost, seqs[length])
        for path, length in surviving.items():
            for column in (self.prints, self.stamps, self.seqs, self.sizes):
                del column[path][length:]
            self.durable[path] = min(self.durable[path], length)
        return oldest_lost > newest_survivor
