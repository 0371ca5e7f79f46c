"""Fault injection for the write-once substrate.

Section 2.3.2 requires the log service to tolerate *log volume corruption*:
"a failure may cause a portion of the log volume to be written with
garbage".  The tools here manufacture exactly those failures so the recovery
paths in :mod:`repro.core.recovery` can be tested deterministically:

* :func:`corrupt_block` — overwrite a block (written or not) with garbage,
  bypassing the write-once check, as a failing controller would.
* :func:`corrupt_range` — garbage a contiguous run of blocks.
* :class:`CrashingWormDevice` — a proxy that crashes the device after a
  programmed number of writes, optionally tearing the final write (only a
  prefix reaches the medium).  Tests sweep the crash point across every
  write of a workload to establish prefix durability.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.worm.device import DeviceStats, WormDevice
from repro.worm.errors import DeviceCrashed

if TYPE_CHECKING:  # pragma: no cover
    import random

    from repro.vsystem.clock import SimClock

__all__ = ["corrupt_block", "corrupt_range", "CrashingWormDevice"]


def _seeded(rng: random.Random | None, seed: int) -> random.Random:
    """``rng``, or a fresh generator with a fixed seed.  ``random`` is
    imported here: only fault injection needs it, not every ``clio`` verb."""
    if rng is None:
        import random

        rng = random.Random(seed)
    return rng


def corrupt_block(
    device: WormDevice, block: int, rng: random.Random | None = None
) -> bytes:
    """Overwrite ``block`` with random garbage, returning the garbage written.

    Uses the device's fault-injection back door: this is a *hardware
    failure*, not a client operation, so the write-once check is bypassed.
    The garbage is guaranteed not to be the all-1s invalidation pattern
    (which would make the block look deliberately invalidated rather than
    corrupt).
    """
    rng = _seeded(rng, 0)
    while True:
        garbage = bytes(rng.getrandbits(8) for _ in range(device.block_size))
        if any(b != WormDevice.INVALID_FILL for b in garbage):
            break
    device._raw_overwrite(block, garbage)
    return garbage


def corrupt_range(
    device: WormDevice,
    first_block: int,
    count: int,
    rng: random.Random | None = None,
) -> list[int]:
    """Garbage ``count`` consecutive blocks starting at ``first_block``.

    The whole span is validated before any block is touched, so a range
    that runs off the end of the device corrupts nothing (all-or-nothing
    injection); a non-positive ``count`` is a no-op.
    """
    if count <= 0:
        return []
    device._check_range(first_block)
    device._check_range(first_block + count - 1)
    rng = _seeded(rng, 0)
    corrupted: list[int] = []
    for block in range(first_block, first_block + count):
        corrupt_block(device, block, rng)
        corrupted.append(block)
    return corrupted


class CrashingWormDevice:
    """Proxy over a :class:`WormDevice` that fails after N writes.

    Reads and queries pass through untouched.  The ``crash_after_writes``-th
    write either never reaches the medium (``torn=False``) or reaches it as
    a garbage-suffixed prefix (``torn=True``, modelling a torn sector
    write); either way :class:`~repro.worm.errors.DeviceCrashed` is raised,
    and every subsequent operation also raises until :meth:`reincarnate` is
    called — at which point the underlying device, with whatever actually
    hit the medium, is returned for the recovery code to mount.
    """

    def __init__(
        self,
        inner: WormDevice,
        crash_after_writes: int,
        torn: bool = False,
        rng: random.Random | None = None,
    ) -> None:
        if crash_after_writes < 0:
            raise ValueError("crash_after_writes must be >= 0")
        self._inner = inner
        self._remaining = crash_after_writes
        self._torn = torn
        self._rng = _seeded(rng, 1)
        self._crashed = False

    # -- passthrough properties ------------------------------------------

    @property
    def block_size(self) -> int:
        return self._inner.block_size

    @property
    def capacity_blocks(self) -> int:
        return self._inner.capacity_blocks

    @property
    def next_writable(self) -> int:
        self._check_alive()
        return self._inner.next_writable

    @property
    def blocks_written(self) -> int:
        self._check_alive()
        return self._inner.blocks_written

    @property
    def is_full(self) -> bool:
        self._check_alive()
        return self._inner.is_full

    @property
    def supports_tail_query(self) -> bool:
        return self._inner.supports_tail_query

    @property
    def stats(self) -> DeviceStats:
        return self._inner.stats

    @property
    def clock(self) -> "SimClock | None":
        return self._inner.clock

    # -- lifecycle ---------------------------------------------------------

    def _check_alive(self) -> None:
        if self._crashed:
            raise DeviceCrashed("device has crashed; call reincarnate()")

    @property
    def has_crashed(self) -> bool:
        return self._crashed

    def reincarnate(self) -> WormDevice:
        """Return the underlying device for post-crash recovery."""
        if not self._crashed:
            raise RuntimeError("device has not crashed yet")
        return self._inner

    # -- operations --------------------------------------------------------

    def read_block(self, block: int) -> bytes:
        self._check_alive()
        return self._inner.read_block(block)

    def is_written(self, block: int) -> bool:
        self._check_alive()
        return self._inner.is_written(block)

    def is_invalidated(self, block: int) -> bool:
        self._check_alive()
        return self._inner.is_invalidated(block)

    def query_tail(self) -> int:
        self._check_alive()
        return self._inner.query_tail()

    def invalidate(self, block: int) -> None:
        self._check_alive()
        self._inner.invalidate(block)

    def write_block(self, block: int, data: bytes) -> None:
        self._check_alive()
        if self._remaining == 0:
            self._crashed = True
            if self._torn:
                cut = self._rng.randrange(1, self._inner.block_size)
                garbage = bytes(
                    self._rng.getrandbits(8)
                    for _ in range(self._inner.block_size - cut)
                )
                self._inner._raw_overwrite(block, data[:cut] + garbage)
                if block == self._inner._next_writable:
                    # The burn physically consumed the block: on write-once
                    # media a torn sector is still a used sector, so the
                    # append point moves past it.  Recovery will find the
                    # garbage inside the written area and must invalidate it.
                    self._inner._next_writable = block + 1
            raise DeviceCrashed(
                f"injected crash on write to block {block}"
                + (" (torn)" if self._torn else " (lost)")
            )
        self._remaining -= 1
        self._inner.write_block(block, data)

    def append_block(self, data: bytes) -> int:
        self._check_alive()
        block = self._inner.next_writable
        self.write_block(block, data)
        return block
