"""A store directory in the CLI's layout, driven through the public API.

One ``vol-NNN.img`` per volume plus ``nvram.img``, exactly what
``python -m repro`` reads and writes, so the same directory serves the
in-process workloads and the cold-CLI samples.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass

from repro.core.recovery import RecoveryReport
from repro.core.service import LogService
from repro.worm.filebacked import FileBackedNvram, FileBackedWormDevice

__all__ = ["StoreDir", "BLOCK_SIZE", "DEGREE_N", "VOLUME_BLOCKS"]

BLOCK_SIZE = 1024
DEGREE_N = 16
#: Small enough that the long workloads roll over several volumes.
VOLUME_BLOCKS = 8192


@dataclass(frozen=True, slots=True)
class StoreDir:
    """Where a store lives and how its service is configured."""

    path: str
    cache_blocks: int

    def volume_paths(self) -> list[str]:
        return sorted(glob.glob(os.path.join(self.path, "vol-*.img")))

    @property
    def nvram_path(self) -> str:
        return os.path.join(self.path, "nvram.img")

    def _new_volume(self) -> FileBackedWormDevice:
        index = len(self.volume_paths())
        return FileBackedWormDevice.create(
            os.path.join(self.path, f"vol-{index:03d}.img"),
            block_size=BLOCK_SIZE,
            capacity_blocks=VOLUME_BLOCKS,
        )

    def create(self) -> LogService:
        """Initialize a fresh store in an empty directory."""
        os.makedirs(self.path)
        return LogService.create(
            block_size=BLOCK_SIZE,
            degree_n=DEGREE_N,
            volume_capacity_blocks=VOLUME_BLOCKS,
            cache_capacity_blocks=self.cache_blocks,
            device_factory=self._new_volume,
            nvram=FileBackedNvram(self.nvram_path, capacity_bytes=BLOCK_SIZE),
        )

    def mount(self) -> tuple[LogService, RecoveryReport]:
        """Reopen every image from its path and run recovery."""
        devices = [
            FileBackedWormDevice.open_path(path) for path in self.volume_paths()
        ]
        nvram = FileBackedNvram(self.nvram_path, capacity_bytes=BLOCK_SIZE)
        return LogService.mount(
            devices,
            nvram,
            cache_capacity_blocks=self.cache_blocks,
            device_factory=self._new_volume,
        )

    @staticmethod
    def crash(service: LogService) -> None:
        """Process-level loss: drop volatile state, close the image files."""
        remains = service.crash()
        for device in remains.devices:
            device.close()
