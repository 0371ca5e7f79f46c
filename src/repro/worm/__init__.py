"""Write-once storage substrate: devices, volumes, NVRAM tail, fault injection.

This package implements the storage layer the paper's log service sits on:
block devices whose write discipline is *enforced* append-only
(:class:`WormDevice`), removable media with self-describing headers
(:class:`LogVolume`), multi-volume chaining (:class:`VolumeSequence`),
battery-backed-RAM tail staging (:class:`NvramTail`), and the fault
injection used to exercise Section 2.3's recovery paths.
"""

from repro.worm.device import BlockDevice, DeviceStats, RewritableDevice, WormDevice
from repro.worm.errors import (
    BlockOutOfRange,
    CorruptBlockError,
    DeviceCrashed,
    InvalidatedBlockError,
    StorageError,
    UnwrittenBlockError,
    VolumeFullError,
    VolumeOfflineError,
    VolumeSealedError,
    VolumeSequenceError,
    WriteOnceViolation,
)
from repro.worm.geometry import (
    MAGNETIC_DISK,
    NULL_GEOMETRY,
    OPTICAL_DISK,
    RAM_DISK,
    DeviceGeometry,
)
from repro.worm.nvram import NvramTail, TailImage
from repro.worm.volume import LogVolume, VolumeHeader, VolumeSequence

__all__ = [
    "BlockDevice",
    "WormDevice",
    "RewritableDevice",
    "DeviceStats",
    "DeviceGeometry",
    "OPTICAL_DISK",
    "MAGNETIC_DISK",
    "RAM_DISK",
    "NULL_GEOMETRY",
    "NvramTail",
    "TailImage",
    "LogVolume",
    "VolumeHeader",
    "VolumeSequence",
    "StorageError",
    "WriteOnceViolation",
    "BlockOutOfRange",
    "UnwrittenBlockError",
    "CorruptBlockError",
    "InvalidatedBlockError",
    "VolumeFullError",
    "VolumeOfflineError",
    "VolumeSealedError",
    "VolumeSequenceError",
    "DeviceCrashed",
]
