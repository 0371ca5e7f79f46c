"""Hostile bytes against the device-image loader.

For any file content, ``FileBackedWormDevice.open_path`` either opens a
device or raises ``StorageError`` — never ``struct.error``, ``ValueError``
or ``IndexError`` — and a refused image leaves no open handle behind.  A
device that does open can read every block it calls written, and an image
the device wrote itself reopens as the device that wrote it.
"""

import os
import struct
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.worm.errors import StorageError
from repro.worm.filebacked import FileBackedWormDevice

BLOCK = 64
CAPACITY = 8
HEADER = struct.Struct(">8sIIB")
MAGIC = b"CLIODEV1"

block_lists = st.lists(st.binary(min_size=BLOCK, max_size=BLOCK), max_size=5)
invalidations = st.one_of(st.none(), st.integers(0, CAPACITY - 1))


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("hostile"))


def open_or_refuse(path):
    """The opened device, or None for an image refused with StorageError.
    A handle the refusal left open is reported when it is collected, which
    here (no reference cycle) is as soon as the exception is dropped."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        try:
            device = FileBackedWormDevice.open_path(path)
        except StorageError:
            device = None
    assert [str(w.message) for w in caught] == []
    return device


def observed(device):
    """Everything a client can see of a device's contents."""
    contents = []
    for block in range(device.capacity_blocks):
        if device.is_invalidated(block):
            contents.append("invalidated")
        elif device.is_written(block):
            contents.append(device.read_block(block))
        else:
            contents.append(None)
    return device.block_size, device.next_writable, contents


def written_image(tmp_dir, blocks, invalidate):
    """An image written by the device itself, and what the device held."""
    path = os.path.join(tmp_dir, "source.img")
    if os.path.exists(path):
        os.remove(path)
    with FileBackedWormDevice.create(path, BLOCK, CAPACITY) as device:
        for data in blocks:
            device.append_block(data)
        if invalidate is not None:
            device.invalidate(invalidate)
        held = observed(device)
    with open(path, "rb") as handle:
        return handle.read(), held


def hostile(tmp_dir, image):
    path = os.path.join(tmp_dir, "hostile.img")
    with open(path, "wb") as handle:
        handle.write(image)
    return path


def check_opens_consistent_or_refuses(tmp_dir, image):
    device = open_or_refuse(hostile(tmp_dir, image))
    if device is not None:
        with device:
            observed(device)


@settings(max_examples=200, deadline=None)
@given(blocks=block_lists, invalidate=invalidations)
def test_valid_image_round_trips(tmp_dir, blocks, invalidate):
    image, held = written_image(tmp_dir, blocks, invalidate)
    device = open_or_refuse(hostile(tmp_dir, image))
    assert device is not None
    with device:
        assert observed(device) == held


@settings(max_examples=300, deadline=None)
@given(image=st.binary(max_size=400))
def test_arbitrary_bytes_open_or_raise_storage_error(tmp_dir, image):
    check_opens_consistent_or_refuses(tmp_dir, image)


@settings(max_examples=300, deadline=None)
@given(
    block_size=st.integers(0, 300),
    capacity=st.integers(0, 300),
    tail_query=st.integers(0, 255),
    body=st.binary(max_size=400),
)
def test_arbitrary_image_behind_the_magic(
    tmp_dir, block_size, capacity, tail_query, body
):
    """Sizes near the file's own, where a few random bytes almost never land."""
    header = HEADER.pack(MAGIC, block_size, capacity, tail_query)
    check_opens_consistent_or_refuses(tmp_dir, header + body)


@settings(max_examples=300, deadline=None)
@given(blocks=block_lists, invalidate=invalidations, data=st.data())
def test_flipped_and_truncated_valid_image(tmp_dir, blocks, invalidate, data):
    image = bytearray(written_image(tmp_dir, blocks, invalidate)[0])
    for _ in range(data.draw(st.integers(0, 3))):
        bit = data.draw(st.integers(0, len(image) * 8 - 1))
        image[bit // 8] ^= 1 << (bit % 8)
    cut = data.draw(st.integers(0, len(image)))
    check_opens_consistent_or_refuses(tmp_dir, bytes(image[:cut]))


class TestNamedCases:
    """Each defect the loader had, pinned by name."""

    @staticmethod
    def image(block_size=BLOCK, capacity=CAPACITY, states=None, blocks=b""):
        states = bytes(capacity) if states is None else states
        return HEADER.pack(MAGIC, block_size, capacity, 1) + states + blocks

    def refused(self, tmp_dir, image):
        return open_or_refuse(hostile(tmp_dir, image)) is None

    def test_zero_block_size_is_refused(self, tmp_dir):
        assert self.refused(tmp_dir, self.image(block_size=0))

    def test_zero_capacity_is_refused(self, tmp_dir):
        assert self.refused(tmp_dir, self.image(capacity=0))

    def test_file_ending_inside_the_state_map_is_refused(self, tmp_dir):
        assert self.refused(tmp_dir, self.image(capacity=1000, states=bytes(4)))

    def test_unknown_state_byte_is_refused(self, tmp_dir):
        states = bytes([7]) + bytes(CAPACITY - 1)
        assert self.refused(tmp_dir, self.image(states=states, blocks=bytes(BLOCK)))

    def test_file_ending_inside_a_written_block_is_refused(self, tmp_dir):
        states = bytes([1]) + bytes(CAPACITY - 1)
        assert self.refused(
            tmp_dir, self.image(states=states, blocks=bytes(BLOCK - 1))
        )

    def test_huge_declared_block_is_refused_not_allocated(self, tmp_dir):
        states = bytes([1]) + bytes(CAPACITY - 1)
        assert self.refused(
            tmp_dir, self.image(block_size=(1 << 32) - 1, states=states)
        )
