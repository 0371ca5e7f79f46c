"""Hostile bytes against the NVRAM sidecar loader, and the skipped rewrite.

For any file content, ``FileBackedNvram`` either loads an image the file
really holds or raises ``StorageError`` — never ``struct.error`` or
``IndexError``, and never a silently shortened tail block, which would
drop forced entries without a word.
"""

import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.worm.errors import StorageError
from repro.worm.filebacked import FileBackedNvram

CAPACITY = 1024
HEADER = struct.Struct(">8sQI")
MAGIC = b"CLIONVR1"


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("nvram") / "nvram.img")


def load_or_refuse(path, raw):
    """The loaded image (None for empty), or "refused"; whatever loads is
    what the file's own header describes, whole."""
    with open(path, "wb") as handle:
        handle.write(raw)
    try:
        image = FileBackedNvram(path, capacity_bytes=CAPACITY).load()
    except StorageError:
        return "refused"
    magic, block_index, length = HEADER.unpack_from(raw, 0)
    assert magic == MAGIC and length <= CAPACITY
    if image is None:
        assert length == 0
    else:
        assert (image.block_index, len(image.data)) == (block_index, length)
        assert image.data == raw[HEADER.size : HEADER.size + length]
    return image


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=200))
def test_arbitrary_bytes_load_or_raise_storage_error(path, raw):
    load_or_refuse(path, raw)


@settings(max_examples=300, deadline=None)
@given(
    block_index=st.integers(0, 2**64 - 1),
    length=st.integers(0, 2 * CAPACITY),
    body=st.binary(max_size=200),
)
def test_arbitrary_image_behind_the_magic(path, block_index, length, body):
    load_or_refuse(path, HEADER.pack(MAGIC, block_index, length) + body)


@settings(max_examples=300, deadline=None)
@given(tail=st.binary(max_size=CAPACITY), data=st.data())
def test_flipped_and_truncated_valid_file(path, tail, data):
    if os.path.exists(path):
        os.remove(path)
    FileBackedNvram(path, capacity_bytes=CAPACITY).store(9, tail)
    with open(path, "rb") as handle:
        raw = bytearray(handle.read())
    for _ in range(data.draw(st.integers(0, 3))):
        bit = data.draw(st.integers(0, len(raw) * 8 - 1))
        raw[bit // 8] ^= 1 << (bit % 8)
    load_or_refuse(path, bytes(raw[: data.draw(st.integers(0, len(raw)))]))


class TestNamedCases:
    """Each way the loader trusted the file, pinned by name."""

    def test_promised_bytes_absent_is_refused_not_empty(self, path):
        assert load_or_refuse(path, HEADER.pack(MAGIC, 3, 1024)) == "refused"

    def test_cut_image_is_refused_not_shortened(self, path):
        whole = HEADER.pack(MAGIC, 3, 1024) + bytes(1024)
        assert load_or_refuse(path, whole[:300]) == "refused"

    def test_length_beyond_capacity_is_refused(self, path):
        oversized = HEADER.pack(MAGIC, 3, 5000) + bytes(5000)
        assert load_or_refuse(path, oversized) == "refused"

    def test_short_header_is_refused_not_ignored(self, path):
        assert load_or_refuse(path, b"CLION") == "refused"
        assert load_or_refuse(path, b"") == "refused"

    def test_bad_magic_is_refused(self, path):
        assert load_or_refuse(path, HEADER.pack(b"CLIONVR2", 0, 0)) == "refused"

    def test_missing_file_and_valid_empty_image_are_no_image(self, tmp_path):
        missing = str(tmp_path / "none.img")
        assert FileBackedNvram(missing, capacity_bytes=CAPACITY).load() is None
        assert not os.path.exists(missing)
        assert load_or_refuse(str(tmp_path / "e.img"), HEADER.pack(MAGIC, 0, 0)) is None


class TestClearSkipsARewriteOfTheEmptyImage:
    @pytest.fixture
    def replaces(self, monkeypatch):
        calls = []
        real = os.replace

        def counted(src, dst):
            calls.append(dst)
            real(src, dst)

        monkeypatch.setattr(os, "replace", counted)
        return calls

    def test_only_the_first_clear_after_a_store_rewrites(self, tmp_path, replaces):
        path = str(tmp_path / "nvram.img")
        nvram = FileBackedNvram(path, capacity_bytes=CAPACITY)
        nvram.store(1, b"tail")
        nvram.clear()
        nvram.clear()
        nvram.clear()
        assert len(replaces) == 2
        assert FileBackedNvram(path, capacity_bytes=CAPACITY).load() is None
        nvram.store(2, b"next")
        nvram.clear()
        assert len(replaces) == 4

    def test_a_store_never_persisted_still_gets_its_file(self, tmp_path, replaces):
        path = str(tmp_path / "nvram.img")
        FileBackedNvram(path, capacity_bytes=CAPACITY).clear()
        assert len(replaces) == 1
        with open(path, "rb") as handle:
            assert handle.read() == HEADER.pack(MAGIC, 0, 0)

    def test_a_reloaded_empty_image_is_not_rewritten_but_a_full_one_is(
        self, tmp_path, replaces
    ):
        path = str(tmp_path / "nvram.img")
        FileBackedNvram(path, capacity_bytes=CAPACITY).clear()
        FileBackedNvram(path, capacity_bytes=CAPACITY).clear()
        assert len(replaces) == 1
        FileBackedNvram(path, capacity_bytes=CAPACITY).store(4, b"tail")
        FileBackedNvram(path, capacity_bytes=CAPACITY).clear()
        assert len(replaces) == 3
        assert FileBackedNvram(path, capacity_bytes=CAPACITY).load() is None
