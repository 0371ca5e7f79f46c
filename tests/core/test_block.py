"""Tests for the Figure-1 block codec: packing, backward index, CRC,
fragmentation, and round-trip properties."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import (
    BLOCK_OVERHEAD,
    BlockBuilder,
    BlockFormatError,
    MIN_BLOCK_SIZE,
    parse_block,
)
from repro.core.entry import LogEntry

BS = 128


def record(logfile_id=8, size=10, timestamp=None):
    return LogEntry(
        logfile_id=logfile_id, data=b"\xab" * size, timestamp=timestamp
    ).encode()


def pack_blocks(records, block_size=BS):
    """Pack records into as many blocks as needed; returns block images.

    This mirrors the writer's inner loop, exercising fragmentation.
    """
    images = []
    builder = BlockBuilder(block_size)
    for rec in records:
        header_size = 2  # minimal-form records in these tests
        taken = builder.add_record(rec, header_size)
        while taken < len(rec):
            if taken == 0 and builder.is_empty:
                raise AssertionError("record cannot make progress")
            images.append(builder.encode())
            builder = BlockBuilder(block_size, cont_in=taken > 0)
            if taken == 0:
                taken = builder.add_record(rec, header_size)
            else:
                taken += builder.add_continuation(rec[taken:])
    if not builder.is_empty:
        images.append(builder.encode())
    return images


class TestBuilderBasics:
    def test_single_record_roundtrip(self):
        builder = BlockBuilder(BS)
        rec = record(size=20)
        assert builder.add_record(rec, 2) == len(rec)
        parsed = parse_block(builder.encode())
        assert parsed.fragments == (rec,)
        assert not parsed.cont_in and not parsed.cont_out

    def test_multiple_records_in_order(self):
        builder = BlockBuilder(BS)
        recs = [record(size=s) for s in (5, 10, 15)]
        for rec in recs:
            assert builder.add_record(rec, 2) == len(rec)
        parsed = parse_block(builder.encode())
        assert list(parsed.fragments) == recs

    def test_encoded_block_is_exact_size(self):
        builder = BlockBuilder(BS)
        builder.add_record(record(size=5), 2)
        assert len(builder.encode()) == BS

    def test_size_index_runs_backward(self):
        """Figure 1: sizes s_n..s_1 at the block tail, s_1 rightmost."""
        builder = BlockBuilder(BS)
        builder.add_record(record(size=3), 2)   # record size 5
        builder.add_record(record(size=7), 2)   # record size 9
        image = builder.encode()
        (s1,) = struct.unpack_from(">H", image, BS - 4 - 2)
        (s2,) = struct.unpack_from(">H", image, BS - 4 - 4)
        assert s1 == 5
        assert s2 == 9

    @pytest.mark.parametrize("drift", [-1, 1])
    def test_encode_refuses_fragments_its_count_disagrees_with(self, drift):
        """The image length is checked against the fragment bytes joined,
        not only against the builder's running data count."""
        builder = BlockBuilder(BS)
        builder.add_record(record(size=5), 2)
        builder._data_len += drift
        with pytest.raises(RuntimeError, match="accounting bug"):
            builder.encode()

    def test_min_block_size_enforced(self):
        with pytest.raises(ValueError):
            BlockBuilder(MIN_BLOCK_SIZE - 1)

    def test_free_bytes_accounting(self):
        builder = BlockBuilder(BS)
        initial = builder.free_bytes
        assert initial == BS - BLOCK_OVERHEAD - 2
        rec = record(size=10)
        builder.add_record(rec, 2)
        assert builder.free_bytes == initial - len(rec) - 2

    def test_header_must_fit_to_start_record(self):
        builder = BlockBuilder(BS)
        filler = record(size=BS - BLOCK_OVERHEAD - 2 - 2 - 1 - 2)
        assert builder.add_record(filler, 2) == len(filler)
        # 1 byte free with a new index slot: a 2-byte header cannot start.
        assert builder.free_bytes < 2
        assert builder.add_record(record(size=4), 2) == 0


class TestFragmentation:
    def test_oversize_record_spans_blocks(self):
        rec = record(size=200)  # record is 202 bytes > one 128-byte block
        images = pack_blocks([rec])
        assert len(images) == 2
        first, second = map(parse_block, images)
        assert first.cont_out and not first.cont_in
        assert second.cont_in and not second.cont_out
        assert first.fragments[-1] + second.fragments[0] == rec

    def test_three_block_span_has_pure_middle(self):
        rec = record(size=300)
        images = pack_blocks([rec])
        assert len(images) == 3
        middle = parse_block(images[1])
        assert middle.is_pure_middle

    def test_record_after_fragmented_record(self):
        big = record(size=150)
        small = record(size=4)
        images = pack_blocks([big, small])
        last = parse_block(images[-1])
        assert last.cont_in
        assert last.fragments[-1] == small

    def test_entry_start_slots_skip_continuation(self):
        images = pack_blocks([record(size=150), record(size=4)])
        last = parse_block(images[-1])
        assert list(last.entry_start_slots()) == [1]

    def test_entry_start_slots_cannot_be_changed_by_a_caller(self):
        images = pack_blocks([record(size=150), record(size=4), record(size=4)])
        last = parse_block(images[-1])
        handed_out = last.entry_start_slots()
        with pytest.raises((TypeError, AttributeError)):
            handed_out.append(0)
        with pytest.raises(TypeError):
            handed_out[0] = 0
        assert list(last.entry_start_slots()) == [1, 2]

    def test_is_complete_flags(self):
        images = pack_blocks([record(size=150)])
        first = parse_block(images[0])
        assert not first.is_complete(first.entry_start_slots()[0])

    def test_continuation_must_be_first_fragment(self):
        builder = BlockBuilder(BS, cont_in=True)
        builder.add_continuation(b"xy")
        with pytest.raises(RuntimeError):
            builder.add_continuation(b"zz")

    def test_cont_builder_requires_flag(self):
        builder = BlockBuilder(BS)
        with pytest.raises(RuntimeError):
            builder.add_continuation(b"zz")

    def test_no_record_after_cont_out(self):
        builder = BlockBuilder(BS)
        builder.add_record(record(size=150), 2)
        with pytest.raises(RuntimeError):
            builder.add_record(record(size=2), 2)


class TestParsing:
    def test_bad_magic_rejected(self):
        with pytest.raises(BlockFormatError):
            parse_block(b"\x00" * BS)

    def test_crc_detects_corruption(self):
        builder = BlockBuilder(BS)
        builder.add_record(record(size=10), 2)
        image = bytearray(builder.encode())
        image[20] ^= 0xFF
        with pytest.raises(BlockFormatError):
            parse_block(bytes(image))

    def test_crc_detects_index_corruption(self):
        builder = BlockBuilder(BS)
        builder.add_record(record(size=10), 2)
        image = bytearray(builder.encode())
        image[BS - 5] ^= 0x01
        with pytest.raises(BlockFormatError):
            parse_block(bytes(image))

    def test_all_ones_block_rejected(self):
        with pytest.raises(BlockFormatError):
            parse_block(b"\xff" * BS)

    def test_too_small_rejected(self):
        with pytest.raises(BlockFormatError):
            parse_block(b"\xc1" * 8)


class TestResume:
    def test_from_image_roundtrip(self):
        builder = BlockBuilder(BS)
        builder.add_record(record(size=10), 2)
        resumed = BlockBuilder.from_image(builder.encode())
        rec2 = record(size=5)
        resumed.add_record(rec2, 2)
        parsed = parse_block(resumed.encode())
        assert parsed.fragments[1] == rec2

    def test_from_image_preserves_cont_flags(self):
        images = pack_blocks([record(size=150)])
        resumed = BlockBuilder.from_image(images[-1])
        assert resumed.cont_in

    def test_resumed_free_bytes_match_fresh_equivalent(self):
        builder = BlockBuilder(BS)
        builder.add_record(record(size=10), 2)
        resumed = BlockBuilder.from_image(builder.encode())
        assert resumed.free_bytes == builder.free_bytes


# ---------------------------------------------------------------------------
# Property tests: arbitrary streams of records survive pack/parse/reassemble.
# ---------------------------------------------------------------------------

record_sizes = st.lists(
    st.integers(min_value=0, max_value=400), min_size=1, max_size=30
)


def reassemble(images):
    """Reconstruct the full record stream from consecutive block images."""
    records = []
    pending = b""
    for image in images:
        parsed = parse_block(image)
        for slot, fragment in enumerate(parsed.fragments):
            if slot == 0 and parsed.cont_in:
                pending += fragment
                if not (parsed.cont_out and len(parsed.fragments) == 1):
                    records.append(pending)
                    pending = b""
            elif parsed.cont_out and slot == len(parsed.fragments) - 1:
                pending = fragment
            else:
                records.append(fragment)
    if pending:
        records.append(pending)
    return records


class TestBlockProperties:
    @given(record_sizes)
    @settings(max_examples=100, deadline=None)
    def test_pack_parse_reassemble_roundtrip(self, sizes):
        recs = [record(logfile_id=8 + (i % 5), size=s) for i, s in enumerate(sizes)]
        images = pack_blocks(recs)
        assert reassemble(images) == recs

    @given(record_sizes, st.sampled_from([64, 128, 256, 1024]))
    @settings(max_examples=60, deadline=None)
    def test_all_blocks_parse_and_have_exact_size(self, sizes, block_size):
        recs = [record(size=s) for s in sizes]
        images = pack_blocks(recs, block_size=block_size)
        for image in images:
            assert len(image) == block_size
            parse_block(image)

    @given(record_sizes)
    @settings(max_examples=60, deadline=None)
    def test_backward_scan_equals_forward_scan(self, sizes):
        """Figure 1's design goal: the backward index reconstructs the same
        fragment boundaries a forward scan would."""
        recs = [record(size=s) for s in sizes]
        for image in pack_blocks(recs):
            parsed = parse_block(image)
            # Reconstruct fragments by walking the index backward.
            count = parsed.fragment_count
            rebuilt = []
            position = 10  # header size
            for i in range(count):
                (size,) = struct.unpack_from(">H", image, len(image) - 4 - 2 * (i + 1))
                rebuilt.append(image[position : position + size])
                position += size
            assert tuple(rebuilt) == parsed.fragments
