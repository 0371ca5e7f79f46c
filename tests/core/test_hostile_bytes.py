"""Hostile bytes against the read path's decoders.

For any input, ``parse_block`` either returns a block or raises its own
``BlockFormatError``, and ``decode_record`` / ``peek_logfile_id`` /
``peek_timestamp`` either succeed or raise ``CorruptRecord`` — never
``struct.error``, ``IndexError`` or a ``ValueError`` of another kind.  The
header peeks the decoded tier and the time search use, and the reader's
per-block id peek, must accept and reject exactly what the full decode
does.  ``EntrymapRecord.decode`` raises
only ``ValueError`` (what the reader and ``fsck`` catch),
``CatalogRecord.decode`` only ``CatalogError`` (what catalog replay and
``fsck`` catch) and ``VolumeHeader.decode`` only ``VolumeSequenceError``.
"""

import dataclasses
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LogService
from repro.core.block import (
    MIN_BLOCK_SIZE,
    BlockBuilder,
    BlockFormatError,
    ParsedBlock,
    parse_block,
)
from repro.core.catalog import CatalogError, CatalogOp, CatalogRecord
from repro.core.entry import (
    CorruptRecord,
    DecodedRecord,
    HeaderForm,
    LogEntry,
    decode_record,
    peek_logfile_id,
    peek_timestamp,
)
from repro.core.entrymap import EntrymapRecord
from repro.worm.errors import VolumeSequenceError
from repro.worm.volume import VolumeHeader

BLOCK = 128


def _restamp(image: bytes) -> bytes:
    """The image with its CRC trailer made valid again."""
    return image[:-4] + struct.pack(">I", zlib.crc32(image[:-4]))


@st.composite
def garbage_record_images(draw):
    """A CRC-valid block whose records may be garbage: any bytes, so an
    unknown version nibble or fewer bytes than the header form needs."""
    builder = BlockBuilder(BLOCK, cont_in=draw(st.booleans()))
    if builder.cont_in:
        builder.add_continuation(draw(st.binary(min_size=1, max_size=20)))
    for record in draw(st.lists(st.binary(min_size=1, max_size=16), max_size=6)):
        if builder.cont_out or not builder.add_record(record, min(2, len(record))):
            break
    return builder.encode()


@st.composite
def valid_images(draw):
    """A well-formed block image built by the writer's own builder."""
    cont_in = draw(st.booleans())
    builder = BlockBuilder(BLOCK, cont_in=cont_in)
    if cont_in:
        builder.add_continuation(draw(st.binary(min_size=1, max_size=40)))
    for _ in range(draw(st.integers(0, 6))):
        entry = LogEntry(
            logfile_id=draw(st.integers(0, 4095)),
            data=draw(st.binary(max_size=30)),
            timestamp=draw(st.one_of(st.none(), st.integers(0, (1 << 64) - 1))),
        )
        if builder.cont_out or not builder.add_record(
            entry.encode(), entry.header_size
        ):
            break
    return builder.encode()


@st.composite
def mutated_images(draw):
    """A valid image with some bytes replaced; optionally the CRC is then
    re-stamped, so the damage reaches the geometry checks behind it."""
    image = bytearray(draw(valid_images()))
    for _ in range(draw(st.integers(1, 4))):
        position = draw(st.integers(0, len(image) - 1))
        if draw(st.booleans()):
            image[position] ^= 1 << draw(st.integers(0, 7))
        else:
            image[position] = draw(st.integers(0, 255))
    image = bytes(image)
    return _restamp(image) if draw(st.booleans()) else image


def _parse_or_format_error(image: bytes) -> ParsedBlock | None:
    try:
        parsed = parse_block(image)
    except BlockFormatError:
        return None
    assert isinstance(parsed, ParsedBlock)
    return parsed


class TestRecordHeader:
    @settings(max_examples=300)
    @given(st.binary(max_size=40))
    def test_peek_agrees_with_decode(self, record):
        try:
            peeked = peek_logfile_id(record)
        except CorruptRecord:
            peeked = None
        try:
            decoded = decode_record(record).entry
        except CorruptRecord:
            decoded = None
        if peeked is None or decoded is None:
            assert peeked is None and decoded is None
        else:
            assert peeked == decoded.logfile_id

    @settings(max_examples=300)
    @given(st.binary(max_size=40), st.binary(max_size=8), st.binary(max_size=8))
    def test_timestamp_peek_in_place_agrees_with_decode(self, record, before, after):
        """Peeked where it sits inside a larger buffer, the timestamp is
        the decoded one, and the peek fails exactly when the decode does."""
        buffer = before + record + after
        try:
            peeked = peek_timestamp(buffer, len(before), len(before) + len(record))
        except CorruptRecord:
            with pytest.raises(CorruptRecord):
                decode_record(record)
            return
        assert peeked == decode_record(record).entry.timestamp
        assert peek_logfile_id(
            buffer, len(before), len(before) + len(record)
        ) == peek_logfile_id(record)

    @given(
        st.integers(0, 15),
        st.integers(0, 4095),
        st.binary(max_size=20),
    )
    def test_every_version_nibble(self, version, logfile_id, rest):
        """Known forms need room for their header; every other nibble is
        rejected, by both, whatever follows."""
        record = struct.pack(">H", (version << 12) | logfile_id) + rest
        known = {form.value: form.header_size for form in HeaderForm}
        if version in known and len(record) >= known[version]:
            assert peek_logfile_id(record) == logfile_id
            assert decode_record(record).entry.logfile_id == logfile_id
        else:
            for decoder in (peek_logfile_id, decode_record):
                try:
                    decoder(record)
                except CorruptRecord:
                    continue
                raise AssertionError(f"{decoder.__name__} accepted {record!r}")


class TestParseBlock:
    @settings(max_examples=300)
    @given(st.binary(max_size=2 * BLOCK))
    def test_arbitrary_bytes(self, image):
        _parse_or_format_error(image)

    @settings(max_examples=300)
    @given(st.binary(min_size=MIN_BLOCK_SIZE, max_size=BLOCK))
    def test_arbitrary_bytes_behind_a_valid_magic_and_crc(self, image):
        """Get random bytes past the two cheap checks so the header fields
        and the size index themselves are what is hostile."""
        _parse_or_format_error(_restamp(b"\xc1" + image[1:]))

    @given(valid_images())
    def test_valid_images_parse(self, image):
        parsed = parse_block(image)
        assert sum(len(f) for f in parsed.fragments) <= BLOCK
        assert list(parsed.entry_start_slots()) == list(
            range(1 if parsed.cont_in else 0, parsed.fragment_count)
        )

    @settings(max_examples=400)
    @given(mutated_images())
    def test_mutated_valid_images(self, image):
        parsed = _parse_or_format_error(image)
        if parsed is None:
            return
        # Whatever survived is self-consistent, and its records — garbage
        # or not — only ever fail as CorruptRecord.
        assert sum(len(f) for f in parsed.fragments) <= len(image)
        for slot in parsed.entry_start_slots():
            try:
                peek_logfile_id(parsed.fragments[slot])
            except CorruptRecord:
                pass

    @settings(max_examples=300)
    @given(garbage_record_images())
    def test_record_ids_keep_what_the_record_peek_validates(self, image):
        """The reader's per-block id peek, which checks every header in
        place, keeps exactly the ids ``peek_logfile_id`` validates."""
        parsed = parse_block(image)
        expected = [None] * parsed.fragment_count
        for slot in parsed.entry_start_slots():
            try:
                expected[slot] = peek_logfile_id(parsed.fragments[slot])
            except CorruptRecord:
                pass
        reader = LogService.create(
            block_size=256, degree_n=4, volume_capacity_blocks=8
        ).reader
        assert reader.record_ids(parsed) == expected

    @settings(max_examples=300)
    @given(garbage_record_images())
    def test_decode_builds_what_the_validating_constructor_builds(self, image):
        """``decode_record`` fills its entry without ``__post_init__``: it
        refuses exactly the records whose header is not a known form with
        room for it, and any other record decodes to the entry the
        validating constructor builds from the header's fields."""
        sizes = {form.value: form.header_size for form in HeaderForm}
        parsed = parse_block(image)
        for record in parsed.fragments:
            version = record[0] >> 4 if record else 0
            if version not in sizes or len(record) < sizes[version]:
                with pytest.raises(CorruptRecord):
                    decode_record(record)
                continue
            logfile_id, timestamp, client_seq = struct.unpack_from(
                ">HQI", record.ljust(14, b"\0")
            )
            expected = LogEntry(
                logfile_id & 0x0FFF,
                record[sizes[version] :],
                timestamp if version > HeaderForm.MINIMAL else None,
                client_seq if version == HeaderForm.FULL else None,
            )
            decoded = decode_record(record)
            assert decoded == DecodedRecord(expected, len(record))
            assert hash(decoded.entry) == hash(expected)
            with pytest.raises(dataclasses.FrozenInstanceError):
                decoded.entry.data = b""

    def test_fragment_count_past_the_block_is_a_format_error(self):
        """A count field so large the index would start before the block
        does: the geometry check must fire before the index is read."""
        image = bytearray(BlockBuilder(BLOCK).encode())
        struct.pack_into(">H", image, 2, 0xFFFF)
        try:
            parse_block(_restamp(bytes(image)))
        except BlockFormatError as exc:
            assert "geometry" in str(exc)
        else:
            raise AssertionError("oversized fragment count accepted")


@st.composite
def entrymap_records(draw):
    # Degrees 2..64 give every bitmap width from 1 to 8 bytes; a record of
    # the benchmark of record carries 34 bitmaps.
    degree = draw(st.integers(2, 64))
    return EntrymapRecord(
        level=draw(st.integers(1, 5)),
        degree=degree,
        cover_start=draw(st.integers(0, (1 << 64) - 1)),
        bitmaps=draw(
            st.dictionaries(
                st.integers(0, 4095), st.integers(0, (1 << degree) - 1), max_size=40
            )
        ),
    )


@st.composite
def entrymap_payloads(draw):
    """Encoded-looking records no encoder makes: any level byte, repeated
    ids, bitmap bits past the degree, trailing bytes, a cut anywhere."""
    degree = draw(st.integers(0, 70))
    width = (degree + 7) // 8
    count = draw(st.integers(0, 40))
    payload = struct.pack(
        ">BHQH", draw(st.integers(0, 255)), degree, draw(st.integers(0, 1 << 20)), count
    )
    for logfile_id in draw(st.lists(st.integers(0, 12), min_size=count, max_size=count)):
        payload += struct.pack(">H", logfile_id)
        payload += draw(st.binary(min_size=width, max_size=width))
    payload += draw(st.binary(max_size=6))
    if draw(st.booleans()):
        payload = payload[: draw(st.integers(0, len(payload)))]
    return payload


def _reference_entrymap_decode(payload: bytes) -> EntrymapRecord:
    """The record format read one (id, bitmap) pair at a time."""
    if len(payload) < 13:
        raise ValueError("no header")
    level, degree, cover_start, count = struct.unpack_from(">BHQH", payload, 0)
    if level < 1 or degree < 2:
        raise ValueError("bad header")
    width = (degree + 7) // 8
    if len(payload) < 13 + count * (2 + width):
        raise ValueError("truncated")
    bitmaps = {}
    for pair in range(count):
        offset = 13 + pair * (2 + width)
        (logfile_id,) = struct.unpack_from(">H", payload, offset)
        bitmaps[logfile_id] = int.from_bytes(payload[offset + 2 : offset + 2 + width], "big")
    return EntrymapRecord(level, degree, cover_start, bitmaps)


def _entrymap_or_value_error(payload: bytes) -> EntrymapRecord | None:
    try:
        return EntrymapRecord.decode(payload)
    except ValueError as exc:
        assert not isinstance(exc, struct.error)
        return None


def _same_as_reference(payload: bytes) -> None:
    """``decode`` answers exactly what the per-pair reference answers —
    the same record, its bitmaps in the same order, or a ValueError."""
    record = _entrymap_or_value_error(payload)
    try:
        reference = _reference_entrymap_decode(payload)
    except ValueError:
        assert record is None
        return
    assert record == reference
    assert list(record.bitmaps.items()) == list(reference.bitmaps.items())


class TestEntrymapRecord:
    @settings(max_examples=300)
    @given(st.binary(max_size=80))
    def test_arbitrary_bytes(self, payload):
        _same_as_reference(payload)

    @settings(max_examples=300)
    @given(entrymap_payloads())
    def test_hostile_payloads_match_the_reference(self, payload):
        _same_as_reference(payload)

    @given(entrymap_records(), st.data())
    def test_truncated_records(self, record, data):
        encoded = record.encode()
        assert EntrymapRecord.decode(encoded) == record
        _same_as_reference(encoded)
        cut = data.draw(st.integers(0, len(encoded) - 1))
        assert _entrymap_or_value_error(encoded[:cut]) is None

    def test_every_width_round_trips(self):
        for degree in range(2, 65):
            bitmaps = {8 + pair: (1 << degree) - 1 >> pair % degree for pair in range(40)}
            record = EntrymapRecord(2, degree, 1 << 40, bitmaps)
            _same_as_reference(record.encode())
            assert EntrymapRecord.decode(record.encode()) == record

    def test_short_payload_is_a_value_error(self):
        for length in range(13):
            with pytest.raises(ValueError, match="no header"):
                EntrymapRecord.decode(b"\x01" * length)


def _catalog_or_catalog_error(payload: bytes) -> CatalogRecord | None:
    try:
        record = CatalogRecord.decode(payload)
    except CatalogError:
        return None
    assert isinstance(record.op, CatalogOp)
    return record


@st.composite
def catalog_records(draw):
    return CatalogRecord(
        op=draw(st.sampled_from(CatalogOp)),
        logfile_id=draw(st.integers(0, 4095)),
        parent_id=draw(st.integers(0, 4095)),
        permissions=draw(st.integers(0, 0o777)),
        created_ts=draw(st.integers(0, (1 << 64) - 1)),
        name=draw(st.text(max_size=12)),
        key=draw(st.text(max_size=12)),
        value=draw(st.binary(max_size=12)),
    )


class TestCatalogRecord:
    @settings(max_examples=300)
    @given(st.binary(max_size=80))
    def test_arbitrary_bytes(self, payload):
        _catalog_or_catalog_error(payload)

    @settings(max_examples=300)
    @given(catalog_records(), st.data())
    def test_bit_flipped_records(self, record, data):
        encoded = bytearray(record.encode())
        assert CatalogRecord.decode(bytes(encoded)) == record
        for _ in range(data.draw(st.integers(1, 3))):
            position = data.draw(st.integers(0, len(encoded) - 1))
            encoded[position] ^= 1 << data.draw(st.integers(0, 7))
        _catalog_or_catalog_error(bytes(encoded))

    def test_unknown_op_and_non_utf8_name_are_catalog_errors(self):
        encoded = CatalogRecord(op=CatalogOp.CREATE, logfile_id=9, name="ab").encode()
        with pytest.raises(CatalogError):
            CatalogRecord.decode(b"\x07" + encoded[1:])
        with pytest.raises(CatalogError):
            CatalogRecord.decode(encoded.replace(b"ab", b"\xff\xfe"))


def _header_or_sequence_error(data: bytes) -> VolumeHeader | None:
    try:
        return VolumeHeader.decode(data)
    except VolumeSequenceError:
        return None


class TestVolumeHeader:
    HEADER = VolumeHeader(
        block_size=512,
        degree_n=16,
        volume_index=3,
        capacity_blocks=4096,
        volume_id=b"v" * 16,
        sequence_id=b"s" * 16,
        predecessor_id=b"p" * 16,
        created_ts=1987,
    )

    @settings(max_examples=300)
    @given(st.binary(max_size=120))
    def test_arbitrary_bytes(self, data):
        _header_or_sequence_error(data)

    @settings(max_examples=300)
    @given(st.binary(max_size=120))
    def test_arbitrary_bytes_behind_a_valid_magic(self, data):
        _header_or_sequence_error(b"CLIOVOL1" + data)

    def test_truncated_header(self):
        image = self.HEADER.encode()
        assert VolumeHeader.decode(image) == self.HEADER
        for cut in range(80):
            assert _header_or_sequence_error(image[:cut]) is None, cut
        assert VolumeHeader.decode(image[:80]) == self.HEADER
