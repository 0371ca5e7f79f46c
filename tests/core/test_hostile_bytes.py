"""Hostile bytes against the read path's two decoders.

For any input, ``parse_block`` either returns a block or raises its own
``BlockFormatError``, and ``decode_record`` / ``peek_logfile_id`` either
succeed or raise ``CorruptRecord`` — never ``struct.error``, ``IndexError``
or a ``ValueError`` of another kind.  The header peek the decoded tier
filters with must accept and reject exactly what the full decode does.
"""

import struct
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import (
    MIN_BLOCK_SIZE,
    BlockBuilder,
    BlockFormatError,
    ParsedBlock,
    parse_block,
)
from repro.core.entry import (
    CorruptRecord,
    HeaderForm,
    LogEntry,
    decode_record,
    peek_logfile_id,
)

BLOCK = 128


def _restamp(image: bytes) -> bytes:
    """The image with its CRC trailer made valid again."""
    return image[:-4] + struct.pack(">I", zlib.crc32(image[:-4]))


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
        assert parsed.entry_start_slots() == list(
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
