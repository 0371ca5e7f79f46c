"""Server-side group commit (``append_many``): placement fidelity, cost
amortization, durability semantics, and failure handling.

The contract under test: a batch lands exactly where sequential ``append``
calls would put it, but pays the fixed per-operation costs — client IPC,
write-operation overhead, timestamp acquisition, tail re-encode, NVRAM
force — once per batch instead of once per entry.
"""

import dataclasses

import pytest

from repro.core import LogService
from repro.core.service import ReadOnlyService


def make_service(**kwargs):
    defaults = dict(
        block_size=256,
        degree_n=4,
        volume_capacity_blocks=1024,
        cache_capacity_blocks=512,
    )
    defaults.update(kwargs)
    return LogService.create(**defaults)


def payloads(n, size=24):
    return [bytes([i % 256]) * size for i in range(n)]


class TestBatchSemantics:
    def test_results_match_entry_count_and_order(self):
        service = make_service()
        log = service.create_log_file("/batch")
        batch = payloads(10)
        results = log.append_many(batch)
        assert len(results) == 10
        read_back = [entry.data for entry in log.entries()]
        assert read_back == batch

    def test_timestamps_unique_and_increasing(self):
        service = make_service()
        log = service.create_log_file("/batch")
        results = log.append_many(payloads(20))
        stamps = [r.timestamp for r in results]
        assert all(ts is not None for ts in stamps)
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)

    def test_empty_batch_is_noop(self):
        service = make_service()
        log = service.create_log_file("/batch")
        clock_before = service.clock.now_ms
        assert log.append_many([]) == []
        assert service.clock.now_ms == clock_before

    def test_client_seqs_attached_and_resolvable(self):
        service = make_service()
        log = service.create_log_file("/batch")
        results = log.append_many(
            payloads(3), client_seqs=[11, 12, 13], timestamped=False
        )
        # client_seq forces a timestamp (the identity needs one).
        assert all(r.timestamp is not None for r in results)

    def test_client_seqs_length_mismatch_rejected(self):
        service = make_service()
        log = service.create_log_file("/batch")
        with pytest.raises(ValueError):
            log.append_many(payloads(3), client_seqs=[1, 2])

    def test_untimestamped_batch(self):
        service = make_service()
        log = service.create_log_file("/batch")
        results = log.append_many(payloads(4), timestamped=False)
        # Only block-first entries get the mandatory header timestamp.
        assert any(r.timestamp is None for r in results)

    def test_placement_identical_to_sequential_appends(self):
        """The batch is a pure cost optimization: blocks, fragmentation,
        and entry locations are byte-identical to N single appends."""
        batch = payloads(40, size=100)  # forces fragmentation across blocks
        single = make_service()
        log_s = single.create_log_file("/x")
        locations_single = [log_s.append(p).location for p in batch]
        batched = make_service()
        log_b = batched.create_log_file("/x")
        locations_batched = [r.location for r in log_b.append_many(batch)]
        assert locations_batched == locations_single
        assert [e.data for e in log_b.entries()] == [
            e.data for e in log_s.entries()
        ]


class TestCostAmortization:
    def test_batch_charges_fixed_costs_exactly_once(self):
        """Within one open block, a batch's clock delta decomposes into one
        IPC + one write overhead + one timestamp + per-byte and per-entry
        variable work — asserted to the microsecond."""
        service = make_service()
        log = service.create_log_file("/x")
        log.append(b"open-the-block")  # entrymap entries for block 0 are paid
        costs = service.store.costs
        batch = payloads(5, size=8)
        before_ms = service.clock.now_ms
        log.append_many(batch)
        delta = service.clock.now_ms - before_ms
        expected = (
            costs.ipc_local_ms
            + costs.write_fixed_ms
            + costs.timestamp_ms
            + costs.copy_per_byte_ms * sum(len(p) for p in batch)
            + costs.entrymap_per_entry_ms * len(batch)
        )
        assert delta == pytest.approx(expected)

    def test_batch_saves_per_entry_fixed_costs_vs_singles(self):
        """Identical workload, two services: the batched one is cheaper by
        exactly (N-1) x (IPC + write overhead + timestamp)."""
        batch = payloads(30, size=40)
        single = make_service()
        log_s = single.create_log_file("/x")
        s0 = single.clock.now_ms
        for p in batch:
            log_s.append(p)
        singles_ms = single.clock.now_ms - s0

        batched = make_service()
        log_b = batched.create_log_file("/x")
        b0 = batched.clock.now_ms
        log_b.append_many(batch)
        batched_ms = batched.clock.now_ms - b0

        costs = single.store.costs
        saved = (len(batch) - 1) * (
            costs.ipc_local_ms + costs.write_fixed_ms + costs.timestamp_ms
        )
        assert singles_ms - batched_ms == pytest.approx(saved)

    def test_one_tail_encode_per_batch(self):
        service = make_service()
        log = service.create_log_file("/x")
        writer = service.writer
        before = writer.tail_refreshes
        log.append_many(payloads(12, size=8))  # fits in the open tail block
        assert writer.tail_refreshes - before == 1
        before = writer.tail_refreshes
        for p in payloads(3, size=8):
            log.append(p)
        assert writer.tail_refreshes - before == 3

    def test_forced_batch_stores_nvram_once(self):
        service = make_service()
        log = service.create_log_file("/x")
        nvram = service.store.nvram
        writes_before = nvram.writes
        log.append_many(payloads(8, size=8), force=True)
        assert nvram.writes - writes_before == 1


class TestDurability:
    def test_forced_batch_survives_crash_completely(self):
        service = make_service()
        log = service.create_log_file("/x")
        batch = payloads(20, size=50)
        log.append_many(batch, force=True)
        remains = service.crash()
        recovered, report = LogService.mount(remains.devices, remains.nvram)
        read_back = [
            e.data for e in recovered.read_entries("/x")
        ]
        assert read_back == batch

    def test_unforced_crash_recovers_contiguous_prefix(self):
        """Crash right after an unforced batch: whatever survives must be a
        hole-free prefix of the batch (prefix durability, Section 2.3.1)."""
        service = make_service(nvram_tail=False)
        log = service.create_log_file("/x")
        batch = payloads(40, size=50)  # spans several 256-byte blocks
        log.append_many(batch)
        remains = service.crash()
        recovered, report = LogService.mount(
            remains.devices, remains.nvram, observability=True
        )
        read_back = [e.data for e in recovered.read_entries("/x")]
        assert 0 < len(read_back) < len(batch)  # tail block was lost
        assert read_back == batch[: len(read_back)]
        # The recovery's flight recorder captured the mount timeline.
        kinds = {event.kind for event in report.flight_recorder}
        assert "recovery.find_tail" in kinds
        assert "recovery.complete" in kinds

    def test_failure_mid_batch_leaves_consistent_prefix(self):
        """A batch that dies mid-flight (volume full, no successor medium)
        must leave the entries already packed readable — and recovery after
        a crash yields a hole-free prefix."""

        from repro.worm import WormDevice

        made = []

        def one_medium_only():
            if made:
                raise RuntimeError("jukebox empty")
            made.append(True)
            return WormDevice(block_size=256, capacity_blocks=16)

        service = make_service(
            volume_capacity_blocks=16, device_factory=one_medium_only
        )
        log = service.create_log_file("/x")
        batch = payloads(64, size=120)  # far more than 16 blocks worth
        with pytest.raises(RuntimeError, match="jukebox empty"):
            log.append_many(batch)
        # The in-service view already exposes the prefix, no holes.
        live = [e.data for e in log.entries()]
        assert 0 < len(live) < len(batch)
        assert live == batch[: len(live)]
        # And the prefix survives a crash + remount.
        remains = service.crash()
        recovered, _report = LogService.mount(remains.devices, remains.nvram)
        read_back = [e.data for e in recovered.read_entries("/x")]
        assert read_back == batch[: len(read_back)]
        assert len(read_back) > 0


class TestPayloadRejection:
    """A payload that is not bytes-like is refused before any charge: the
    clock, the space accounting, the tail and the log stay as they were,
    and the ``TypeError`` names the argument."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda log: log.append("x"), r"^data must be bytes.* not str$"),
            (lambda log: log.append(7), r"^data must be bytes.* not int$"),
            (
                lambda log: log.append_many([b"ok", "bad"]),
                r"^batch\[1\] must be bytes.* not str$",
            ),
            (
                lambda log: log.append_many([b"ok", b"ok", None], force=True),
                r"^batch\[2\] must be bytes.* not NoneType$",
            ),
        ],
        ids=["append-str", "append-int", "batch-str", "forced-batch-none"],
    )
    def test_rejected_call_changes_nothing(self, call, message):
        service = make_service()
        log = service.create_log_file("/x")
        log.append(b"before")
        now_us = service.clock.now_us
        space = dataclasses.replace(service.space_stats)
        tail = service.writer.tail_image()
        with pytest.raises(TypeError, match=message):
            call(log)
        assert service.clock.now_us == now_us
        assert service.space_stats == space
        assert service.writer.tail_image() == tail
        assert [e.data for e in log.entries()] == [b"before"]

    def test_bytes_like_payloads_accepted(self):
        service = make_service()
        log = service.create_log_file("/x")
        log.append(bytearray(b"ab"))
        log.append_many([memoryview(b"cd"), bytearray(b"ef"), b"gh"])
        assert [e.data for e in log.entries()] == [b"ab", b"cd", b"ef", b"gh"]

    def test_wide_memoryview_headers_counted_by_form(self):
        """A memoryview of 4-byte items: the header size comes from the
        header form, never from the payload's item count."""
        from array import array

        wide, plain = make_service(), make_service()
        payload = array("I", range(50))
        wide.create_log_file("/x").append_many([memoryview(payload)] * 3)
        plain.create_log_file("/x").append_many([payload.tobytes()] * 3)
        assert wide.space_stats.entry_headers == plain.space_stats.entry_headers
        assert wide.space_stats.size_index == plain.space_stats.size_index

    def test_wide_memoryview_counted_by_bytes(self):
        """A memoryview of 4-byte items is charged, counted and stored as
        the bytes it holds, exactly like those bytes appended as ``bytes``."""
        from array import array

        wide, plain = make_service(), make_service()
        payload = array("I", [1, 2])
        wide_log = wide.create_log_file("/x")
        plain_log = plain.create_log_file("/x")
        wide_log.append(memoryview(payload))
        wide_log.append_many([memoryview(payload)] * 2)
        plain_log.append(payload.tobytes())
        plain_log.append_many([payload.tobytes()] * 2)
        assert wide.space_stats.client_data == 3 * 8
        assert wide.space_stats == plain.space_stats
        assert wide.clock.now_us == plain.clock.now_us
        assert [e.data for e in wide_log.entries()] == [payload.tobytes()] * 3


class TestClientSeqRejection:
    """A client sequence number that does not fit its 32-bit header field,
    or a ``client_seqs`` of the wrong length, is refused before any charge:
    the clock, the space accounting, the tail and the log stay as they
    were, and the ``ValueError`` names the argument."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda log: log.append(b"x", client_seq=1 << 32),
                r"^client_seq must fit in 32 bits",
            ),
            (
                lambda log: log.append(b"x", client_seq=-1, force=True),
                r"^client_seq must fit in 32 bits",
            ),
            (
                lambda log: log.append_many([b"a", b"b"], client_seqs=[1, 1 << 32]),
                r"^client_seqs\[1\] must fit in 32 bits",
            ),
            (
                lambda log: log.append_many([b"a", b"b"], client_seqs=[1]),
                r"^client_seqs has 1 items for 2 payloads$",
            ),
        ],
        ids=["append-too-wide", "forced-append-negative", "batch-item", "batch-length"],
    )
    def test_rejected_call_changes_nothing(self, call, message):
        service = make_service()
        log = service.create_log_file("/x")
        log.append(b"before")
        now_us = service.clock.now_us
        space = dataclasses.replace(service.space_stats)
        tail = service.writer.tail_image()
        with pytest.raises(ValueError, match=message):
            call(log)
        assert service.clock.now_us == now_us
        assert service.space_stats == space
        assert service.writer.tail_image() == tail
        assert [e.data for e in log.entries()] == [b"before"]


class TestAccessControl:
    def test_append_many_checks_permissions(self):
        service = make_service(enforce_permissions=True)
        log = service.create_log_file("/sealed", permissions=0o444)
        with pytest.raises(PermissionError):
            log.append_many(payloads(2))

    def test_read_only_mount_rejects_batches(self):
        service = make_service()
        service.create_log_file("/x")
        service.writer.flush()
        remains = service.crash()
        mounted, _report = LogService.mount(
            remains.devices, remains.nvram, read_only=True
        )
        with pytest.raises(ReadOnlyService):
            mounted.append_many("/x", payloads(2))

    def test_crashed_service_rejects_batches(self):
        from repro.core.service import ServiceCrashed

        service = make_service()
        log = service.create_log_file("/x")
        service.crash()
        with pytest.raises(ServiceCrashed):
            log.append_many(payloads(2))


class TestAsyncClientServerBatching:
    def test_server_batching_delivers_one_group_commit(self):
        from repro.core.asyncclient import AsyncLogClient
        from repro.vsystem.clock import SkewedClock
        from repro.vsystem.ipc import AsyncPort

        service = make_service()
        log = service.create_log_file("/async")
        port = AsyncPort(service.clock)
        client = AsyncLogClient(
            log,
            port,
            SkewedClock(service.clock, skew_us=1000),
            batch_size=4,
            server_batching=True,
        )
        ids = [client.submit(b"entry-%d" % i) for i in range(4)]
        port.drain()
        assert [e.data for e in log.entries()] == [
            b"entry-%d" % i for i in range(4)
        ]
        assert all(client.confirm(cid) for cid in ids)
