"""Tests for the batching asynchronous log client."""

import pytest

from repro.core import LogService
from repro.core.asyncclient import AsyncLogClient, SequenceWrapError
from repro.vsystem import SUN3, SkewedClock
from repro.vsystem.ipc import AsyncPort


def make_client(batch_size=4, skew_us=300, **service_kwargs):
    defaults = dict(block_size=256, degree_n=4, volume_capacity_blocks=1024)
    defaults.update(service_kwargs)
    service = LogService.create(**defaults)
    log = service.create_log_file("/async")
    port = AsyncPort(service.clock)
    client_clock = SkewedClock(service.clock, skew_us=skew_us)
    client = AsyncLogClient(log, port, client_clock, batch_size=batch_size)
    return service, log, port, client


class TestSubmitFlush:
    def test_submit_returns_identity_without_ipc(self):
        service, _, port, client = make_client(batch_size=100)
        before_ms = service.now_ms
        client_id = client.submit(b"queued")
        assert client_id.sequence_number == 1
        # Only the cheap local enqueue time passed, no server round trip.
        assert service.now_ms - before_ms < SUN3.ipc_local_ms

    def test_batch_flushes_at_threshold(self):
        _, _, port, client = make_client(batch_size=3)
        client.submit(b"a")
        client.submit(b"b")
        assert len(port) == 0
        client.submit(b"c")  # third entry triggers the flush
        assert len(port) == 1

    def test_entries_visible_after_drain(self):
        _, log, port, client = make_client(batch_size=2)
        client.submit(b"one")
        client.submit(b"two")
        port.drain()
        assert [e.data for e in log.entries()] == [b"one", b"two"]

    def test_order_preserved_across_batches(self):
        _, log, port, client = make_client(batch_size=2)
        payloads = [f"{i}".encode() for i in range(7)]
        for payload in payloads:
            client.submit(payload)
        client.flush()
        port.drain()
        assert [e.data for e in log.entries()] == payloads

    def test_flush_empty_batch_is_noop(self):
        _, _, port, client = make_client()
        assert client.flush() == 0
        assert len(port) == 0

    def test_sequence_numbers_monotone(self):
        _, _, _, client = make_client(batch_size=100)
        ids = [client.submit(b"x") for _ in range(10)]
        seqs = [identity.sequence_number for identity in ids]
        assert seqs == list(range(1, 11))

    def test_sequence_wrap_refused(self):
        _, _, _, client = make_client(batch_size=10**9)
        client._next_seq = (1 << 32) - 1
        client.submit(b"last one")
        with pytest.raises(SequenceWrapError):
            client.submit(b"wraps")


class TestConfirmation:
    def test_drained_entries_confirm(self):
        _, _, port, client = make_client(batch_size=2)
        id_a = client.submit(b"a")
        id_b = client.submit(b"b")
        port.drain()
        assert client.confirm(id_a)
        assert client.confirm(id_b)

    def test_lost_batch_does_not_confirm(self):
        """Crash between flush and drain: the identities resolve to
        'never made it'."""
        _, _, port, client = make_client(batch_size=2)
        id_a = client.submit(b"a")
        id_b = client.submit(b"b")
        port.drop_all()  # the crash
        assert not client.confirm(id_a)
        assert not client.confirm(id_b)

    def test_partial_loss_detected_exactly(self):
        _, _, port, client = make_client(batch_size=2)
        first = [client.submit(b"1"), client.submit(b"2")]
        port.drain()  # first batch lands
        second = [client.submit(b"3"), client.submit(b"4")]
        port.drop_all()  # second batch lost
        results = client.confirm_all(first + second)
        assert all(results[i] for i in first)
        assert not any(results[i] for i in second)

    def test_confirm_with_skewed_client_clock(self):
        """Identities resolve despite the client clock running ahead of
        the server's (within the skew bound)."""
        _, _, port, client = make_client(batch_size=1, skew_us=800)
        client_id = client.submit(b"skewed")
        port.drain()
        assert client.confirm(client_id)

    def test_multiple_clients_use_distinct_sublogs(self):
        """Client sequence numbers are only unique per client, so the
        supported pattern for concurrent asynchronous writers is one
        sublog per client — identities then resolve unambiguously while
        the parent log still aggregates everything."""
        from repro.core.asyncclient import AsyncLogClient
        from repro.vsystem import SkewedClock
        from repro.vsystem.ipc import AsyncPort

        service = LogService.create(
            block_size=256, degree_n=4, volume_capacity_blocks=1024
        )
        parent = service.create_log_file("/jobs")
        clients = {}
        for name, skew in (("alpha", 100), ("beta", -100)):
            sublog = parent.create_sublog(name)
            clients[name] = AsyncLogClient(
                sublog,
                AsyncPort(service.clock),
                SkewedClock(service.clock, skew_us=skew),
                batch_size=1,
            )
        # Both clients use the SAME sequence numbers (1, 2, ...).
        id_a = clients["alpha"].submit(b"from alpha")
        id_b = clients["beta"].submit(b"from beta")
        clients["alpha"].port.drain()
        clients["beta"].port.drain()
        assert id_a.sequence_number == id_b.sequence_number == 1
        found_a = clients["alpha"].log_file.find(id_a)
        found_b = clients["beta"].log_file.find(id_b)
        assert found_a.data == b"from alpha"
        assert found_b.data == b"from beta"
        # The parent aggregates both clients' entries.
        assert len(list(parent.entries())) == 2

    def test_confirm_survives_server_crash_and_mount(self):
        service, log, port, client = make_client(batch_size=1)
        confirmed_id = client.submit(b"durable")
        port.drain()
        lost_id = client.submit(b"volatile")  # flushed but never drained
        remains = service.crash()
        mounted, _ = LogService.mount(remains.devices, remains.nvram)
        log2 = mounted.open_log_file("/async")
        assert log2.find(confirmed_id, max_skew_us=10**6) is not None
        assert log2.find(lost_id, max_skew_us=10**6) is None
