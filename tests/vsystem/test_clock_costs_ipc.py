"""Tests for the simulated clock, the Sun-3 cost model, and IPC simulation."""

import pytest

from repro.vsystem import SUN3, SimClock, SkewedClock
from repro.vsystem.ipc import AsyncPort, IpcChannel


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ms == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance_ms(1.5)
        clock.advance_ms(0.5)
        assert clock.now_ms == pytest.approx(2.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance_ms(-1)

    def test_timestamps_strictly_increase_without_time_passing(self):
        clock = SimClock()
        stamps = [clock.timestamp() for _ in range(100)]
        assert all(b > a for a, b in zip(stamps, stamps[1:]))

    def test_timestamps_track_time(self):
        clock = SimClock()
        t0 = clock.timestamp()
        clock.advance_ms(5)
        t1 = clock.timestamp()
        assert t1 - t0 >= 5000  # microseconds

    def test_start_offset(self):
        clock = SimClock(start_ms=100.0)
        assert clock.now_us == 100_000


class TestSkewedClock:
    def test_skew_applied(self):
        master = SimClock(start_ms=1.0)
        client = SkewedClock(master, skew_us=250)
        assert client.now_us == 1250

    def test_skewed_timestamps_strictly_increase(self):
        master = SimClock()
        client = SkewedClock(master, skew_us=-50)
        stamps = [client.timestamp() for _ in range(10)]
        assert all(b > a for a, b in zip(stamps, stamps[1:]))


class TestCostModel:
    def test_null_write_matches_paper(self):
        """Section 3.2: a null (header-only, timestamped) write took 2.0 ms."""
        assert SUN3.write_ms(0, timestamped=True) == pytest.approx(2.0, abs=0.05)

    def test_50_byte_write_matches_paper(self):
        """Section 3.2: a 50-byte write took 2.9 ms."""
        assert SUN3.write_ms(50, timestamped=True) == pytest.approx(2.9, abs=0.05)

    def test_zero_distance_read_matches_table1(self):
        """Table 1, distance 0: one cached block, 1.46 ms."""
        assert SUN3.read_ms(cached_blocks=1) == pytest.approx(1.46, abs=0.05)

    def test_ipc_range_matches_paper(self):
        assert 0.5 <= SUN3.ipc_ms(remote=False) <= 1.0
        assert 2.5 <= SUN3.ipc_ms(remote=True) <= 3.0

    def test_untimestamped_write_saves_timestamp_cost(self):
        diff = SUN3.write_ms(0, timestamped=True) - SUN3.write_ms(0, timestamped=False)
        assert diff == pytest.approx(SUN3.timestamp_ms)


class TestIpc:
    def test_sync_call_charges_round_trip(self):
        clock = SimClock()
        channel = IpcChannel(clock)
        result = channel.call(lambda: 42)
        assert result == 42
        assert clock.now_ms == pytest.approx(SUN3.ipc_local_ms)
        assert channel.calls == 1

    def test_remote_channel_charges_more(self):
        clock = SimClock()
        IpcChannel(clock, remote=True).call(lambda: None)
        assert clock.now_ms == pytest.approx(SUN3.ipc_network_ms)

    def test_async_port_defers_execution(self):
        clock = SimClock()
        port = AsyncPort(clock)
        executed = []
        port.send(lambda: executed.append(1))
        assert executed == []
        assert len(port) == 1
        port.drain()
        assert executed == [1]
        assert len(port) == 0

    def test_async_drain_preserves_order(self):
        port = AsyncPort(SimClock())
        out = []
        for i in range(5):
            port.send(lambda i=i: out.append(i))
        port.drain()
        assert out == [0, 1, 2, 3, 4]

    def test_async_crash_drops_queue(self):
        port = AsyncPort(SimClock())
        port.send(lambda: None)
        port.send(lambda: None)
        assert port.drop_all() == 2
        assert port.drain() == []

    def test_async_send_is_cheap(self):
        clock = SimClock()
        port = AsyncPort(clock)
        port.send(lambda: None)
        assert clock.now_ms < SUN3.ipc_local_ms
