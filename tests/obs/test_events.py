"""The structured event journal: ring semantics, emission points,
log-file persistence, and the crash flight recorder."""

import pytest

from repro.core import LogService
from repro.obs.events import (
    NULL_JOURNAL,
    Event,
    EventJournal,
    EventLog,
    NullJournal,
    format_event,
)
from repro.vsystem.clock import SimClock


def make_service(**kwargs) -> LogService:
    kwargs.setdefault("block_size", 512)
    kwargs.setdefault("degree_n", 4)
    kwargs.setdefault("volume_capacity_blocks", 2048)
    kwargs.setdefault("observability", True)
    return LogService.create(**kwargs)


class TestEvent:
    def test_encode_decode_round_trip(self):
        event = Event(
            seq=7, ts_us=1234, kind="device.write", attrs=(("block", 3), ("volume", 0))
        )
        assert Event.decode(event.encode()) == event

    def test_encoding_is_deterministic(self):
        a = Event(seq=0, ts_us=0, kind="k", attrs=(("a", 1), ("b", 2)))
        b = Event(seq=0, ts_us=0, kind="k", attrs=(("a", 1), ("b", 2)))
        assert a.encode() == b.encode()

    def test_attr_lookup(self):
        event = Event(seq=0, ts_us=0, kind="k", attrs=(("volume", 2),))
        assert event.attr("volume") == 2
        assert event.attr("missing", -1) == -1

    def test_format_event_shows_kind_and_attrs(self):
        event = Event(seq=3, ts_us=500, kind="cache.evict", attrs=(("block", 9),))
        text = format_event(event)
        assert "cache.evict" in text
        assert "block=9" in text
        assert "500us" in text


class TestEventJournal:
    def test_emit_stamps_sim_time_and_sequences(self):
        clock = SimClock()
        journal = EventJournal(clock)
        journal.emit("first")
        clock.advance_ms(2.5)
        event = journal.emit("second", volume=1)
        assert event.seq == 1
        assert event.ts_us == 2500
        assert [e.kind for e in journal.events()] == ["first", "second"]

    def test_ring_is_bounded_and_counts_drops(self):
        journal = EventJournal(SimClock(), capacity=4)
        for i in range(10):
            journal.emit("tick", i=i)
        assert len(journal.events()) == 4
        assert journal.dropped == 6
        assert [e.attr("i") for e in journal.events()] == [6, 7, 8, 9]
        # seq keeps counting past the ring
        assert journal.next_seq == 10

    def test_suppress_silences_emission(self):
        journal = EventJournal(SimClock())
        with journal.suppress():
            assert journal.emit("hidden") is None
            with journal.suppress():  # nests
                journal.emit("deeper")
            journal.emit("still hidden")
        journal.emit("visible")
        assert [e.kind for e in journal.events()] == ["visible"]

    def test_suppress_restores_emission_after_exception(self):
        journal = EventJournal(SimClock())
        with pytest.raises(RuntimeError):
            with journal.suppress():
                raise RuntimeError("boom")
        journal.emit("after")
        assert [e.kind for e in journal.events()] == ["after"]

    def test_nested_suppress_with_exception_keeps_depth_consistent(self):
        journal = EventJournal(SimClock())
        with journal.suppress():
            with pytest.raises(ValueError):
                with journal.suppress():
                    raise ValueError("inner")
            # Inner exit must not unwind the outer suppression.
            assert journal.emit("still hidden") is None
        journal.emit("visible")
        assert [e.kind for e in journal.events()] == ["visible"]

    def test_by_kind(self):
        journal = EventJournal(SimClock())
        journal.emit("a")
        journal.emit("b")
        journal.emit("a")
        assert len(journal.by_kind("a")) == 2

    def test_null_journal_is_inert(self):
        assert NULL_JOURNAL.emit("anything", x=1) is None
        assert NULL_JOURNAL.events() == []
        assert NULL_JOURNAL.next_seq == 0
        assert not NullJournal.enabled
        with NULL_JOURNAL.suppress():
            pass


class TestServiceEmission:
    def test_appends_emit_device_writes_and_forces(self):
        service = make_service()
        log = service.create_log_file("/app")
        for i in range(20):
            log.append(b"x" * 100)
        service.sync()
        kinds = {e.kind for e in service.journal.events()}
        assert "device.write" in kinds
        assert "writer.force" in kinds

    def test_cache_evictions_are_journalled(self):
        service = make_service(cache_capacity_blocks=2)
        log = service.create_log_file("/app")
        for i in range(30):
            log.append(b"y" * 200)
        service.sync()
        for _ in service.read_entries("/app"):
            pass
        assert service.journal.by_kind("cache.evict")

    def test_disabled_by_default(self):
        service = LogService.create(block_size=512, degree_n=4)
        log = service.create_log_file("/app")
        log.append(b"x", force=True)
        assert not service.journal.enabled
        assert service.journal.events() == []


class TestFlightRecorder:
    def test_mount_attaches_recovery_events(self):
        service = make_service()
        log = service.create_log_file("/app")
        for i in range(50):
            log.append(b"z" * 64)
        service.sync()
        remains = service.crash()
        _mounted, report = LogService.mount(
            remains.devices, remains.nvram, observability=True
        )
        kinds = [e.kind for e in report.flight_recorder]
        assert kinds[0] == "recovery.begin"
        assert kinds[-1] == "recovery.complete"
        assert "recovery.find_tail" in kinds
        assert "recovery.rebuild_entrymap" in kinds
        assert "recovery.replay_catalog" in kinds

    def test_flight_recorder_empty_without_observability(self):
        service = make_service()
        service.create_log_file("/app").append(b"x", force=True)
        remains = service.crash()
        _mounted, report = LogService.mount(remains.devices, remains.nvram)
        assert report.flight_recorder == []


class TestEventLog:
    def test_persist_and_read_back(self):
        service = make_service()
        log = service.create_log_file("/app")
        for i in range(10):
            log.append(b"x" * 50)
        service.sync()
        event_log = EventLog(service)
        persisted = event_log.persist()
        assert persisted > 0
        read = event_log.read_back()
        assert len(read) == persisted
        assert read[0].kind == service.journal.events()[0].kind

    def test_persist_is_incremental(self):
        service = make_service()
        log = service.create_log_file("/app")
        log.append(b"a" * 400, force=True)
        event_log = EventLog(service)
        first = event_log.persist()
        assert first > 0
        # Nothing new (persistence itself is suppressed): second pass is 0.
        assert event_log.persist() == 0
        log.append(b"b" * 400, force=True)
        assert event_log.persist() > 0

    def test_persisted_events_survive_crash(self):
        service = make_service()
        log = service.create_log_file("/app")
        for i in range(5):
            log.append(b"x" * 30, force=True)
        event_log = EventLog(service)
        persisted = event_log.persist()
        remains = service.crash()
        mounted, _ = LogService.mount(remains.devices, remains.nvram)
        replayed = EventLog(mounted).read_back()
        assert len(replayed) == persisted
        assert all(isinstance(e, Event) for e in replayed)
