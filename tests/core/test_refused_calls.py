"""A refused call is a no-op.

Each row is one public call with an argument the service must refuse: the
error names the argument, and nothing the service keeps moves -- no charge
on the clock, no space, cache, read or device counter, no byte in the tail
image, no catalog change (ids included) and no journal event.
"""

import dataclasses

import pytest

from repro.core import ClientEntryId, LogService
from repro.core.catalog import CatalogError

REFUSED = [
    # (id, call(service, log, location), error type, named argument)
    ("set-permissions-negative",
     lambda s, log, at: s.set_permissions(log, -1), ValueError, "permissions"),
    ("set-permissions-too-wide",
     lambda s, log, at: s.set_permissions(log, 0o10000), ValueError, "permissions"),
    ("create-permissions-negative",
     lambda s, log, at: s.create_log_file("/new", permissions=-1),
     ValueError, "permissions"),
    ("create-permissions-too-wide",
     lambda s, log, at: s.create_log_file("/new", permissions=0o10000),
     ValueError, "permissions"),
    ("sublog-permissions-too-wide",
     lambda s, log, at: log.create_sublog("kid", permissions=0o10000),
     ValueError, "permissions"),
    ("offline-past-end",
     lambda s, log, at: s.take_volume_offline(99), ValueError, "volume_index"),
    ("offline-negative",
     lambda s, log, at: s.take_volume_offline(-len(s.devices)),
     ValueError, "volume_index"),
    ("online-past-end",
     lambda s, log, at: s.bring_volume_online(len(s.devices)),
     ValueError, "volume_index"),
    ("online-negative",
     lambda s, log, at: s.bring_volume_online(-1), ValueError, "volume_index"),
    ("read-since-and-before",
     lambda s, log, at: s.read_entries(log, since=1, before=2), ValueError, "since"),
    ("read-since-and-after",
     lambda s, log, at: s.read_entries(log, since=5, after=at), ValueError, "after"),
    ("read-after-reverse",
     lambda s, log, at: s.read_entries(log, after=at, reverse=True),
     ValueError, "after"),
    ("read-after-not-a-location",
     lambda s, log, at: s.read_entries(log, after="junk"), TypeError, "after"),
    ("read-since-not-an-int",
     lambda s, log, at: s.read_entries(log, since="x"), TypeError, "since"),
    ("read-before-not-an-int",
     lambda s, log, at: s.read_entries(log, before="x", reverse=True),
     TypeError, "before"),
    ("read-entry-not-an-id",
     lambda s, log, at: log.read("x"), TypeError, "entry_id"),
    ("find-not-a-client-id",
     lambda s, log, at: log.find("x"), TypeError, "client_id"),
    ("tail-count-not-an-int",
     lambda s, log, at: log.tail("x"), TypeError, "count"),
    ("create-existing-name",
     lambda s, log, at: s.create_log_file("/app"), CatalogError, "name"),
    ("set-attribute-not-bytes",
     lambda s, log, at: s.set_attribute(log, "k", "str"), TypeError, "value"),
    ("set-attribute-key-not-a-str",
     lambda s, log, at: s.set_attribute(log, 5, b"v"), TypeError, "key"),
    ("append-client-seq-float",
     lambda s, log, at: s.append(log, b"x", client_seq=2.0), TypeError, "client_seq"),
    ("append-client-seq-str",
     lambda s, log, at: s.append(log, b"x", client_seq="7"), TypeError, "client_seq"),
    ("append-many-client-seq-float",
     lambda s, log, at: s.append_many(
         log, [b"one", b"two", b"three"], client_seqs=[1, 2, 3.5]),
     TypeError, r"client_seqs\[2\]"),
    ("readahead-not-an-int",
     lambda s, log, at: s.configure_readahead("x"), TypeError, "blocks"),
    # Already refused; the rows beside them hold create and mount to the
    # same check, made before a volume is created or mounted (here: the
    # live service's own devices).
    ("readahead-float",
     lambda s, log, at: s.configure_readahead(2.5), TypeError, "blocks"),
    ("readahead-negative",
     lambda s, log, at: s.configure_readahead(-2), ValueError, "blocks"),
    ("create-readahead-float",
     lambda s, log, at: LogService.create(readahead_blocks=2.5),
     TypeError, "readahead_blocks"),
    ("create-readahead-negative",
     lambda s, log, at: LogService.create(readahead_blocks=-2),
     ValueError, "readahead_blocks"),
    ("mount-readahead-float",
     lambda s, log, at: LogService.mount(s.devices, readahead_blocks=2.5),
     TypeError, "readahead_blocks"),
    ("mount-readahead-negative",
     lambda s, log, at: LogService.mount(s.devices, readahead_blocks=-2),
     ValueError, "readahead_blocks"),
    ("find-negative-skew",
     lambda s, log, at: s.find_client_entry(
         log, ClientEntryId(7, s.clock.now_us), max_skew_us=-1),
     ValueError, "max_skew_us"),
]


def make_service():
    """Several volumes (one sealed predecessor is offline), a sublog, an
    unforced tail in NVRAM and a journal."""
    service = LogService.create(block_size=256, degree_n=4, volume_capacity_blocks=8)
    service.enable_observability()
    log = service.create_log_file("/app")
    log.create_sublog("child").append(b"child entry", force=True)
    for i in range(60):
        result = log.append(b"%03d" % i * 30, force=i % 4 == 0, client_seq=i)
    log.append(b"unforced tail")
    service.take_volume_offline(1)
    assert len(service.devices) >= 4
    return service, log, result.location


def state(service):
    catalog = service.store.catalog
    return (
        service.clock.now_us,
        dataclasses.replace(service.space_stats),
        dataclasses.replace(service.cache_stats),
        dataclasses.replace(service.read_stats),
        [dataclasses.replace(device.stats) for device in service.devices],
        [volume.is_online for volume in service.store.sequence.volumes],
        service.writer.tail_image(),
        catalog.next_id,
        [repr(catalog.info(logfile_id)) for logfile_id in catalog.all_ids()],
        service.journal.events(),
    )


@pytest.mark.parametrize(
    "call, error, argument",
    [row[1:] for row in REFUSED],
    ids=[row[0] for row in REFUSED],
)
def test_refused_call_changes_nothing(call, error, argument):
    service, log, location = make_service()
    before = state(service)
    with pytest.raises(error, match=argument):
        call(service, log, location)
    assert state(service) == before


def test_refused_batch_lands_no_entry():
    """A batch refused for its third client sequence number lands none of
    the two before it."""
    service, log, _ = make_service()
    entries = list(service.read_entries(log))
    landed = service.space_stats.client_entries
    with pytest.raises(TypeError, match=r"client_seqs\[2\]"):
        service.append_many(log, [b"one", b"two", b"three"], client_seqs=[1, 2, 3.5])
    assert list(service.read_entries(log)) == entries
    assert service.space_stats.client_entries == landed


def test_boundary_arguments_accepted():
    """The edges of each refused range are valid calls."""
    service, log, location = make_service()
    service.set_permissions(log, 0o7777)
    assert service.store.catalog.info(log.logfile_id).permissions == 0o7777
    zero = service.create_log_file("/zero", permissions=0)
    assert service.store.catalog.info(zero.logfile_id).permissions == 0
    service.bring_volume_online(1)
    service.take_volume_offline(0)
    assert list(service.read_entries(log, after=location)) != []
    exact = ClientEntryId(59, service.clock.now_us)
    assert service.find_client_entry(log, exact, max_skew_us=0) is None
    everything = list(service.read_entries(log))
    assert list(service.read_entries(log, since=-5)) == everything
    assert log.tail(0) == []
