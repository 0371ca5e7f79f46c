"""What the read path serves without re-validation is what the public
constructors build.

A scan builds each ``EntryLocation`` and ``ReadEntry`` without the frozen
``__init__`` or ``__post_init__``: its block and slot are non-negative by
construction.  Over the scenario of :mod:`tests.core.test_read_path_pin`,
every entry a forward and a reverse scan serve equals, hashes and orders
like one rebuilt through the public constructors, and stays frozen; the
public ``EntryLocation`` constructor still refuses what it always refused.
"""

import dataclasses

import pytest

from repro.core import LogService
from repro.core.entry import LogEntry
from repro.core.ids import EntryLocation
from repro.core.reader import ReadEntry
from tests.core.test_read_path_pin import _scenario


def _rebuilt(served):
    location, entry = served.location, served.entry
    return ReadEntry(
        EntryLocation(location.global_block, location.slot),
        LogEntry(entry.logfile_id, entry.data, entry.timestamp, entry.client_seq),
    )


def test_served_entries_equal_constructed_ones(monkeypatch):
    services = []
    create = LogService.create

    def capturing_create(*args, **kwargs):
        services.append(create(*args, **kwargs))
        return services[-1]

    monkeypatch.setattr(LogService, "create", capturing_create)
    _scenario(0)
    (service,) = services
    for log in (service.open_log_file("/app"), service.open_root()):
        forward, backward = list(log.entries()), list(log.entries(reverse=True))
        assert forward == backward[::-1]
        for served, reverse in ((forward, False), (backward, True)):
            rebuilt = [_rebuilt(entry) for entry in served]
            assert served == rebuilt
            assert [hash(entry) for entry in served] == [hash(entry) for entry in rebuilt]
            served_at = [entry.location for entry in served]
            rebuilt_at = [entry.location for entry in rebuilt]
            # Strictly in log order (no entry served twice), and each served
            # location orders against the next rebuilt one as they do.
            assert served_at == sorted(set(rebuilt_at), reverse=reverse)
            assert [a < b for a, b in zip(served_at, rebuilt_at[1:])] == [
                a < b for a, b in zip(rebuilt_at, rebuilt_at[1:])
            ]
            for entry in rebuilt:
                assert service.reader.entry_at(entry.location) == entry.entry
        with pytest.raises(dataclasses.FrozenInstanceError):
            forward[0].location.slot = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            forward[0].entry = backward[0].entry


@pytest.mark.parametrize("block, slot", [(-1, 0), (0, -1)])
def test_public_location_constructor_still_refuses(block, slot):
    """``LogEntry``'s checks are held by ``tests/core/test_entry.py``."""
    with pytest.raises(ValueError):
        EntryLocation(block, slot)
