"""Tests for the transaction manager application."""

import pytest

from repro.apps import TransactionManager, TxnAborted
from repro.core import LogService


def make_service(**kwargs):
    defaults = dict(block_size=512, degree_n=4, volume_capacity_blocks=2048)
    defaults.update(kwargs)
    return LogService.create(**defaults)


class TestTransactions:
    def test_commit_applies(self):
        manager = TransactionManager(make_service())
        txn = manager.begin()
        txn.write(b"k1", b"v1")
        txn.write(b"k2", b"v2")
        manager.commit(txn)
        assert manager.data == {b"k1": b"v1", b"k2": b"v2"}

    def test_abort_discards(self):
        manager = TransactionManager(make_service())
        txn = manager.begin()
        txn.write(b"k", b"v")
        manager.abort(txn)
        assert manager.data == {}
        with pytest.raises(TxnAborted):
            txn.write(b"k2", b"v2")

    def test_recover_replays_committed_only(self):
        service = make_service()
        manager = TransactionManager(service)
        committed = manager.begin()
        committed.write(b"keep", b"yes")
        manager.commit(committed)
        # An uncommitted transaction leaves BEGIN/UPDATE records but no
        # COMMIT (simulate by writing the body only).
        orphan = manager.begin()
        orphan.write(b"drop", b"no")
        manager._append_body(orphan)

        fresh = TransactionManager(service)
        applied = fresh.recover()
        assert applied == 1
        assert fresh.data == {b"keep": b"yes"}

    def test_recover_across_service_crash(self):
        service = make_service()
        manager = TransactionManager(service)
        for i in range(5):
            txn = manager.begin()
            txn.write(f"k{i}".encode(), f"v{i}".encode())
            manager.commit(txn)
        remains = service.crash()
        mounted, _ = LogService.mount(remains.devices, remains.nvram)
        fresh = TransactionManager(mounted)
        assert fresh.recover() == 5
        assert fresh.data[b"k4"] == b"v4"

    def test_async_commit_identity(self):
        service = make_service()
        manager = TransactionManager(service)
        txn = manager.begin()
        txn.write(b"k", b"v")
        commit_id = manager.commit_async(txn)
        assert manager.is_committed(commit_id)

    def test_async_commit_lost_in_crash_is_detectable(self):
        service = make_service(nvram_tail=False)
        manager = TransactionManager(service)
        txn = manager.begin()
        txn.write(b"k", b"v")
        commit_id = manager.commit_async(txn)  # unforced: volatile
        remains = service.crash()
        mounted, _ = LogService.mount(remains.devices, remains.nvram)
        fresh = TransactionManager(mounted)
        fresh.recover()
        assert not fresh.is_committed(commit_id)
        assert b"k" not in fresh.data

    def test_txn_ids_continue_after_recovery(self):
        service = make_service()
        manager = TransactionManager(service)
        txn = manager.begin()
        txn.write(b"a", b"1")
        manager.commit(txn)
        fresh = TransactionManager(service)
        fresh.recover()
        assert fresh.begin().txn_id > txn.txn_id

