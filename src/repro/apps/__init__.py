"""History-based applications (Section 4): the history file server and the
transaction log."""

from repro.apps.history_fs import HistoryFileServer, HistoryFsStats
from repro.apps.txn import Transaction, TransactionManager, TxnAborted

__all__ = [
    "HistoryFileServer",
    "HistoryFsStats",
    "TransactionManager",
    "Transaction",
    "TxnAborted",
]
