"""Sublog relations (Section 2.1).

"The logging service allows a client to create a log file that is a sublog
of an existing log file.  If log file l2 is a sublog of log file l1, then
any entry that is logged in l2 will also belong to l1. ... The sublog
facility thus provides an additional way to efficiently locate a small,
selected set of entries within a larger log file."

The catalog stores the parent relation; these helpers answer the derived
queries (membership, descendant sets) used by the service and by
applications filtering an ancestor log.
"""

from __future__ import annotations

from repro.core.catalog import Catalog
from repro.core.ids import VOLUME_SEQUENCE_ID

__all__ = ["is_member", "descendants", "depth", "common_ancestor"]


def is_member(catalog: Catalog, entry_logfile_id: int, target_logfile_id: int) -> bool:
    """Does an entry logged in ``entry_logfile_id`` belong to ``target``?

    True iff target is the entry's log file or one of its ancestors.  The
    volume sequence log file (the root) contains everything.
    """
    if target_logfile_id == VOLUME_SEQUENCE_ID:
        return True
    return target_logfile_id in catalog.chain(entry_logfile_id)


def descendants(catalog: Catalog, logfile_id: int) -> set[int]:
    """All log files whose entries belong to ``logfile_id`` (inclusive)."""
    result = {logfile_id}
    frontier = [logfile_id]
    while frontier:
        parent = frontier.pop()
        for child_id in catalog.children(parent).values():
            if child_id not in result:
                result.add(child_id)
                frontier.append(child_id)
    return result


def depth(catalog: Catalog, logfile_id: int) -> int:
    """Distance from the root (the root itself has depth 0)."""
    return len(catalog.chain(logfile_id)) - 1


def common_ancestor(catalog: Catalog, a: int, b: int) -> int:
    """Deepest log file both ``a`` and ``b`` belong to (possibly the root)."""
    ancestors_b = catalog.chain(b)
    for candidate in catalog.chain(a):
        if candidate in ancestors_b:
            return candidate
    return VOLUME_SEQUENCE_ID
