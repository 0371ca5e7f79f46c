"""The one canonical JSON encoding: sorted keys, compact separators.

Persisted records (``/traces``, ``/events``, ``/alerts``) and the
campaign / workload artifacts live on write-once media or are compared
byte for byte, so identical state must encode to identical bytes.
"""

from __future__ import annotations

import json

__all__ = ["canonical_json"]


def canonical_json(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))
