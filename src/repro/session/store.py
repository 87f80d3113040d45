"""Bounded LRU store of sessions, keyed by canonical instance key.

The serve layer keeps one of these next to its result cache: successful
runs that asked for capture deposit their session under the instance's
canonical key (:func:`repro.serve.canon.canonicalize`), and a
resubmission carrying ``warm_key`` looks it up for the identical-mode
short-circuit.  Sessions are stored as plain dicts (the wire / worker
format); the store never deserializes them.

Thread-safe: the supervisor touches it from the event loop, tests and
offline tools from arbitrary threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional


class SessionStore:
    """LRU dict of ``canonical key -> session dict`` with hit accounting."""

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: str, session: Dict[str, Any]) -> None:
        if not isinstance(key, str) or not key:
            raise ValueError("session key must be a non-empty string")
        with self._lock:
            self._entries[key] = session
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
