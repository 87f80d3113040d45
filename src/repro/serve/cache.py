"""Canonical-key result cache: bounded LRU over minimization outcomes.

Entries are keyed by ``(canonical instance key, options fingerprint)`` —
see :mod:`repro.serve.canon` for the instance side; the options
fingerprint hashes the :func:`~repro.guard.bundle.options_to_dict`
snapshot so a ``--checked`` run and a stage-subset run never share an
entry with the default pipeline.

What gets cached is deliberately narrow, the ``cacheable`` rows of
:data:`repro.guard.errors.OUTCOMES`: ``ok`` covers (stored as integer
rows in *canonical* variable labeling, so one entry serves every
permutation/polarity rewrite of the instance) and ``no_solution``
verdicts (Theorem 4.1 is a property of the function, equally invariant).
Degraded, timed-out, crashed, or fault-injected outcomes are never
cached — they describe one run, not the instance.

:class:`MalformedCache` is the *negative* side: deterministic
``malformed`` rejections, keyed by a digest of the raw request text.  A
parse error happens **before** canonicalization can produce a key; a
validation error is the worker's, after its one run of the text.  Without
the cache every resubmission of the same bad text re-paid a parse in the
prepare thread, or a worker; with it repeated rejections coalesce onto one
cached answer.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.guard.errors import BY_WIRE

CacheKey = Tuple[str, str]


def options_fingerprint(options_dict: Dict[str, Any]) -> str:
    """Stable digest of an options snapshot (budget configuration included)."""
    return hashlib.sha256(
        json.dumps(options_dict or {}, sort_keys=True).encode()
    ).hexdigest()[:16]


class ResultCache:
    """Bounded LRU mapping cache keys to canonical-space outcomes.

    An entry is a plain dict: ``{"status", "num_cubes", "num_literals",
    "error", ...}``.  An ``ok`` entry holds its cover as
    ``cover_cubes``, canonically-labeled ``(inbits, outbits)`` integer
    rows, with the shape as ``n_inputs`` and ``n_outputs`` (the fields of
    a worker row, read back by :func:`repro.guard.runner.cover_from_row`);
    each reply relabels and formats it for its requester.  A
    ``no_solution`` entry instead keeps ``failures``: its failing required
    cubes as canonically-labeled ``(input part, output)`` pairs, rendered
    per requester.  Eviction is least-recently-*used*: every hit refreshes
    the entry.
    """

    def __init__(self, max_entries: int = 1024):
        if max_entries < 1:
            raise ValueError("cache needs at least one entry")
        self.max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, Dict[str, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: optional zero-arg callback fired once per eviction — the
        #: supervisor hangs its ``serve.cache_evictions`` metrics counter
        #: here so operators see cache pressure without polling stats
        self.on_evict = None

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: CacheKey) -> Optional[Dict[str, Any]]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: CacheKey, entry: Dict[str, Any]) -> None:
        outcome = BY_WIRE.get(entry.get("status"))
        if outcome is None or not outcome.cacheable:
            raise ValueError(
                f"refusing to cache status {entry.get('status')!r}"
            )
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            if self.on_evict is not None:
                self.on_evict()

    def stats(self) -> Dict[str, Any]:
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class MalformedCache:
    """Bounded LRU negative cache over deterministic parse rejections.

    Maps a digest of the raw PLA request text (:meth:`key_for`) to the
    rejection message the daemon's parser or the worker's validation
    produced.  Both are pure functions of the text, so the verdict is
    deterministic; fault-injected and ``no_cache`` ``malformed`` outcomes
    describe one run and are never negatively cached.  Entries are tiny
    (digest + message), so the default capacity is generous relative to
    the positive cache.
    """

    def __init__(self, max_entries: int = 1024):
        if max_entries < 1:
            raise ValueError("cache needs at least one entry")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, str]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key_for(pla_text: str) -> str:
        """Digest of the raw request text (pre-canonicalization keyspace)."""
        return hashlib.sha256(pla_text.encode()).hexdigest()[:32]

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[str]:
        error = self._entries.get(key)
        if error is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return error

    def put(self, key: str, error: str) -> None:
        self._entries[key] = str(error)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> Dict[str, Any]:
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
