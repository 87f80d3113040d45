"""Wire protocol of the minimization service: newline-delimited JSON.

One request per line, one response per line, UTF-8, ``\\n``-terminated.
The framing is deliberately primitive — any language with a socket and a
JSON parser is a client — and every connection is independent: requests on
one connection are answered in order, connections are concurrent.

Requests
--------

``{"op": "minimize", "id": "r1", "pla": "<extended PLA text>", ...}``
    Minimize one instance (the same ``.type fr`` + ``.trans`` format the
    CLI reads).  Optional fields: ``options`` (a JSON
    :func:`~repro.guard.bundle.options_to_dict` snapshot), ``timeout_s``
    (per-job wall cap), ``budget_s`` (cooperative budget — exhausting it
    yields a *degraded* best-verified cover, not a failure), ``checked``
    (phase-boundary invariants on), ``no_cache`` (bypass the result
    cache), ``inject`` (test-only fault seam, honoured only when the
    daemon runs with ``--allow-test-faults``).  Unknown fields are
    ignored, so a client that still sends the retired warm-start session
    fields gets the plain answer: the result cache is the service's one
    memo.
``{"op": "ping"}``
    Liveness probe; echoes the protocol version.
``{"op": "stats"}``
    Queue/cache/quarantine state plus a full metrics snapshot.
``{"op": "shutdown"}``
    Graceful drain (when the daemon allows remote shutdown).

Responses
---------

Every response carries ``id`` (echoed), ``ok`` (bool) and ``status`` — one
of :data:`RESPONSE_STATUSES`, the wire column of the outcome table
(:data:`repro.guard.errors.OUTCOMES`), which also fixes each status's
``ok`` flag; see ``docs/SERVICE.md`` for the full failure semantics.
Malformed lines are answered with ``status="protocol_error"`` when the
line parses far enough to answer at all; an over-long line kills the
connection (the framing is already lost).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.guard.errors import BY_WIRE

PROTOCOL_VERSION = 1

#: refuse request lines longer than this (framing guard, not a size cap —
#: instance size limits are admission control's job)
MAX_LINE_BYTES = 4 * 1024 * 1024

REQUEST_OPS = ("minimize", "ping", "stats", "shutdown")

#: every status a response can carry
RESPONSE_STATUSES = tuple(BY_WIRE)

#: statuses that still attach a usable hazard-free cover
COVER_STATUSES = tuple(status for status, o in BY_WIRE.items() if o.cover)


class ProtocolError(ValueError):
    """A request line that cannot be honoured (bad JSON, bad fields)."""


@dataclass
class Request:
    """One validated ``minimize`` request."""

    op: str
    id: Optional[str] = None
    pla: str = ""
    options: Dict[str, Any] = field(default_factory=dict)
    timeout_s: Optional[float] = None
    budget_s: Optional[float] = None
    checked: bool = False
    no_cache: bool = False
    inject: Optional[Dict[str, Any]] = None


def parse_request(line: str) -> Request:
    """Validate one request line into a :class:`Request`.

    Raises :class:`ProtocolError` with a human-readable reason on any
    malformed line; the server turns that into a ``protocol_error``
    response rather than dropping the connection.
    """
    try:
        data = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError("request must be a JSON object")
    op = data.get("op")
    if op not in REQUEST_OPS:
        raise ProtocolError(
            f"unknown op {op!r} (expected one of {', '.join(REQUEST_OPS)})"
        )
    req_id = data.get("id")
    if req_id is not None and not isinstance(req_id, (str, int)):
        raise ProtocolError("id must be a string or integer")
    if op != "minimize":
        return Request(op=op, id=req_id)
    pla = data.get("pla")
    if not isinstance(pla, str) or not pla.strip():
        raise ProtocolError("minimize requires a non-empty 'pla' string")
    options = data.get("options") or {}
    if not isinstance(options, dict):
        raise ProtocolError("options must be a JSON object")
    inject = data.get("inject")
    if inject is not None and not isinstance(inject, dict):
        raise ProtocolError("inject must be a JSON object")
    for key in ("timeout_s", "budget_s"):
        value = data.get(key)
        if value is not None and (
            not isinstance(value, (int, float)) or value <= 0
        ):
            raise ProtocolError(f"{key} must be a positive number")
    return Request(
        op="minimize",
        id=req_id,
        pla=pla,
        options=options,
        timeout_s=data.get("timeout_s"),
        budget_s=data.get("budget_s"),
        checked=bool(data.get("checked", False)),
        no_cache=bool(data.get("no_cache", False)),
        inject=inject,
    )


def encode(message: Dict[str, Any]) -> bytes:
    """Serialize one response (or request) as an NDJSON line."""
    return (json.dumps(message, sort_keys=True) + "\n").encode()


def response(
    req_id: Optional[str],
    status: str,
    **fields: Any,
) -> Dict[str, Any]:
    """Build a response dict with the mandatory envelope fields."""
    message: Dict[str, Any] = {
        "id": req_id,
        "ok": BY_WIRE[status].ok,
        "status": status,
        "v": PROTOCOL_VERSION,
    }
    message.update(fields)
    return message
