"""Blocking client for the minimization daemon.

A thin convenience over one TCP connection: requests go out as NDJSON
lines, responses come back in order (the protocol guarantees
per-connection ordering).  Used by the test suites, ``scripts/loadgen.py``
and ``scripts/serve_smoke.py``; external callers can just as well speak
the protocol directly (see ``docs/SERVICE.md``).
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, Optional

from repro.serve.protocol import MAX_LINE_BYTES


class ServeClient:
    """One connection to a daemon; context-manager friendly."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7777,
        timeout_s: float = 120.0,
    ):
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._fh = self._sock.makefile("rwb")
        self._next_id = 0

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._fh.close()
        finally:
            self._sock.close()

    # ------------------------------------------------------------------

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one raw request dict, wait for its response line."""
        self._fh.write((json.dumps(message) + "\n").encode())
        self._fh.flush()
        line = self._fh.readline(MAX_LINE_BYTES + 2)
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def send_raw(self, line: bytes) -> Dict[str, Any]:
        """Send pre-encoded bytes (protocol tests); returns the response."""
        self._fh.write(line)
        self._fh.flush()
        reply = self._fh.readline(MAX_LINE_BYTES + 2)
        if not reply:
            raise ConnectionError("daemon closed the connection")
        return json.loads(reply)

    def _id(self) -> str:
        self._next_id += 1
        return f"c{self._next_id}"

    def minimize(
        self,
        pla_text: str,
        options: Optional[Dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
        budget_s: Optional[float] = None,
        checked: bool = False,
        no_cache: bool = False,
        inject: Optional[Dict[str, Any]] = None,
        req_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        message: Dict[str, Any] = {
            "op": "minimize",
            "id": req_id or self._id(),
            "pla": pla_text,
        }
        if options:
            message["options"] = options
        if timeout_s is not None:
            message["timeout_s"] = timeout_s
        if budget_s is not None:
            message["budget_s"] = budget_s
        if checked:
            message["checked"] = True
        if no_cache:
            message["no_cache"] = True
        if inject is not None:
            message["inject"] = inject
        return self.request(message)

    def ping(self) -> Dict[str, Any]:
        return self.request({"op": "ping", "id": self._id()})

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats", "id": self._id()})

    def shutdown(self) -> Dict[str, Any]:
        return self.request({"op": "shutdown", "id": self._id()})
