"""The minimization daemon: asyncio NDJSON server over the supervisor.

The server owns nothing clever — all policy lives in
:class:`repro.serve.supervisor.Supervisor`.  What lives here:

* **Framing**: one request per line (:mod:`repro.serve.protocol`),
  responses written back in request order per connection, connections
  fully concurrent.  A malformed line gets a ``protocol_error`` response;
  an over-long line gets one too, and then the connection is closed —
  once a line exceeds the limit the framing itself is untrustworthy.
* **Lifecycle**: ``SIGTERM``/``SIGINT`` (and the ``shutdown`` op, when
  permitted) start a *drain* — the listening socket stops accepting, new
  requests on live connections are answered ``shutting_down``, in-flight
  jobs run to completion (bounded by ``drain_timeout_s``), then the
  process exits.
* **Observability**: one flat span per request (op, status, cache
  disposition) on a shared tracer, exportable with ``--trace-out``;
  the metrics snapshot is exportable with ``--metrics-out`` as a
  :class:`repro.obs.MetricsRegistry` snapshot, the format
  :func:`repro.obs.merge_snapshots` combines (as the corpus scoreboard
  does).

``serve_main`` is the CLI entry (``espresso-hf serve``);
:func:`start_in_thread` runs the same daemon on a background thread for
tests and ``scripts/loadgen.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import threading
from typing import Any, Dict, Optional

from repro.obs import MetricsRegistry, Span, Tracer, write_jsonl
from repro.serve.protocol import (
    ProtocolError,
    Request,
    encode,
    parse_request,
    response,
)
from repro.serve.supervisor import ServeConfig, Supervisor


class MinimizationServer:
    """One daemon instance: listener + supervisor + lifecycle."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.config = config or ServeConfig()
        self.registry = registry or MetricsRegistry()
        self.supervisor = Supervisor(self.config, self.registry)
        self.tracer = Tracer()
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = None  # asyncio.Event, created on the loop
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._shutdown = asyncio.Event()
        await self.supervisor.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.max_line_bytes,
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]

    async def serve_until_shutdown(self) -> bool:
        """Block until a shutdown is requested, then drain. True = clean."""
        await self._shutdown.wait()
        return await self.shutdown()

    async def shutdown(self) -> bool:
        """Stop accepting, drain in-flight jobs, stop the workers."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        clean = await self.supervisor.drain()
        # One settle tick: handlers whose futures just resolved still need
        # to write their final reply before the event loop goes away.
        await asyncio.sleep(0.1)
        return clean

    def request_shutdown(self) -> None:
        if self._shutdown is not None:
            self._shutdown.set()

    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.registry.counter("serve.connections").inc()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    asyncio.IncompleteReadError,
                    ValueError,
                ):
                    # Over-long line: answer once, then drop the
                    # connection — byte framing is no longer trustworthy.
                    self.registry.counter("serve.protocol_errors").inc()
                    writer.write(
                        encode(
                            response(
                                None,
                                "protocol_error",
                                error="request line exceeds "
                                f"{self.config.max_line_bytes} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                reply = await self._handle_line(line.decode(errors="replace"))
                writer.write(encode(reply))
                await writer.drain()
                if reply.get("op") == "shutdown" and reply.get("ok"):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_line(self, line: str) -> Dict[str, Any]:
        t0 = self.tracer.elapsed_s()
        try:
            req = parse_request(line)
        except ProtocolError as exc:
            self.registry.counter("serve.protocol_errors").inc()
            reply = response(None, "protocol_error", error=str(exc))
            self._record_span("serve.request", t0, op="?", status=reply["status"])
            return reply
        reply = await self._dispatch(req)
        self._record_span(
            "serve.request",
            t0,
            op=req.op,
            status=reply.get("status", "?"),
            cached=bool(reply.get("cached")),
        )
        return reply

    async def _dispatch(self, req: Request) -> Dict[str, Any]:
        if req.op == "ping":
            return response(req.id, "ok", op="ping")
        if req.op == "stats":
            return response(req.id, "ok", op="stats", stats=self.supervisor.stats())
        if req.op == "shutdown":
            if not self.config.allow_remote_shutdown:
                return response(
                    req.id, "error", op="shutdown",
                    error="remote shutdown disabled",
                )
            self.request_shutdown()
            return response(req.id, "ok", op="shutdown", draining=True)
        return await self.supervisor.handle_minimize(req)

    def _record_span(self, name: str, start_s: float, **attrs: Any) -> None:
        # Flat spans appended directly: concurrent requests overlap, so
        # the tracer's nesting stack (built for one sequential pipeline)
        # does not apply here.
        tracer = self.tracer
        tracer.spans.append(
            Span(
                name=name,
                span_id=len(tracer.spans) + 1,
                parent_id=None,
                start_s=start_s,
                end_s=tracer.elapsed_s(),
                attrs=dict(attrs),
                pid=tracer.pid,
            )
        )


# ----------------------------------------------------------------------
# Embedded daemon (tests, loadgen)
# ----------------------------------------------------------------------


class ServerHandle:
    """A daemon running on a background thread, stoppable from the host."""

    def __init__(self, server: MinimizationServer, loop, thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def registry(self) -> MetricsRegistry:
        return self.server.registry

    def stop(self, timeout_s: float = 60.0) -> None:
        """Request a drain and join the server thread."""
        self._loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout=timeout_s)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise RuntimeError("daemon thread failed to drain in time")


def start_in_thread(
    config: Optional[ServeConfig] = None,
    registry: Optional[MetricsRegistry] = None,
) -> ServerHandle:
    """Run a daemon on a daemon thread; returns once it is listening."""
    server = MinimizationServer(config, registry)
    started = threading.Event()
    startup_error: list = []
    loop_box: list = []

    def _run() -> None:
        async def _amain() -> None:
            loop_box.append(asyncio.get_event_loop())
            try:
                await server.start()
            except Exception as exc:  # noqa: BLE001 - surface to caller
                startup_error.append(exc)
                started.set()
                return
            started.set()
            await server.serve_until_shutdown()

        asyncio.run(_amain())

    thread = threading.Thread(target=_run, name="espresso-hf-serve", daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):  # pragma: no cover - defensive
        raise RuntimeError("daemon failed to start listening")
    if startup_error:
        thread.join(timeout=5.0)
        raise startup_error[0]
    return ServerHandle(server, loop_box[0], thread)


# ----------------------------------------------------------------------
# CLI entry: ``espresso-hf serve``
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="espresso-hf serve",
        description="Minimization-as-a-service daemon (NDJSON over TCP).",
    )
    defaults = ServeConfig()
    parser.add_argument("--host", default=defaults.host)
    parser.add_argument("--port", type=int, default=defaults.port,
                        help="0 picks an ephemeral port (announced on stdout)")
    parser.add_argument("--workers", type=int, default=defaults.workers)
    parser.add_argument("--queue-limit", type=int, default=defaults.queue_limit)
    parser.add_argument("--max-wait", type=float, default=defaults.max_wait_s,
                        metavar="S", help="shed when estimated wait exceeds this")
    parser.add_argument("--job-timeout", type=float,
                        default=defaults.job_timeout_s, metavar="S")
    parser.add_argument("--budget", type=float, default=None, metavar="S",
                        help="default cooperative budget per job")
    parser.add_argument("--max-retries", type=int, default=defaults.max_retries)
    parser.add_argument("--quarantine-threshold", type=int,
                        default=defaults.quarantine_threshold)
    parser.add_argument("--cache-entries", type=int,
                        default=defaults.cache_entries)
    parser.add_argument("--max-inputs", type=int, default=defaults.max_inputs)
    parser.add_argument("--max-cubes", type=int, default=defaults.max_cubes)
    parser.add_argument("--bundle-dir", default=defaults.bundle_dir)
    parser.add_argument("--drain-timeout", type=float,
                        default=defaults.drain_timeout_s, metavar="S")
    parser.add_argument("--checked", action="store_true")
    parser.add_argument("--allow-test-faults", action="store_true",
                        help="honour the 'inject' request field (tests only)")
    parser.add_argument("--no-remote-shutdown", action="store_true",
                        help="ignore the 'shutdown' op")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the final metrics snapshot as JSON")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write request spans as JSONL")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def _config_from_args(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        max_wait_s=args.max_wait,
        max_inputs=args.max_inputs,
        max_cubes=args.max_cubes,
        job_timeout_s=args.job_timeout,
        budget_s=args.budget,
        max_retries=args.max_retries,
        quarantine_threshold=args.quarantine_threshold,
        cache_entries=args.cache_entries,
        bundle_dir=args.bundle_dir,
        drain_timeout_s=args.drain_timeout,
        checked=args.checked,
        allow_test_faults=args.allow_test_faults,
        allow_remote_shutdown=not args.no_remote_shutdown,
        seed=args.seed,
    )


async def _amain(config: ServeConfig, server: MinimizationServer) -> bool:
    await server.start()
    loop = asyncio.get_event_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.request_shutdown)
        except (NotImplementedError, RuntimeError, ValueError):
            # Non-main thread or platform without signal support: the
            # shutdown op / handle.stop() path still works.
            pass
    print(
        f"serve: listening on {server.host}:{server.port} "
        f"(workers={config.workers}, queue={config.queue_limit})",
        flush=True,
    )
    clean = await server.serve_until_shutdown()
    return clean


def serve_main(argv=None) -> int:
    """Entry point for ``espresso-hf serve``."""
    args = _build_parser().parse_args(argv)
    config = _config_from_args(args)
    server = MinimizationServer(config)
    clean = asyncio.run(_amain(config, server))
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            json.dump(server.registry.snapshot(), fh, indent=1, sort_keys=True)
    if args.trace_out:
        write_jsonl(args.trace_out, server.tracer)
    stats = server.supervisor.stats()
    print(
        f"serve: drained {'cleanly' if clean else 'WITH TIMEOUT'} "
        f"(cache {stats['cache']['hits']} hits / "
        f"{stats['cache']['misses']} misses, "
        f"{stats['quarantined']} quarantined)",
        file=sys.stderr,
        flush=True,
    )
    return 0 if clean else 1
