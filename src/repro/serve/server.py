"""The resident HTTP daemon: asyncio front end over the compute dispatcher.

Architecture (three layers, one thread each way):

- **event loop** (this module) — parses HTTP/1.1 requests off asyncio
  streams, normalizes parameters, derives the coalescing key, applies
  backpressure and timeouts, and writes responses.  It never computes.
- **coalescer** (:mod:`repro.serve.coalescer`) — one in-flight compute
  per content key, any number of waiters.
- **dispatcher** (:class:`repro.parallel.pool.PoolDispatcher`) — a
  dedicated thread owning the resident :class:`WorkerPool`; endpoint
  computes run there, one at a time, and may fan out across the pool.

The HTTP dialect is deliberately small (stdlib-only, no external web
framework): ``Connection: close`` on every response, bodies bounded at
1 MiB, no chunked requests.  The client helper and curl both speak it.

Status policy: 200 served; 400 bad parameters; 404 unknown path, stored
sequence, or evicted frame; 405 wrong method; 413 oversized body; 429
queue full (with ``Retry-After``); 500 unexpected compute failure; 503
draining; 504 per-request timeout (the compute keeps running for any
remaining waiters).

Shutdown: SIGTERM/SIGINT begin a graceful drain — stop accepting, let
in-flight requests finish, reap the pool, exit 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading

from repro import __version__
from repro.obs import get_metrics
from repro.parallel.pool import PoolDispatcher
from repro.serve import handlers
from repro.serve.coalescer import RequestCoalescer
from repro.serve.errors import BadRequest, NotFound, ServeError
from repro.serve.router import MethodNotAllowed, Router

MAX_BODY_BYTES = 1 << 20
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _Request:
    """One parsed request: method, path, headers, raw body."""

    def __init__(self, method: str, path: str, headers: dict, body: bytes) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    def json(self):
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}") from None


class _Response:
    """Status + body + content type, rendered to wire bytes."""

    def __init__(self, status: int, body: bytes, content_type: str,
                 headers: dict | None = None) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = dict(headers or {})

    @classmethod
    def json(cls, status: int, payload: dict, headers: dict | None = None
             ) -> "_Response":
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        return cls(status, body, "application/json", headers)

    @classmethod
    def error(cls, status: int, message: str, headers: dict | None = None
              ) -> "_Response":
        return cls.json(status, {"error": message, "status": status}, headers)

    def encode(self) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}",
                 f"Server: repro-serve/{__version__}",
                 f"Content-Type: {self.content_type}",
                 f"Content-Length: {len(self.body)}",
                 "Connection: close"]
        lines.extend(f"{k}: {v}" for k, v in sorted(self.headers.items()))
        return ("\r\n".join(lines) + "\r\n\r\n").encode() + self.body


class ServeApp:
    """The daemon: resident state + routes + lifecycle.

    ``max_queue`` bounds *distinct* in-flight computes — a request whose
    key is already being computed always joins it for free (coalescing
    is how the daemon absorbs a thundering herd); only a request that
    would start a new compute can be bounced with 429.
    """

    def __init__(self, root, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 1, max_queue: int = 32,
                 request_timeout: float = 300.0, max_frames: int = 256) -> None:
        self.host = host
        self.port = int(port)
        self.workers = max(1, int(workers))
        self.max_queue = int(max_queue)
        self.request_timeout = float(request_timeout)
        # Pool workers fork on the dispatcher thread at startup, before
        # the event loop grows threads worth not copying.
        self.dispatcher = PoolDispatcher(workers=self.workers)
        self.state = handlers.ServeState(
            root, workers=self.workers,
            pool=self.dispatcher.pool if self.workers > 1 else None,
            max_frames=max_frames)
        self.coalescer = RequestCoalescer()
        self.router = Router()
        for endpoint in ("classify", "track", "render", "run"):
            self.router.add("POST", f"/v1/{endpoint}",
                            self._make_endpoint(endpoint))
        self.router.add("GET", "/healthz", self._handle_healthz)
        self.router.add("GET", "/v1/follow/status", self._handle_follow_status)
        self.router.add("GET", "/metrics", self._handle_metrics)
        self.router.add("GET", "/v1/frames/{key}", self._handle_frame)
        self.draining = False
        self._active = 0
        self._server: asyncio.AbstractServer | None = None
        self._stopped: asyncio.Event | None = None
        self._drain_requested: asyncio.Event | None = None

    # ------------------------------------------------------------------ #
    # Endpoint handlers (event loop)
    # ------------------------------------------------------------------ #
    def _make_endpoint(self, endpoint: str):
        async def handle(request: _Request, _params: dict) -> _Response:
            raw = request.json()
            timeout = self.request_timeout
            if isinstance(raw, dict) and "timeout_s" in raw:
                raw = dict(raw)
                try:
                    timeout = float(raw.pop("timeout_s"))
                except (TypeError, ValueError):
                    raise BadRequest("timeout_s must be a number") from None
            params = handlers.normalize(endpoint, raw)
            key = handlers.request_key(endpoint, params)
            metrics = get_metrics()
            # Counted synchronously — no await between here and fetch()
            # below — so "requests.<ep> == N" implies all N are either
            # waiting on the shared task or already answered.
            metrics.counter("serve.requests").inc()
            metrics.counter(f"serve.requests.{endpoint}").inc()
            if (not self.coalescer.has(key)
                    and self.coalescer.inflight() >= self.max_queue):
                metrics.counter("serve.rejected").inc()
                return _Response.error(
                    429, f"compute queue full ({self.max_queue} in flight); "
                         f"retry shortly", {"Retry-After": "1"})
            compute = lambda: asyncio.wrap_future(  # noqa: E731
                self.dispatcher.submit(handlers.compute, endpoint,
                                       self.state, params))
            try:
                result = await asyncio.wait_for(
                    self.coalescer.fetch(key, compute), timeout)
            except asyncio.TimeoutError:
                metrics.counter("serve.timeouts").inc()
                return _Response.error(
                    504, f"request exceeded {timeout:g}s; the compute keeps "
                         f"running — retry to pick up its result")
            return _Response.json(200, {"key": key, **result})
        return handle

    async def _handle_healthz(self, request: _Request, _params: dict) -> _Response:
        pool = self.state.pool
        return _Response.json(200, {
            "status": "draining" if self.draining else "ok",
            "version": __version__,
            "root": str(self.state.root),
            "sequences": self.state.sequence_names(),
            "workers": self.workers,
            "pool": {"configured": self.workers,
                     "started": pool.started_workers if pool else 0,
                     "pids": pool.pids() if pool else []},
            "inflight": self.coalescer.inflight(),
            "queued": self.dispatcher.pending(),
            "active_requests": self._active,
            "frames_resident": self.state.frame_count(),
        })

    async def _handle_follow_status(self, request: _Request,
                                    _params: dict) -> _Response:
        follows = self.state.follow_statuses()
        return _Response.json(200, {"follows": follows,
                                    "count": len(follows)})

    async def _handle_metrics(self, request: _Request, _params: dict) -> _Response:
        return _Response(200, get_metrics().export_text().encode(),
                         "text/plain; charset=utf-8")

    async def _handle_frame(self, request: _Request, params: dict) -> _Response:
        return _Response(200, self.state.frame(params["key"]), "image/png")

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _read_request(self, reader: asyncio.StreamReader) -> _Request | None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        except asyncio.LimitOverrunError:
            raise ServeError("request header section too large") from None
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            raise BadRequest(f"malformed request line {request_line!r}")
        method, target, _version = parts
        headers = {}
        for line in header_lines:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise _PayloadTooLarge()
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return _Request(method, path, headers, body)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._active += 1
        try:
            response = await self._respond(reader)
            if response is not None:
                writer.write(response.encode())
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            # Client went away (or drain cancelled us): nothing to write.
            # The shared compute, if any, survives for other waiters.
            pass
        finally:
            self._active -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, reader: asyncio.StreamReader) -> _Response | None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return None
            if self.draining:
                return _Response.error(503, "server is draining",
                                       {"Retry-After": "1"})
            try:
                match = self.router.match(request.method, request.path)
            except MethodNotAllowed as exc:
                return _Response.error(405, str(exc),
                                       {"Allow": ", ".join(exc.allowed)})
            if match is None:
                raise NotFound(f"no route for {request.path}")
            handler, params = match
            return await handler(request, params)
        except _PayloadTooLarge:
            return _Response.error(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        except ServeError as exc:
            if exc.status >= 500:
                get_metrics().counter("serve.errors").inc()
            return _Response.error(exc.status, str(exc))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - boundary: report, don't die
            get_metrics().counter("serve.errors").inc()
            return _Response.error(500, f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listener and resolve the actual port."""
        self._stopped = asyncio.Event()
        self._drain_requested = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_BODY_BYTES + 8192)
        self.port = self._server.sockets[0].getsockname()[1]

    def begin_drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight, then stop.

        Thread-safe entry point (signal handlers, test harnesses)."""
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def _drain(self) -> None:
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        while self._active > 0 or self.coalescer.inflight() > 0:
            await asyncio.sleep(0.02)
        self.dispatcher.close()
        if self._stopped is not None:
            self._stopped.set()

    async def serve_until_stopped(self) -> None:
        """Run until :meth:`begin_drain` (or a signal) fires, then drain."""
        loop = asyncio.get_running_loop()
        installed = []
        if threading.current_thread() is threading.main_thread():
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.begin_drain)
                    installed.append(sig)
                except (NotImplementedError, RuntimeError):
                    pass
        try:
            await self._drain_requested.wait()
            await self._drain()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)


class _PayloadTooLarge(Exception):
    """Internal sentinel: Content-Length over the body cap (413)."""


class ServerHandle:
    """A running daemon on a background thread — the test-harness view.

    ``start_in_thread`` spins up the loop, waits for the port to bind,
    and returns a handle with ``.port``, ``.app``, ``.begin_drain()``
    and ``.shutdown()``.
    """

    def __init__(self, app: ServeApp, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop) -> None:
        self.app = app
        self.thread = thread
        self.loop = loop

    @property
    def port(self) -> int:
        return self.app.port

    def begin_drain(self) -> None:
        self.loop.call_soon_threadsafe(self.app.begin_drain)

    def shutdown(self, timeout: float = 30.0) -> None:
        """Drain gracefully and join the server thread."""
        self.begin_drain()
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise RuntimeError("serve thread did not drain in time")

    @classmethod
    def start_in_thread(cls, app: ServeApp, timeout: float = 30.0
                        ) -> "ServerHandle":
        started = threading.Event()
        box: dict = {}

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            box["loop"] = loop

            async def main() -> None:
                await app.start()
                started.set()
                await app.serve_until_stopped()

            try:
                loop.run_until_complete(main())
            finally:
                loop.close()

        thread = threading.Thread(target=run, daemon=True, name="repro-serve")
        thread.start()
        if not started.wait(timeout):
            raise RuntimeError("serve daemon failed to start")
        return cls(app, thread, box["loop"])


def run_server(root, host: str = "127.0.0.1", port: int = 0, workers: int = 1,
               max_queue: int = 32, request_timeout: float = 300.0) -> int:
    """Blocking entry point for ``repro serve`` (returns the exit code)."""
    app = ServeApp(root, host=host, port=port, workers=workers,
                   max_queue=max_queue, request_timeout=request_timeout)

    async def main() -> None:
        await app.start()
        print(f"serving {app.state.root} on http://{app.host}:{app.port} "
              f"(workers={app.workers})", flush=True)
        await app.serve_until_stopped()

    asyncio.run(main())
    print("serve: drained and stopped", flush=True)
    return 0
