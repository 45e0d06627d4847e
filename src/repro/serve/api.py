"""Ingress for the session engine: in-process dict API + HTTP/JSON front.

Two layers share one request vocabulary:

* :class:`ServeAPI` — a dict-in/dict-out facade over
  :class:`~repro.serve.engine.SessionEngine`.  Everything it accepts and
  returns is JSON-serialisable, so in-process callers, the HTTP handler
  and the CLI all speak the same protocol.
* :func:`make_http_server` / :class:`ServeHTTPServer` — a minimal
  stdlib-only (:mod:`http.server`) threading HTTP server exposing the API:

  ========  ============================== =================================
  method    path                           body / query
  ========  ============================== =================================
  GET       /healthz                       —
  GET       /stats                         —
  GET       /metrics                       — (Prometheus text exposition)
  POST      /sessions                      {"spec_text" | "spec_path",
                                            "filename"?, "session_id"?}
  GET       /sessions                      —
  GET       /sessions/{id}                 —
  POST      /sessions/{id}/step            {"rounds"?, "deadline"?}
  POST      /sessions/{id}/interactions    {"module", "ip", "interaction",
                                            "params"?}
  GET       /sessions/{id}/firings         ?since=N
  DELETE    /sessions/{id}                 —
  ========  ============================== =================================

Errors map to JSON bodies ``{"error": ...}``: 404 for unknown sessions,
400 for invalid requests, 408 (and a closed connection) when a client
stalls mid-body, 413 when a declared body exceeds the cap, 429
(+ ``Retry-After``) when the in-flight admission gate sheds a request,
and 503 (+ ``Retry-After``) when a step exhausts its wall-clock budget.
The server binds 127.0.0.1 by default — it is a deployment artefact for
the compose file, not an authenticated public endpoint.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..obs import CONTENT_TYPE as METRICS_CONTENT_TYPE
from ..runtime.executor import SpecSource
from .engine import ServeError, SessionEngine, SessionUnknown, StepTimeout

#: default request-body cap for the HTTP front (1 MiB).
DEFAULT_MAX_BODY_BYTES = 1 << 20

#: ``Retry-After`` of both "try again" replies: a shed request (429) and a
#: step that ran out of wall-clock budget (503).
RETRY_AFTER_S = 1

#: Seconds a client may stay silent while sending a declared request body;
#: past it the request is answered 408 and its connection closed, so a
#: client that stalls mid-body cannot pin a handler thread.
BODY_READ_TIMEOUT_S = 10.0

#: How often :meth:`ServeHTTPServer.serve_in_background`'s loop checks for a
#: shutdown request — the bound on how long ``shutdown()`` waits for it.
BACKGROUND_POLL_S = 0.02


class PayloadTooLarge(ServeError):
    """The request body exceeds the configured cap (HTTP 413)."""


class RequestTimeout(ServeError):
    """The client stopped sending its request body (HTTP 408)."""


class Overloaded(ServeError):
    """Too many requests already in flight — shed, retry later (HTTP 429)."""

    def __init__(self) -> None:
        super().__init__(
            "service is at its in-flight request limit; "
            f"retry after {RETRY_AFTER_S}s"
        )


class ServeAPI:
    """JSON-friendly facade over a :class:`SessionEngine`."""

    def __init__(self, engine: Optional[SessionEngine] = None):
        self.engine = engine if engine is not None else SessionEngine()
        self._m_http = self.engine.obs.registry.counter(
            "repro_serve_http_requests_total",
            "HTTP requests by method, route template and status.",
            labelnames=("method", "route", "status"),
        )
        self._m_shed = self.engine.obs.registry.counter(
            "repro_serve_requests_shed_total",
            "Requests rejected by the in-flight admission gate (HTTP 429).",
        )

    def note_request(self, method: str, route: str, status: int) -> None:
        """Count one HTTP request (route is the template, not the raw path,
        so series cardinality stays bounded by the route table)."""
        self._m_http.labels(method=method, route=route, status=str(status)).inc()

    def note_shed(self) -> None:
        """Count one request rejected by the admission gate."""
        self._m_shed.inc()

    # -- requests ----------------------------------------------------------------

    def create_session(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        for field in ("spec_text", "spec_path", "filename", "session_id"):
            value = payload.get(field)
            if value is not None and not isinstance(value, str):
                # A session id ends up in URLs and a path in open(): anything
                # but a string is a session nobody can address, or a 500.
                raise ServeError(f"{field!r} must be a string, got {value!r}")
        spec_text = payload.get("spec_text")
        spec_path = payload.get("spec_path")
        if (spec_text is None) == (spec_path is None):
            raise ServeError(
                "provide exactly one of 'spec_text' or 'spec_path'"
            )
        if spec_text is not None:
            source = SpecSource.from_estelle_text(
                spec_text, filename=payload.get("filename", "<http>")
            )
        else:
            source = SpecSource.from_estelle_file(spec_path)
        session_id = self.engine.create_session(
            source, session_id=payload.get("session_id")
        )
        return {"session_id": session_id}

    def step(self, session_id: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        rounds = payload.get("rounds", 1)
        deadline = payload.get("deadline")
        if not isinstance(rounds, int):
            raise ServeError(f"'rounds' must be an integer, got {rounds!r}")
        if deadline is not None and not isinstance(deadline, (int, float)):
            raise ServeError(f"'deadline' must be a number, got {deadline!r}")
        return self.engine.step(session_id, rounds=rounds, deadline=deadline)

    def inject(self, session_id: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        try:
            module = payload["module"]
            ip_name = payload["ip"]
            interaction = payload["interaction"]
        except KeyError as exc:
            raise ServeError(f"missing required field {exc.args[0]!r}") from None
        for field, value in (
            ("module", module), ("ip", ip_name), ("interaction", interaction)
        ):
            if not isinstance(value, str):
                # Names are looked up: anything else is a 500 in the lookup.
                raise ServeError(f"{field!r} must be a string, got {value!r}")
        params = payload.get("params") or {}
        if not isinstance(params, dict):
            raise ServeError(f"'params' must be an object, got {params!r}")
        return self.engine.inject(session_id, module, ip_name, interaction, params)

    def firings(self, session_id: str, since: int) -> Dict[str, Any]:
        events, cursor = self.engine.stream_firings(session_id, since=since)
        return {"events": events, "cursor": cursor}

    def health(self, session_id: str) -> Dict[str, Any]:
        return self.engine.health(session_id)

    def close_session(self, session_id: str) -> Dict[str, Any]:
        return self.engine.close_session(session_id)

    def sessions(self) -> Dict[str, Any]:
        return {"sessions": self.engine.session_ids()}

    def stats(self) -> Dict[str, Any]:
        return self.engine.stats()

    def metrics(self) -> str:
        """The engine's registry as Prometheus text exposition."""
        return self.engine.obs.render()

    def healthz(self) -> Dict[str, Any]:
        stats = self.engine.stats()
        return {
            "status": "ok",
            "active_sessions": stats["active_sessions"],
            "uptime_seconds": stats["uptime_seconds"],
        }


_SESSION_ROUTE = re.compile(
    r"^/sessions/(?P<sid>[^/]+)(?:/(?P<verb>step|interactions|firings))?$"
)


def _route_template(path: str) -> str:
    """Collapse a request path onto its route template (bounded label set)."""
    if path in ("/healthz", "/stats", "/metrics", "/sessions"):
        return path
    match = _SESSION_ROUTE.match(path)
    if match:
        verb = match.group("verb")
        return f"/sessions/{{id}}/{verb}" if verb else "/sessions/{id}"
    return "<unmatched>"


class _Handler(BaseHTTPRequestHandler):
    """Route HTTP verbs onto the :class:`ServeAPI` attached to the server."""

    server: "ServeHTTPServer"
    protocol_version = "HTTP/1.1"
    #: Clients are expected to keep their connection alive; with Nagle on, a
    #: reply written while the previous one is still unacknowledged waits out
    #: the client's delayed ACK (~40 ms per request).
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    def _reply(
        self,
        status: int,
        document: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._reply_bytes(
            status,
            json.dumps(document).encode("utf-8"),
            "application/json",
            headers=headers,
        )

    def _reply_text(self, status: int, text: str, content_type: str) -> None:
        self._reply_bytes(status, text.encode("utf-8"), content_type)

    def _reply_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        # Status line, headers and body leave as one write (one segment for a
        # small reply): end_headers() would flush the header block on its own
        # and put the body in a second small write behind it.
        self._headers_buffer.append(b"\r\n")
        head = b"".join(self._headers_buffer)
        self._headers_buffer = []
        self.wfile.write(head + body)

    def _body(self) -> bytes:
        raw = self.headers.get("Content-Length")
        if raw is None:
            return b""
        try:
            length = int(raw)
        except ValueError:
            raise ServeError(f"invalid Content-Length header {raw!r}") from None
        if length < 0:
            raise ServeError(f"invalid Content-Length header {raw!r}")
        limit = self.server.max_body_bytes
        if limit is not None and length > limit:
            # The body is deliberately left unread: with the cap declared up
            # front we refuse before buffering, and close the connection so
            # HTTP/1.1 framing cannot desynchronise on the unread bytes.
            self.close_connection = True
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit"
            )
        # Bound the body read only: idle keep-alive waits stay unbounded.
        previous = self.connection.gettimeout()
        self.connection.settimeout(BODY_READ_TIMEOUT_S)
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            self.close_connection = True
            raise RequestTimeout(
                f"request body not received within {BODY_READ_TIMEOUT_S}s"
            ) from None
        self.connection.settimeout(previous)
        return body

    @staticmethod
    def _payload(body: bytes) -> Dict[str, Any]:
        if not body:
            return {}
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(f"invalid JSON body: {exc}") from None
        if not isinstance(document, dict):
            raise ServeError("request body must be a JSON object")
        return document

    def _dispatch(self, handler, gated: bool = False) -> None:
        """Run one routed request under the error → status-code mapping.

        ``gated`` routes (the work-creating POSTs) carry a body, which
        ``handler`` receives parsed, and pass the server's admission gate: if
        the in-flight limit is reached the request is shed with 429 +
        ``Retry-After`` — bounded queueing beats unbounded thread pile-up
        when callers outpace the engine.  The body is read *before* the
        admission decision: a shed request then leaves its keep-alive
        connection at the next request line, and a client that stalls
        mid-body waits without holding a gate slot.
        """
        gate = self.server.gate
        admitted = False
        headers: Optional[Dict[str, str]] = None
        try:
            try:
                if gated:
                    body = self._body()
                    if gate is not None:
                        admitted = gate.acquire(blocking=False)
                        if not admitted:
                            self.server.api.note_shed()
                            raise Overloaded()
                    status, document = handler(self._payload(body))
                else:
                    status, document = handler()
            except SessionUnknown as exc:
                status, document = 404, {"error": str(exc)}
            except StepTimeout as exc:
                # The session is intact at a round boundary — the honest
                # signal is "try again", not a 500.
                status = 503
                document = {
                    "error": str(exc),
                    "session_id": exc.session_id,
                    "rounds_completed": exc.rounds_completed,
                }
                headers = {"Retry-After": str(RETRY_AFTER_S)}
            except PayloadTooLarge as exc:
                status, document = 413, {"error": str(exc)}
            except RequestTimeout as exc:
                status, document = 408, {"error": str(exc)}
            except Overloaded as exc:
                status, document = 429, {"error": str(exc)}
                headers = {"Retry-After": str(RETRY_AFTER_S)}
            except ServeError as exc:
                status, document = 400, {"error": str(exc)}
            except Exception as exc:  # pragma: no cover - defensive 500
                status, document = 500, {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            if admitted:
                gate.release()
        self._note(status)
        self._reply(status, document, headers=headers)

    def _note(self, status: int) -> None:
        self.server.api.note_request(
            self.command, _route_template(urlparse(self.path).path), status
        )

    # -- verbs -------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        parsed = urlparse(self.path)
        api = self.server.api

        if parsed.path == "/metrics":
            # Prometheus exposition is text, not JSON — served outside the
            # JSON dispatch path, with the scraper's expected content type.
            text = api.metrics()
            self._note(200)
            self._reply_text(200, text, METRICS_CONTENT_TYPE)
            return

        def handle() -> Tuple[int, Dict[str, Any]]:
            if parsed.path == "/healthz":
                return 200, api.healthz()
            if parsed.path == "/stats":
                return 200, api.stats()
            if parsed.path == "/sessions":
                return 200, api.sessions()
            match = _SESSION_ROUTE.match(parsed.path)
            if match and match.group("verb") == "firings":
                query = parse_qs(parsed.query)
                raw_since = query.get("since", ["0"])[0]
                try:
                    since = int(raw_since)
                except ValueError:
                    raise ServeError(
                        f"'since' must be an integer cursor, got {raw_since!r}"
                    ) from None
                return 200, api.firings(match.group("sid"), since)
            if match and match.group("verb") is None:
                return 200, api.health(match.group("sid"))
            return 404, {"error": f"no route for GET {parsed.path}"}

        self._dispatch(handle)

    def do_POST(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        api = self.server.api

        def handle(payload: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
            if parsed.path == "/sessions":
                return 201, api.create_session(payload)
            match = _SESSION_ROUTE.match(parsed.path)
            if match and match.group("verb") == "step":
                return 200, api.step(match.group("sid"), payload)
            if match and match.group("verb") == "interactions":
                return 200, api.inject(match.group("sid"), payload)
            return 404, {"error": f"no route for POST {parsed.path}"}

        self._dispatch(handle, gated=True)

    def do_DELETE(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        api = self.server.api

        def handle() -> Tuple[int, Dict[str, Any]]:
            match = _SESSION_ROUTE.match(parsed.path)
            if match and match.group("verb") is None:
                return 200, api.close_session(match.group("sid"))
            return 404, {"error": f"no route for DELETE {parsed.path}"}

        self._dispatch(handle)


class ServeHTTPServer(ThreadingHTTPServer):
    """The service's HTTP front (threading, daemonic handler threads).

    Back-pressure knobs:

    * ``max_inflight`` — at most this many work-creating (POST) requests
      run concurrently; excess requests get an immediate 429 with
      ``Retry-After`` instead of queueing unboundedly.  ``None`` (default)
      disables the gate; ``0`` sheds every POST (useful in tests).
    * ``max_body_bytes`` — requests declaring a larger body are refused
      with 413 before the body is read.  ``None`` disables the cap.

    A body within the cap is read before the admission decision, so a shed
    request leaves its keep-alive connection in sync.  A client silent for
    :data:`BODY_READ_TIMEOUT_S` mid-body gets 408 and a closed connection;
    a stall on the request line or headers is not bounded here.
    """

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        api: ServeAPI,
        verbose: bool = False,
        max_inflight: Optional[int] = None,
        max_body_bytes: Optional[int] = DEFAULT_MAX_BODY_BYTES,
    ):
        super().__init__(address, _Handler)
        self.api = api
        self.verbose = verbose
        if max_inflight is not None and max_inflight < 0:
            raise ValueError(f"max_inflight must be >= 0, got {max_inflight}")
        self.gate = (
            threading.Semaphore(max_inflight) if max_inflight is not None else None
        )
        self.max_body_bytes = max_body_bytes

    @property
    def port(self) -> int:
        return self.server_address[1]

    def serve_in_background(self) -> threading.Thread:
        thread = threading.Thread(
            target=self.serve_forever,
            args=(BACKGROUND_POLL_S,),
            name="repro-serve-http",
            daemon=True,
        )
        thread.start()
        return thread


def make_http_server(
    host: str = "127.0.0.1",
    port: int = 0,
    engine: Optional[SessionEngine] = None,
    verbose: bool = False,
    max_inflight: Optional[int] = None,
    max_body_bytes: Optional[int] = DEFAULT_MAX_BODY_BYTES,
) -> ServeHTTPServer:
    """Build (but do not start) the HTTP front; ``port=0`` picks a free one."""
    return ServeHTTPServer(
        (host, port),
        ServeAPI(engine),
        verbose=verbose,
        max_inflight=max_inflight,
        max_body_bytes=max_body_bytes,
    )
