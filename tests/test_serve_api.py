"""The service ingress (ISSUE 6): dict facade + stdlib HTTP front.

The HTTP tests boot a real :class:`~repro.serve.api.ServeHTTPServer` on an
ephemeral loopback port and talk to it with :mod:`urllib` — no extra
dependencies, same wire format the compose deployment serves.  ``urllib``
opens one connection per request; :class:`TestKeepAlive` drives the front the
way its clients are expected to, many requests down one
:class:`http.client.HTTPConnection`.
"""

import contextlib
import http.client
import json
import socket
import statistics
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.serve import ServeError, SessionEngine
from repro.serve.api import ServeAPI, make_http_server
from tests.test_serve_engine import ECHO_SPEC

MCAM_SPEC = Path(__file__).parent.parent / "examples" / "specs" / "mcam_sessions.estelle"


class TestServeAPI:
    def setup_method(self):
        self.api = ServeAPI(SessionEngine())

    def teardown_method(self):
        self.api.engine.shutdown()

    def test_create_requires_exactly_one_source_field(self):
        with pytest.raises(ServeError, match="exactly one"):
            self.api.create_session({})
        with pytest.raises(ServeError, match="exactly one"):
            self.api.create_session(
                {"spec_text": ECHO_SPEC, "spec_path": str(MCAM_SPEC)}
            )

    def test_create_step_close_round_trip(self):
        sid = self.api.create_session({"spec_path": str(MCAM_SPEC)})["session_id"]
        health = self.api.step(sid, {"rounds": 10_000})
        assert health["stop_reason"] == "quiescent"
        assert self.api.sessions() == {"sessions": [sid]}
        self.api.close_session(sid)
        assert self.api.sessions() == {"sessions": []}

    def test_step_payload_validation(self):
        sid = self.api.create_session({"spec_text": ECHO_SPEC})["session_id"]
        with pytest.raises(ServeError, match="'rounds' must be an integer"):
            self.api.step(sid, {"rounds": "many"})
        with pytest.raises(ServeError, match="'deadline' must be a number"):
            self.api.step(sid, {"deadline": "noon"})

    def test_inject_payload_validation(self):
        sid = self.api.create_session({"spec_text": ECHO_SPEC})["session_id"]
        with pytest.raises(ServeError, match="missing required field 'interaction'"):
            self.api.inject(sid, {"module": "srv", "ip": "ctl"})
        with pytest.raises(ServeError, match="'params' must be an object"):
            self.api.inject(
                sid,
                {"module": "srv", "ip": "ctl", "interaction": "Ping", "params": [1]},
            )

    def test_everything_returned_is_json_serialisable(self):
        sid = self.api.create_session({"spec_text": ECHO_SPEC})["session_id"]
        self.api.inject(sid, {"module": "srv", "ip": "ctl", "interaction": "Ping"})
        for document in (
            self.api.step(sid, {"rounds": 50}),
            self.api.firings(sid, 0),
            self.api.health(sid),
            self.api.stats(),
            self.api.healthz(),
            self.api.close_session(sid),
        ):
            json.dumps(document)  # raises on anything non-serialisable


@contextlib.contextmanager
def serving(**options):
    server = make_http_server(port=0, **options)
    server.serve_in_background()
    try:
        yield server
    finally:
        server.shutdown()
        server.api.engine.shutdown()
        server.server_close()


@pytest.fixture()
def http_server():
    with serving() as server:
        yield server


def request(server, method: str, path: str, payload=None):
    """One JSON round trip; returns (status, decoded body)."""
    body = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=body,
        method=method,
        headers={"Content-Type": "application/json"} if body else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHTTPFront:
    def test_healthz(self, http_server):
        status, body = request(http_server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["active_sessions"] == 0

    def test_full_session_round_trip(self, http_server):
        status, created = request(
            http_server, "POST", "/sessions", {"spec_path": str(MCAM_SPEC)}
        )
        assert status == 201
        sid = created["session_id"]

        status, health = request(
            http_server, "POST", f"/sessions/{sid}/step", {"rounds": 10000}
        )
        assert status == 200
        assert health["stop_reason"] == "quiescent"
        assert health["transitions_fired"] > 0

        status, firings = request(http_server, "GET", f"/sessions/{sid}/firings")
        assert status == 200
        assert firings["cursor"] == len(firings["events"]) > 0

        status, tail = request(
            http_server,
            "GET",
            f"/sessions/{sid}/firings?since={firings['cursor'] - 1}",
        )
        assert status == 200
        assert tail["events"] == firings["events"][-1:]

        status, stats = request(http_server, "GET", "/stats")
        assert status == 200
        assert stats["registry"]["specs"][0]["compile_count"] == 1

        status, _ = request(http_server, "DELETE", f"/sessions/{sid}")
        assert status == 200
        status, listing = request(http_server, "GET", "/sessions")
        assert status == 200 and listing["sessions"] == []

    def test_inject_over_http(self, http_server):
        _, created = request(
            http_server, "POST", "/sessions", {"spec_text": ECHO_SPEC}
        )
        sid = created["session_id"]
        status, body = request(
            http_server,
            "POST",
            f"/sessions/{sid}/interactions",
            {"module": "srv", "ip": "ctl", "interaction": "Ping"},
        )
        assert status == 200 and body["queued"] == 1
        _, health = request(
            http_server, "POST", f"/sessions/{sid}/step", {"rounds": 50}
        )
        assert health["transitions_fired"] == 1

    @pytest.mark.parametrize(
        "payload,fragment",
        [
            # Each of these used to answer 500 (EstelleError, AttributeError
            # and TypeError escaping the ServeError mapping).
            pytest.param(
                {"module": "nope", "ip": "ctl", "interaction": "Ping"},
                "no module at path 'nope'", id="unknown-module-path",
            ),
            pytest.param(
                {"module": "srv/deeper", "ip": "ctl", "interaction": "Ping"},
                "no module at path 'srv/deeper'", id="unknown-child-path",
            ),
            pytest.param(
                {"module": 5, "ip": "ctl", "interaction": "Ping"},
                "'module' must be a string", id="module-5",
            ),
            pytest.param(
                {"module": "srv", "ip": ["x"], "interaction": "Ping"},
                "'ip' must be a string", id="ip-list",
            ),
            pytest.param(
                {"module": "srv", "ip": "ctl", "interaction": {"n": 1}},
                "'interaction' must be a string", id="interaction-object",
            ),
        ],
    )
    def test_inject_answers_400_never_500(self, http_server, payload, fragment):
        _, created = request(http_server, "POST", "/sessions", {"spec_text": ECHO_SPEC})
        inject_path = f"/sessions/{created['session_id']}/interactions"
        status, body = request(http_server, "POST", inject_path, payload)
        assert status == 400, body
        assert fragment in body["error"]
        # The refusal queued nothing, and the session steps as if never asked.
        status, body = request(
            http_server, "POST", inject_path,
            {"module": "srv", "ip": "ctl", "interaction": "Ping"},
        )
        assert status == 200 and body["queued"] == 1
        _, health = request(
            http_server, "POST", f"/sessions/{created['session_id']}/step", {"rounds": 50}
        )
        assert health["transitions_fired"] == 1

    def test_unknown_session_is_404(self, http_server):
        for method, path in (
            ("GET", "/sessions/ghost"),
            ("POST", "/sessions/ghost/step"),
            ("DELETE", "/sessions/ghost"),
        ):
            status, body = request(http_server, method, path, {} if method == "POST" else None)
            assert status == 404, (method, path)
            assert "unknown session" in body["error"]

    def test_bad_requests_are_400(self, http_server):
        status, body = request(http_server, "POST", "/sessions", {})
        assert status == 400
        assert "exactly one" in body["error"]

        _, created = request(http_server, "POST", "/sessions", {"spec_text": ECHO_SPEC})
        status, body = request(
            http_server,
            "POST",
            f"/sessions/{created['session_id']}/step",
            {"rounds": "many"},
        )
        assert status == 400
        assert "'rounds'" in body["error"]

    @pytest.mark.parametrize(
        "payload,status,fragment",
        [
            pytest.param(
                {"spec_text": "specification broken; module"},
                400, "line 1, column", id="syntax-error",
            ),
            pytest.param(
                {"spec_text": "specification broken; module", "filename": "b.estelle"},
                400, "b.estelle:line 1", id="syntax-error-located-in-filename",
            ),
            pytest.param(
                {"spec_path": "/no/such/spec.estelle"},
                400, "/no/such/spec.estelle", id="missing-spec-path",
            ),
            pytest.param(
                {"spec_text": 5}, 400, "'spec_text' must be a string", id="spec-text-5"
            ),
            pytest.param(
                {"spec_path": 5}, 400, "'spec_path' must be a string", id="spec-path-5"
            ),
            pytest.param(
                {"spec_text": ECHO_SPEC, "filename": 7},
                400, "'filename' must be a string", id="filename-7",
            ),
            pytest.param(
                {"spec_text": ECHO_SPEC, "session_id": ["a"]},
                400, "'session_id' must be a string", id="session-id-list",
            ),
            # Used to be created — under an id no URL can address.
            pytest.param(
                {"spec_text": ECHO_SPEC, "session_id": 5},
                400, "'session_id' must be a string", id="session-id-5",
            ),
            # The option is gone (ISSUE 15): the key is one more unknown key.
            pytest.param(
                {"spec_text": ECHO_SPEC, "dispatch": "quantum"},
                201, None, id="dispatch-key-ignored",
            ),
        ],
    )
    def test_create_answers_4xx_never_500(self, http_server, payload, status, fragment):
        got, body = request(http_server, "POST", "/sessions", payload)
        assert got == status, body
        _, listing = request(http_server, "GET", "/sessions")
        if status == 400:
            assert fragment in body["error"]
            assert listing["sessions"] == [], "a refused create holds no session slot"
        else:
            assert listing["sessions"] == [body["session_id"]]

    def test_unroutable_path_is_404(self, http_server):
        status, _ = request(http_server, "GET", "/nope")
        assert status == 404

    def test_invalid_json_body_is_400(self, http_server):
        req = urllib.request.Request(
            f"http://127.0.0.1:{http_server.port}/sessions",
            data=b"{not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        assert excinfo.value.code == 400


class KeepAliveClient:
    """One persistent connection (client ``TCP_NODELAY`` set), JSON both ways."""

    def __init__(self, server):
        self.connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        self.connection.connect()
        self.socket = self.connection.sock
        self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload).encode()
        self.connection.request(
            method, path, body=body,
            headers={"Content-Type": "application/json"} if body else {},
        )
        response = self.connection.getresponse()
        raw = response.read()
        assert response.getheader("Content-Type") == "application/json", raw
        # http.client re-dials silently when the server hung up; every reply
        # here must have come down the connection the test opened.
        assert self.connection.sock is self.socket, "server closed the connection"
        return response.status, json.loads(raw)

    def close(self):
        self.connection.close()


@pytest.fixture()
def client(http_server):
    keep_alive = KeepAliveClient(http_server)
    try:
        yield keep_alive
    finally:
        keep_alive.close()


class TestKeepAlive:
    def test_requests_on_one_connection_do_not_wait_out_a_delayed_ack(self, client):
        seconds = []
        for _ in range(20):
            started = time.perf_counter()
            status, _ = client.request("GET", "/healthz")
            seconds.append(time.perf_counter() - started)
            assert status == 200
        # A reply sent as two small writes with Nagle on reads ~44 ms here.
        assert statistics.median(seconds) < 0.010, seconds

    def test_full_lifecycle_on_one_connection(self, client):
        status, created = client.request("POST", "/sessions", {"spec_path": str(MCAM_SPEC)})
        assert status == 201
        sid = created["session_id"]
        status, health = client.request("POST", f"/sessions/{sid}/step", {"rounds": 10000})
        assert status == 200 and health["stop_reason"] == "quiescent"
        status, firings = client.request("GET", f"/sessions/{sid}/firings?since=0")
        assert status == 200 and firings["cursor"] == len(firings["events"]) > 0
        status, _ = client.request("GET", f"/sessions/{sid}/firings?since={10**9}")
        assert status == 400
        status, _ = client.request("DELETE", f"/sessions/{sid}")
        assert status == 200
        status, listing = client.request("GET", "/sessions")
        assert status == 200 and listing["sessions"] == []

    def test_non_integer_cursor_is_400(self, client):
        _, created = client.request("POST", "/sessions", {"spec_text": ECHO_SPEC})
        status, body = client.request(
            "GET", f"/sessions/{created['session_id']}/firings?since=abc"
        )
        assert status == 400
        assert "'since'" in body["error"]

    def test_shed_request_leaves_the_connection_in_sync(self):
        with serving(max_inflight=0) as server:
            client = KeepAliveClient(server)
            try:
                status, body = client.request("POST", "/sessions", {"spec_text": ECHO_SPEC})
                assert status == 429 and "in-flight" in body["error"]
                # The shed POST's body must not be parsed as the next request.
                status, body = client.request("GET", "/healthz")
                assert status == 200 and body["status"] == "ok"
            finally:
                client.close()

    def test_stalled_body_holds_no_admission_slot(self):
        with serving(max_inflight=1) as server:
            stalled = socket.create_connection(("127.0.0.1", server.port), timeout=10)
            client = KeepAliveClient(server)
            try:
                stalled.sendall(
                    b"POST /sessions HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Type: application/json\r\nContent-Length: 4096\r\n\r\n"
                    b'{"spec_text": "'
                )
                time.sleep(0.2)  # let the server reach the body read
                status, created = client.request("POST", "/sessions", {"spec_text": ECHO_SPEC})
                assert status == 201, created
            finally:
                client.close()
                stalled.close()
