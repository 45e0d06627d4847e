"""Driver of the ``serve_*`` workloads: the HTTP service, from outside.

The system under test is ``python -m repro.serve --port 0`` as a subprocess.
Two keep-alive connections, one thread each, drive it closed-loop: a session
owner waits for each reply before issuing its next request.  One op is one
session lifecycle (create, step to quiescence, read the firing stream,
delete); its firing stream must equal the event list of the same text run
in-process under ``dispatch="table-driven"`` — compared as Python objects
between lifecycles (2 ms for 7056 events; hashing a canonical JSON form took
29 ms of the client's interpreter lock per session).

The client sets ``TCP_NODELAY`` so its own header/body writes are not held
back by Nagle: whatever per-request floor shows up is the server's.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.runtime import InProcessBackend, SpecSource
from repro.runtime.parallel.trace import CANONICAL_FIELDS, firing_tuple

from execdrive import cluster_of
from spans import NULL_RECORDER
from workloads import Workload

CONNECTIONS = 2
REQUEST_TIMEOUT_S = 30.0
STARTUP_TIMEOUT_S = 30.0
SHUTDOWN_TIMEOUT_S = 10.0
SRC_DIR = Path(__file__).resolve().parents[2] / "src"


class ServerProcess:
    """``python -m repro.serve --port 0``, started, health-checked and reaped."""

    def __init__(self) -> None:
        self.port: Optional[int] = None
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR), PYTHONUNBUFFERED="1")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            self.port = self._read_port()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.process.stdout], [], [], STARTUP_TIMEOUT_S)
        if not ready:
            raise TimeoutError(f"repro.serve printed nothing within {STARTUP_TIMEOUT_S}s")
        line = self.process.stdout.readline().decode()
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if not match:
            raise RuntimeError(f"repro.serve did not announce a port: {line!r}")
        return int(match.group(1))

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while True:
            try:
                with Client(self.port) as client:
                    if client.request("GET", "/healthz")[0] == 200:
                        return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise TimeoutError("repro.serve /healthz did not answer")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> List[str]:
        """Stop and reap the server; returns what outlived it (should be [])."""
        leaks: List[str] = []
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(SHUTDOWN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(SHUTDOWN_TIMEOUT_S)
                leaks.append("repro.serve ignored SIGINT and was killed")
        self.process.stdout.close()
        if self.port is not None:
            try:
                socket.create_connection(("127.0.0.1", self.port), timeout=1.0).close()
                leaks.append(f"port {self.port} still accepts connections after shutdown")
            except OSError:
                pass
        return leaks


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int, recorder=NULL_RECORDER) -> None:
        self.port = port
        self.recorder = recorder
        self._connect()

    def _connect(self) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request(self, method: str, path: str, document: Optional[dict] = None, op: Optional[int] = None) -> Tuple[int, bytes, float]:
        """``(status, body, client-side seconds)``; reconnects after a failure."""
        body = json.dumps(document).encode() if document is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        route = re.sub(r"/s-\d+", "/{id}", path.split("?")[0])
        started = time.perf_counter()
        try:
            with self.recorder.span(f"{method} {route}", "api", op=op):
                self.conn.request(method, path, body=body, headers=headers)
                response = self.conn.getresponse()
                payload = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self._connect()
            raise
        return response.status, payload, time.perf_counter() - started

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RequestFailed(Exception):
    pass


def _json(client: Client, method: str, path: str, document: Optional[dict], latencies: Dict[str, List[float]], kind: str, op: Optional[int]):
    status, payload, seconds = client.request(method, path, document, op=op)
    if not 200 <= status < 300:
        raise RequestFailed(f"{method} {path} -> {status}: {payload[:200]!r}")
    latencies[kind].append(seconds)
    return json.loads(payload), len(payload)


def lifecycle(
    client: Client,
    workload: Workload,
    text_index: int,
    latencies: Dict[str, List[float]],
    op: Optional[int] = None,
    max_steps: Optional[int] = None,
) -> Tuple[List[dict], List[int]]:
    """One session of ``workload.texts[text_index]`` from ``POST /sessions`` to
    ``DELETE``.

    Returns ``(the firing stream's events, reply sizes of the cursor reads)``.  ``workload.stream_each_step`` reads the cursor after every step
    (bulk traffic); otherwise the stream is read once, after quiescence (call
    control).  ``max_steps`` cuts the session short (probes only).
    """
    step_rounds, text = workload.step_rounds, workload.texts[text_index]
    created, _ = _json(client, "POST", "/sessions", {"spec_text": text}, latencies, "create", op)
    sid = created["session_id"]
    events: List[dict] = []
    sizes: List[int] = []
    cursor = 0
    steps = 0
    try:
        while True:
            health, _ = _json(client, "POST", f"/sessions/{sid}/step", {"rounds": step_rounds}, latencies, "step", op)
            steps += 1
            done = health["quiescent"] or (max_steps is not None and steps >= max_steps)
            if workload.stream_each_step or done:
                reply, size = _json(client, "GET", f"/sessions/{sid}/firings?since={cursor}", None, latencies, "firings", op)
                events += reply["events"]
                cursor = reply["cursor"]
                sizes.append(size)
            if done:
                break
    finally:
        _json(client, "DELETE", f"/sessions/{sid}", None, latencies, "delete", op)
    return events, sizes


@dataclass
class ServeWindow:
    """What one measured window produced, merged over the connections."""

    session_walls: List[float] = field(default_factory=list)
    #: per second, summed over the connections: each connection's count
    #: divided by the time *it* was active.  A connection finishes the
    #: lifecycle it is in when the window closes, so dividing the total by one
    #: shared wall would charge the tail one connection runs alone at half
    #: the load (up to a whole lifecycle: 9 % of a 10 s bulk window).
    events_per_s: float = 0.0
    sessions_per_s: float = 0.0
    attempted: int = 0
    errors: List[str] = field(default_factory=list)
    latencies: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    reply_sizes: List[int] = field(default_factory=list)


def _connection_loop(port: int, workload: Workload, oracles: List[List[dict]], connection: int, seconds: float, recorder, window: ServeWindow, lock: threading.Lock, max_ops: Optional[int]) -> None:
    attempted = completed = events = 0
    started = time.perf_counter()
    with Client(port, recorder) as client:
        while True:
            # Each connection walks the seeded order from its own offset.
            position = connection * (len(workload.order) // CONNECTIONS) + attempted
            index = workload.order[position % len(workload.order)]
            latencies: Dict[str, List[float]] = defaultdict(list)
            op = connection * 1_000_000 + attempted
            attempted += 1
            began = time.perf_counter()
            error = None
            try:
                stream, sizes = lifecycle(client, workload, index, latencies, op=op)
                if stream != oracles[index]:
                    error = f"connection {connection} session {attempted}: firing stream differs from the oracle's event list"
            except (RequestFailed, OSError, http.client.HTTPException, ValueError, KeyError) as exc:
                error = f"connection {connection} session {attempted}: {type(exc).__name__}: {exc}"
            now = time.perf_counter()
            with lock:
                window.attempted += 1
                for kind, values in latencies.items():
                    window.latencies[kind] += values
                if error is not None:
                    window.errors.append(error)
                else:
                    events += len(stream)
                    completed += 1
                    window.session_walls.append(now - began)
                    window.reply_sizes += sizes
            if now - started >= seconds or (max_ops and attempted >= max_ops):
                break
    with lock:
        window.events_per_s += events / (now - started)
        window.sessions_per_s += completed / (now - started)


def run_window(port: int, workload: Workload, oracles: List[List[dict]], seconds: float, recorder=NULL_RECORDER, max_ops: Optional[int] = None) -> ServeWindow:
    """``CONNECTIONS`` closed-loop session owners for ``seconds`` (each
    finishes the lifecycle it is in, so every counted op is complete, and
    compares its firing stream with ``oracles[text index]``)."""
    window = ServeWindow()
    lock = threading.Lock()
    threads = [
        threading.Thread(
            target=_connection_loop,
            args=(port, workload, oracles, connection, seconds, recorder, window, lock, max_ops),
            name=f"ruler-connection-{connection}",
        )
        for connection in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 4 * REQUEST_TIMEOUT_S)
        if thread.is_alive():
            window.errors.append(f"{thread.name} did not finish")
    return window


def oracle_events(workload: Workload, corrupt: bool = False):
    """``(event list per text, error strings)``: each text run in-process,
    interpreted, on what the service builds for a session — one 2-processor
    machine per placement location in sorted order, default mapping
    (docs/SERVE.md)."""
    oracles: List[List[dict]] = []
    errors: List[str] = []
    for text, expected in zip(workload.texts, workload.expected_firings):
        result = InProcessBackend().execute(
            SpecSource.from_estelle_text(text),
            cluster_of(sorted(workload.machines)),
            dispatch="table-driven",
            max_rounds=100_000,
        )
        if expected is not None and result.transitions_fired != expected:
            errors.append(f"generator: oracle fired {result.transitions_fired}, closed form says {expected}")
        events = [dict(zip(CANONICAL_FIELDS, firing_tuple(e))) for e in result.trace.all_firings()]
        if corrupt:  # test hook: a wrong oracle must fail every op
            events = events[:-1]
        # The stream is JSON: tuples and floats must compare as the client saw them.
        oracles.append(json.loads(json.dumps(events)))
    return oracles, errors


def compile_counts(client: Client) -> List[int]:
    status, payload, _ = client.request("GET", "/stats")
    if status != 200:
        raise RequestFailed(f"GET /stats -> {status}")
    return [spec["compile_count"] for spec in json.loads(payload)["registry"]["specs"]]


def verify(workload: Workload, windows: List[ServeWindow], counts: List[int]):
    """``(failed ops, error strings)``: the windows' own failures (a stream
    that differed from the oracle's is one) and the registry's contract —
    each distinct text compiled exactly once."""
    errors = [error for window in windows for error in window.errors]
    if sorted(counts) != [1] * len(workload.texts):
        errors.append(f"registry compile counts {counts}, expected 1 per distinct text ({len(workload.texts)})")
    return len(errors), errors


def scrape(text: str, name: str, **labels: str) -> float:
    """Sum of the samples of series ``name`` whose labels include ``labels``."""
    total = 0.0
    for line in text.splitlines():
        # Greedy: a route label such as "/sessions/{id}/step" contains braces.
        match = re.match(rf"{re.escape(name)}(\{{.*\}})? (\S+)$", line)
        if match and all(f'{k}="{v}"' in (match.group(1) or "") for k, v in labels.items()):
            total += float(match.group(2))
    return total
