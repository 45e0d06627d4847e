"""The mesh's control plane, driven from the worker ends of its real pipes.

``_ControlPlane`` is the one gather of the multiprocess backend (ISSUE 13):
every result a worker sends — in lockstep or streamed — and every way a
worker can fail to send one passes through it.  These tests need no spawned
interpreter: a stand-in context hands the plane real ``Pipe`` lanes and
stand-in processes whose sentinels are pipe ends the test closes to "die",
and the test itself plays the workers.
"""

import multiprocessing
import os
import time

import pytest

from repro.runtime.parallel import ParallelExecutionError
from repro.runtime.parallel.backend import _ControlPlane


class FakeWorker:
    """What the plane needs of a ``Process``; the test is its main loop."""

    def __init__(self, target, args, daemon, name):
        _config, self.commands, self.results, _endpoint = args
        self.name = name
        self.exitcode = None
        self.sentinel, self._alive = os.pipe()

    def start(self):
        pass

    def die(self, exitcode):
        self.exitcode = exitcode
        os.close(self._alive)  # the sentinel reads ready, as a real exit's does

    def is_alive(self):
        return self.exitcode is None

    def join(self, timeout=None):
        if self.is_alive():
            self.die(0)  # obeys the plane's "stop"

    def __del__(self):
        os.close(self.sentinel)
        if self.is_alive():
            os.close(self._alive)


class FakeContext:
    Pipe = staticmethod(multiprocessing.Pipe)
    Process = FakeWorker


@pytest.fixture
def plane():
    control = _ControlPlane(FakeContext(), timeout_s=0.3)
    for uid in (1, 2):
        control.spawn(uid, None, None, f"estelle-unit-{uid}")
    yield control
    control.shutdown()


def reply(plane, uid, kind, round_index, payload=None):
    plane.processes[uid].results.send((kind, round_index, payload))


class TestGather:
    def test_one_payload_per_unit(self, plane):
        plane.broadcast(("select", 3, 0.0))
        assert plane.processes[1].commands.recv() == ("select", 3, 0.0)
        assert plane.processes[2].commands.recv() == ("select", 3, 0.0)
        reply(plane, 2, "summaries", 3, "two")
        reply(plane, 1, "summaries", 3, "one")
        assert plane.gather("summaries", 3, [1, 2]) == {1: "one", 2: "two"}

    def test_streamed_results_wait_their_turn_in_order(self, plane):
        """Unit 2 is relaxed: its lrounds arrive while unit 1 is awaited."""
        reply(plane, 2, "lround", 1, "r1")
        reply(plane, 2, "lround", 2, "r2")
        reply(plane, 1, "summaries", 1, "s1")
        reply(plane, 2, "window_done", 2)
        assert plane.gather("summaries", 1, [1]) == {1: "s1"}
        assert plane.gather("lround", 1, [2]) == {2: "r1"}
        assert plane.gather("lround", 2, [2]) == {2: "r2"}
        assert plane.gather("window_done", 2, [2]) == {2: None}

    def test_streamed_result_out_of_order_is_a_violation(self, plane):
        reply(plane, 2, "lround", 2, "r2")
        reply(plane, 1, "summaries", 1, "s1")
        plane.gather("summaries", 1, [1])
        with pytest.raises(ParallelExecutionError, match="protocol violation"):
            plane.gather("lround", 1, [2])

    def test_unexpected_result_from_a_lockstep_unit_is_a_violation(self, plane):
        reply(plane, 1, "fired", 4, ())
        with pytest.raises(
            ParallelExecutionError,
            match=r"expected 'summaries' for round 5, unit 1 sent 'fired' for round 4",
        ):
            plane.gather("summaries", 5, [1, 2])

    def test_unawaited_unit_may_only_stream(self, plane):
        reply(plane, 2, "summaries", 1, "s2")
        with pytest.raises(ParallelExecutionError, match="protocol violation"):
            plane.gather("summaries", 1, [1])

    def test_duplicate_is_an_error(self, plane):
        reply(plane, 1, "fired", 2, "a")
        reply(plane, 1, "fired", 2, "b")
        with pytest.raises(ParallelExecutionError, match="unit 1 reported 'fired' twice"):
            plane.gather("fired", 2, [1, 2])

    def test_error_payload_surfaces_the_workers_traceback(self, plane):
        reply(plane, 2, "error", -1, "Traceback (most recent call last):\n  boom")
        with pytest.raises(ParallelExecutionError, match=r"unit 2 failed:\nTraceback.*\n  boom"):
            plane.gather("summaries", 1, [1])

    def test_timeout_names_the_units_owed(self, plane):
        reply(plane, 1, "fired", 12, ())
        started = time.perf_counter()
        with pytest.raises(ParallelExecutionError) as excinfo:
            plane.gather("fired", 12, [1, 2])
        assert 0.3 <= time.perf_counter() - started < 1.0
        message = str(excinfo.value)
        assert "timed out after 0.3s waiting for 'fired' of round 12" in message
        assert "still owed by unit 2 (estelle-unit-2)" in message
        assert "unit 1 (" not in message and "1/2 units reported" in message


class TestWorkerDeath:
    def test_result_written_before_the_death_still_counts(self, plane):
        reply(plane, 1, "fired", 7, "last words")
        plane.processes[1].die(-9)
        assert plane.gather("fired", 7, [1]) == {1: "last words"}
        # ... and the death is the first thing the next gather meets.
        with pytest.raises(ParallelExecutionError, match="unit 1.*exit code -9"):
            plane.gather("summaries", 8, [1, 2])

    def test_silent_death_is_raised_at_once_and_names_the_unit(self, plane):
        reply(plane, 1, "summaries", 3, "s1")
        plane.processes[2].die(-9)
        started = time.perf_counter()
        with pytest.raises(ParallelExecutionError) as excinfo:
            plane.gather("summaries", 3, [1, 2])
        # Under the 0.3 s gather timeout, let alone a 1 s poll slice.
        assert time.perf_counter() - started < 0.25
        message = str(excinfo.value)
        assert "worker estelle-unit-2 (unit 2) died with exit code -9" in message
        assert "'summaries' of round 3: still owed by unit 2 (estelle-unit-2)" in message

    def test_death_of_a_streaming_unit_is_noticed_while_others_are_awaited(self, plane):
        plane.processes[2].die(1)
        with pytest.raises(ParallelExecutionError, match="unit 2.*exit code 1.*owed by unit 1"):
            plane.gather("summaries", 1, [1])

    def test_recover_gets_the_dead_unit_and_the_gather_carries_on(self, plane):
        reply(plane, 1, "summaries", 5, "s1")
        plane.processes[2].die(17)
        recovered = []

        def respawn(uid):
            recovered.append((uid, plane.processes[uid].exitcode))
            plane.spawn(uid, None, None, f"estelle-unit-{uid}-respawn1")
            # The replacement boots on the same lane, then answers the
            # re-issued select.
            reply(plane, uid, "ready", 0, 3)
            reply(plane, uid, "summaries", 5, "s2 again")

        got = plane.gather("summaries", 5, [1, 2], recover=respawn)
        assert recovered == [(2, 17)]
        assert got == {1: "s1", 2: "s2 again"}
        assert plane.processes[2].name == "estelle-unit-2-respawn1"

    def test_replacement_inherits_the_unread_commands(self, plane):
        plane.send(2, ("reconnect", 1))
        lane_before = plane.processes[2].commands
        plane.processes[2].die(17)
        plane.spawn(2, None, None, "estelle-unit-2-respawn1")
        assert plane.processes[2].commands is lane_before
        assert plane.processes[2].commands.recv() == ("reconnect", 1)

    def test_a_stray_ready_is_a_violation_without_a_respawn(self, plane):
        reply(plane, 1, "ready", 0, 3)
        with pytest.raises(ParallelExecutionError, match="protocol violation"):
            plane.gather("summaries", 1, [1])
