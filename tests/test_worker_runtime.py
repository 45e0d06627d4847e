"""The worker core, without spawning a process (ISSUE 15).

``WorkerRuntime`` is separate from ``worker_main`` so the round protocol can
be driven in-process; here it is.  The units of a mapping each get a runtime
over one in-process :class:`MpQueueTransport` and the test steps them
alternately, playing the coordinator with the coordinator's own pieces (the
slot fold, ``_build_assignments``, ``_record_reports``).  A *twin* — the same
specification on the in-process executor under the interpreted
``table-driven`` walk — advances in lockstep and is the oracle: round by
round for what a unit plans, byte for byte for the merged trace.
"""

import multiprocessing

import pytest

from repro.estelle.errors import SchedulingError
from repro.runtime import (
    ExecutionTrace,
    GroupedMapping,
    Scheduler,
    SimulatedClock,
    SpecificationExecutor,
    SpecSource,
    TableDrivenDispatch,
    firing_advance,
)
from repro.runtime.parallel import (
    MultiprocessBackend,
    WorkerConfig,
    WorkerRuntime,
    transport_by_name,
)
from repro.runtime.parallel.fold import _RoundPlanner, _root_of
from repro.runtime.parallel.worker import UnitDescriptor
from repro.runtime.tracing import canonical_trace_bytes, trace_diff
from tests.test_parallel_backend import OSI_SPEC, two_machine_cluster

# A desk that spawns a handler per call and retires it again.  {close} is
# what ends a call: a supervision delay (the desk's unit keeps the barrier)
# or the caller's Bye (delay-free: both units may run ahead).
DESK_SRC = """
specification desk;

channel Ctl ( user , desk );
  by user : Call , Bye ;
  by desk : Ack ;
end;

module Desk systemprocess;
  ip line : Ctl ( desk );
end;

module Handler process;
end;

module Caller systemprocess;
  ip line : Ctl ( user );
end;

body HandlerBody for Handler;
  state fresh , busy ;
  trans from fresh to busy
    name start
    cost 1.0
    begin
      worked := 0
    end;
  trans from busy
    provided worked < budget
    name work
    cost 0.5
    begin
      worked := worked + 1
    end;
end;

body DeskBody for Desk;
  state open ;
  initialize to open
  begin
    live := 0
  end;
  trans from open
    when line.Call
    provided live = 0
    name accept
    cost 1.0
    begin
      init h with HandlerBody ( budget := 2 );
      live := 1;
      output line.Ack
    end;
  trans from open
    {close}
    name close
    cost 0.5
    begin
      release h;
      live := 2
    end;
end;

body CallerBody for Caller;
  state idle , waiting , talking , done ;
  initialize to idle
  begin
    chats := 0
  end;
  trans from idle to waiting
    name dial
    cost 0.5
    begin
      output line.Call
    end;
  trans from waiting to talking
    when line.Ack
    name connected
    cost 0.3
    begin
      chats := 0
    end;
  trans from talking
    provided chats < 4
    name chat
    cost 0.2
    begin
      chats := chats + 1
    end;
  trans from talking to done
    provided chats >= 4
    name hang_up
    cost 0.2
    begin
      output line.Bye
    end;
end;

modvar desk : DeskBody at "ksr1" ;
modvar caller : CallerBody at "client-ws-1" ;
connect desk.line to caller.line ;
end.
"""
SUPERVISED_DESK = DESK_SRC.replace("{close}", "provided live = 1\n    delay 6.0")
POLITE_DESK = DESK_SRC.replace("{close}", "when line.Bye\n    provided live = 1")

DESK, HANDLER, CALLER = "desk/desk", "desk/desk/h#1", "desk/caller"

# One firing, three sends across the unit boundary: two on one IP, one on
# another.
FANOUT_SRC = """
specification fanout;

channel Line ( src , dst );
  by src : Data ;
end;

module Sender systemprocess;
  ip a : Line ( src );
  ip b : Line ( src );
end;

module Sink systemprocess;
  ip x : Line ( dst );
  ip y : Line ( dst );
end;

body SenderBody for Sender;
  state ready , sent ;
  initialize to ready
  begin
    n := 0
  end;
  trans from ready to sent
    name burst
    cost 1.0
    begin
      output a.Data ( k := 1 );
      output a.Data ( k := 2 );
      output b.Data ( k := 3 )
    end;
end;

body SinkBody for Sink;
  state idle ;
  initialize to idle
  begin
    n := 0
  end;
end;

modvar sender : SenderBody at "ksr1" ;
modvar sink : SinkBody at "client-ws-1" ;
connect sender.a to sink.x ;
connect sender.b to sink.y ;
end.
"""


class Mesh:
    """One ``WorkerRuntime`` per unit of the grouped mapping, one transport,
    one twin; ``relaxed`` units plan locally, the rest follow the test."""

    def __init__(self, source, cluster, relaxed=False):
        self.twin = SpecificationExecutor(
            source.build(),
            cluster,
            mapping=GroupedMapping(),
            dispatch=TableDrivenDispatch(),
            trace=True,
        )
        self.replica = source.build()
        mapping = GroupedMapping().compute(self.replica, cluster)
        self.units = {
            unit.uid: UnitDescriptor(
                unit.uid, unit.machine, unit.processor_index, tuple(unit.module_paths)
            )
            for unit in mapping.units
        }
        self.owner_of = {
            path: uid for uid, unit in self.units.items() for path in unit.module_paths
        }
        self.transport = transport_by_name("mp-queue")
        self.transport.open(multiprocessing.get_context("spawn"), list(self.units))
        self.runtimes = {}
        for uid in self.units:
            endpoint = self.transport.endpoint_for(uid)
            endpoint.connect()
            self.runtimes[uid] = WorkerRuntime(
                WorkerConfig(
                    source=source,
                    unit_uid=uid,
                    units=tuple(self.units.values()),
                    channel_timeout_s=5.0,
                    relaxed=relaxed,
                ),
                endpoint,
            )
        self.fold = _RoundPlanner(self.replica)
        self.clock = SimulatedClock()
        self.trace = ExecutionTrace(enabled=True)
        self.rounds = 0

    def close(self):
        for runtime in self.runtimes.values():
            runtime.endpoint.close()
        self.transport.close()

    def twin_plan(self, uid):
        """What the interpreted walk plans for the unit's roots, on the twin."""
        own = {_root_of(path) for path in self.units[uid].module_paths}
        roots = [
            root
            for root in self.twin.specification.system_modules()
            if root.path in own
        ]
        plan = Scheduler().plan_round(
            self.twin.specification, TableDrivenDispatch(), roots=roots
        )
        return [(f.module.path, f.result.transition.name) for f in plan.firings]

    def record(self, ordered, replay_uids):
        """One round of merged ``(uid, report)`` onto the trace, as the
        coordinator records it; the twin steps along."""
        self.rounds += 1
        self.trace.start_round(self.rounds)
        costs = MultiprocessBackend()._record_reports(
            self.trace,
            self.rounds,
            ordered,
            self.units,
            self.clock,
            self.replica,
            self.owner_of,
            self.fold,
            replay_uids=replay_uids,
        )
        self.trace.finish_round(makespan=0.0, serial_overhead=0.0)
        self.clock.advance(firing_advance(costs))
        assert self.twin.step_round()

    def select_all(self):
        """Every unit's ``deliver_pending`` + ``select``: ``({uid: reported
        paths}, merged summaries, deadlines)``."""
        reported, summaries, deadlines = {}, {}, []
        for uid, runtime in self.runtimes.items():
            runtime.deliver_pending()
            per_unit, deadline = runtime.select(self.clock.now)
            reported[uid] = [summary[0] for summary in per_unit]
            summaries.update({summary[0]: summary for summary in per_unit})
            if deadline is not None:
                deadlines.append(deadline)
        return reported, summaries, deadlines

    def fire_all(self, plan):
        assignments = MultiprocessBackend._build_assignments(
            plan, self.owner_of, self.runtimes
        )
        ordered = []
        for uid, runtime in self.runtimes.items():
            reports, outgoing = runtime.fire(self.rounds + 1, tuple(assignments[uid]))
            runtime.flush(self.rounds + 1, outgoing)
            ordered.extend((uid, report) for report in reports)
        ordered.sort(key=lambda item: item[1][0])
        self.record(ordered, replay_uids=frozenset(self.runtimes))
        return [(report[1], report[2]) for _, report in ordered]

    def relaxed_round(self):
        """Every unit's ``local_round``; returns ``{uid: (planned, fired)}``."""
        round_index = self.rounds + 1
        planned = {uid: self.twin_plan(uid) for uid in self.runtimes}
        outcome, buckets = {}, {}
        for uid, runtime in self.runtimes.items():
            count, reports, _delta, pending = runtime.local_round(round_index)
            fired = [(report[1], report[2]) for report in reports]
            assert fired == planned[uid], f"unit {uid}, round {round_index}"
            assert count == len(planned[uid])
            outcome[uid] = (count, pending)
            for report in reports:
                buckets.setdefault(_root_of(report[1]), []).append((uid, report))
        if any(count for count, _ in outcome.values()):
            ordered = [
                item
                for root in self.replica.system_modules()
                for item in buckets.get(root.path, [])
            ]
            self.record(ordered, replay_uids=frozenset())
        return outcome

    def assert_trace_is_the_twins(self):
        assert not self.twin.step_round(), "the twin had rounds left"
        assert trace_diff(self.twin.trace, self.trace) is None
        assert canonical_trace_bytes(self.twin.trace) == canonical_trace_bytes(
            self.trace
        )


@pytest.fixture()
def mesh(request):
    meshes = []

    def build(source, cluster=None, relaxed=False):
        meshes.append(Mesh(source, cluster or two_machine_cluster(1), relaxed))
        return meshes[-1]

    yield build
    for built in meshes:
        built.close()


class TestStrictSelect:
    def test_full_shard_then_deltas_then_full_shard_after_an_init(self, mesh):
        built = mesh(SpecSource.from_estelle_text(SUPERVISED_DESK))
        (desk_uid,) = [u for u, unit in built.units.items() if DESK in unit.module_paths]
        (caller_uid,) = set(built.units) - {desk_uid}

        def round_(expect_reported, expect_fired, expect_deadlines=()):
            reported, summaries, deadlines = built.select_all()
            assert reported == expect_reported
            assert deadlines == list(expect_deadlines)
            assert built.fire_all(built.fold.plan(summaries)) == expect_fired

        # Round 1 seeds every slot: both shards, whole.
        round_({desk_uid: [DESK], caller_uid: [CALLER]}, [(CALLER, "dial")])
        # Afterwards only what changed: the Call arrived, the caller fired.
        round_({desk_uid: [DESK], caller_uid: [CALLER]}, [(DESK, "accept")])
        # The init was a structure epoch: the desk's whole (re-shaped) shard
        # again, the supervision timer now in its tracker; the caller, whom
        # the Ack reached, is a one-module delta as before.
        armed = built.clock.now + 6.0
        round_(
            {desk_uid: [DESK, HANDLER], caller_uid: [CALLER]},
            [(HANDLER, "start"), (CALLER, "connected")],
            [armed],
        )
        # Steady state: each unit reports only the module that just fired.
        round_(
            {desk_uid: [HANDLER], caller_uid: [CALLER]},
            [(HANDLER, "work"), (CALLER, "chat")],
            [armed],
        )
        # Run the call out.  Then nothing is left but time: an empty plan
        # with the desk's deadline pending; the jump wakes the desk — and
        # only the desk — through the tracker's deadline index.
        while True:
            reported, summaries, deadlines = built.select_all()
            plan = built.fold.plan(summaries)
            if plan.empty:
                break
            built.fire_all(plan)
        assert deadlines == [armed] and built.clock.now < armed
        built.clock.now = armed
        reported, summaries, deadlines = built.select_all()
        assert reported == {desk_uid: [DESK], caller_uid: []} and deadlines == []
        plan = built.fold.plan(summaries)
        assert built.fire_all(plan) == [(DESK, "close")]
        # The release was a structure epoch too: a full shard of one.
        reported, summaries, deadlines = built.select_all()
        assert reported[desk_uid] == [DESK] and deadlines == []
        assert built.fold.plan(summaries).empty
        built.assert_trace_is_the_twins()


class TestRelaxedLocalRound:
    def run_to_quiescence(self, built, limit=200):
        for _ in range(limit):
            outcome = built.relaxed_round()
            if not any(count for count, _ in outcome.values()):
                return outcome
        raise AssertionError(f"no quiescence within {limit} rounds")

    def test_osi_transfer_round_by_round(self, mesh):
        built = mesh(SpecSource.from_estelle_file(OSI_SPEC), relaxed=True)
        assert len(built.runtimes) == 2
        outcome = self.run_to_quiescence(built)
        assert built.rounds > 20
        assert [pending for _, pending in outcome.values()] == [0, 0]
        built.assert_trace_is_the_twins()

    def test_init_and_release_inside_a_window(self, mesh):
        built = mesh(SpecSource.from_estelle_text(POLITE_DESK), relaxed=True)
        self.run_to_quiescence(built)
        fired = [(e.module_path, e.transition_name) for e in built.trace.all_firings()]
        # The newcomer's slot was filled the round after the init (the fold
        # re-bound to the grown tree), and the fold outlived the release.
        assert fired.index((HANDLER, "start")) > fired.index((DESK, "accept"))
        assert fired.count((HANDLER, "work")) == 2
        assert fired[-1] == (DESK, "close")
        built.assert_trace_is_the_twins()

    def test_pending_interactions_are_reported_with_an_empty_plan(self, mesh):
        from tests.test_parallel_backend import DEADLOCK_SRC

        built = mesh(SpecSource.from_estelle_text(DEADLOCK_SRC), relaxed=True)
        outcome = self.run_to_quiescence(built)
        assert built.rounds == 1
        # Unit of N holds the undeliverable Go: planned 0, pending reported.
        assert sorted(outcome.values()) == [(0, 0), (0, 1)]

    def test_delay_bearing_child_still_trips_the_wire(self, mesh):
        built = mesh(
            SpecSource.from_factory(
                "tests.test_barrier_relaxation:build_delay_spawning_spec"
            ),
            cluster=two_machine_cluster(),
            relaxed=True,
        )
        (runtime,) = built.runtimes.values()
        with pytest.raises(SchedulingError, match="relax_barrier=False"):
            runtime.local_round(1)


class TestRemoteSends:
    def test_one_firings_sends_are_routed_in_send_order(self, mesh):
        built = mesh(SpecSource.from_estelle_text(FANOUT_SRC))
        (sender_uid,) = [
            u for u, unit in built.units.items() if "fanout/sender" in unit.module_paths
        ]
        (sink_uid,) = set(built.units) - {sender_uid}
        runtime = built.runtimes[sender_uid]
        reports, outgoing = runtime.fire(1, ((0, "fanout/sender", "burst", False),))
        assert [(report[1], report[2]) for report in reports] == [
            ("fanout/sender", "burst")
        ]
        routed = [
            (m.plan_index, m.seq, m.target_path, m.ip_name, m.interaction_name, m.params)
            for m in outgoing[sink_uid]
        ]
        assert routed == [
            (0, 0, "fanout/sink", "x", "Data", (("k", 1),)),
            (0, 1, "fanout/sink", "x", "Data", (("k", 2),)),
            (0, 0, "fanout/sink", "y", "Data", (("k", 3),)),
        ]
        # The sender's replica of the sink keeps none of them; the sink's
        # owner enqueues all three once the batch arrives.
        replica = runtime.modules["fanout/sink"]
        assert [len(point.queue) for point in replica.ips.values()] == [0, 0]
        runtime.flush(1, outgoing)
        sink_runtime = built.runtimes[sink_uid]
        sink_runtime.flush(1, sink_runtime.fire(1, ())[1])
        sink_runtime.deliver_pending()
        sink = sink_runtime.modules["fanout/sink"]
        assert {
            name: [interaction.params for interaction in point.queue]
            for name, point in sink.ips.items()
        } == {"x": [{"k": 1}, {"k": 2}], "y": [{"k": 3}]}
