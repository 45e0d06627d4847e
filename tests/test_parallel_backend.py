"""The multiprocess backend's acceptance tests: byte-identical firing traces.

The contract under test (ISSUE 2): ``MultiprocessBackend`` must produce
byte-identical canonical firing traces to ``InProcessBackend`` on the same
specification — same rounds, same firings, same order, same state changes,
same costs, same unit placement, same simulated times — on the three
reference workloads (``mcam_core.estelle``, ``osi_transfer.estelle`` and
the delay-driven ``xmovie_stream.estelle``).  The mesh plans one way (dirty
deltas, generated selectors, the slot fold — ISSUE 15), so each mesh run is
one cell, held to the in-process ``table-driven`` trace; that the in-process
dispatches agree among themselves is ``test_obs_equivalence``'s and the
fuzzer's matrix.
"""

import multiprocessing
import os
import threading
from pathlib import Path

import pytest

from repro.estelle.errors import SchedulingError
from repro.runtime import (
    GroupedMapping,
    InProcessBackend,
    MultiprocessBackend,
    SpecSource,
    ThreadPerModuleMapping,
    backend_by_name,
)
from repro.runtime.tracing import canonical_trace_bytes, trace_diff, traces_equal
from repro.sim import Cluster, Machine
from tests.helpers import osi_by_connection

SPEC_DIR = Path(__file__).parent.parent / "examples" / "specs"
MCAM_SPEC = SPEC_DIR / "mcam_core.estelle"
OSI_SPEC = SPEC_DIR / "osi_transfer.estelle"
XMOVIE_SPEC = SPEC_DIR / "xmovie_stream.estelle"

DEADLOCK_SRC = """
specification stuck;
channel C ( a , b );
  by a : Go ;
  by b : Never ;
end;
module M systemprocess;
  ip p : C ( a );
end;
body MB for M;
  state s , t ;
  trans from s to t name push begin output p.Go end;
  trans from t name starve when p.Never begin a := 1 end;
end;
module N systemprocess;
  ip p : C ( b );
end;
body NB for N;
  state idle ;
end;
modvar m : MB at "ksr1" ;
modvar n : NB at "client-ws-1" ;
connect m.p to n.p ;
end.
"""


def build_dynamic_spec():
    """A specification whose transition creates (and later releases) a child
    module at runtime (importable factory: spawn-started workers rebuild it
    by reference).  ``Child`` is registered on the specification so the
    multiprocess coordinator can replay the worker-reported init event."""
    from repro.estelle import Module, ModuleAttribute, Specification, transition

    class Child(Module):
        ATTRIBUTE = ModuleAttribute.PROCESS
        STATES = ("s",)

        @transition(
            from_state="s",
            provided=lambda self: self.variables.get("worked", 0) < 2,
            cost=0.5,
            name="work",
        )
        def work(self):
            self.variables["worked"] = self.variables.get("worked", 0) + 1

    class Spawner(Module):
        ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
        STATES = ("idle", "spawned", "cleaned")

        @transition(from_state="idle", to_state="spawned", cost=1.0)
        def spawn(self):
            self.create_child(Child, "late", worked=0)

        # Supervised release after 5.0 units of simulated time (the child's
        # bounded work fits inside the window; parent precedence keeps this
        # module quiet while the timer runs, so the child gets its rounds).
        @transition(
            from_state="spawned", to_state="cleaned", delay=5.0, cost=1.0
        )
        def cleanup(self):
            self.release_child("late")

    spec = Specification("dynamic")
    spec.add_system_module(Spawner, "spawner", location="ksr1")
    spec.register_body_class(Child)
    spec.validate()
    return spec


def build_unregistered_dynamic_spec():
    """Like :func:`build_dynamic_spec` but without registering ``Child``."""
    spec = build_dynamic_spec()
    spec.body_classes.pop("Child", None)
    return spec


def two_machine_cluster(processors: int = 2) -> Cluster:
    cluster = Cluster()
    cluster.add(Machine("ksr1", processors))
    cluster.add(Machine("client-ws-1", processors))
    return cluster


def run_both(source, cluster, **kwargs):
    in_process = InProcessBackend().execute(source, cluster, **kwargs)
    multiprocess = MultiprocessBackend().execute(source, cluster, **kwargs)
    return in_process, multiprocess


class TestSpecSource:
    def test_estelle_file_source_builds(self):
        spec = SpecSource.from_estelle_file(MCAM_SPEC).build()
        assert spec.module_count() == 2

    def test_estelle_text_source_builds(self):
        spec = SpecSource.from_estelle_text(DEADLOCK_SRC).build()
        assert spec.module_count() == 2

    def test_factory_source_builds(self):
        source = SpecSource.from_factory(
            "repro.osi:build_transfer_specification", connections=1, data_requests=2
        )
        spec = source.build()
        assert spec.module_count() > 2

    def test_factory_reference_must_be_dotted(self):
        with pytest.raises(ValueError, match="package.module:callable"):
            SpecSource.from_factory("not_a_reference")

    def test_sources_compare_by_value(self):
        assert SpecSource.from_estelle_file(MCAM_SPEC) == SpecSource.from_estelle_file(
            str(MCAM_SPEC)
        )


class TestBackendRegistry:
    def test_both_backends_registered(self):
        assert isinstance(backend_by_name("in-process"), InProcessBackend)
        assert isinstance(backend_by_name("multiprocess"), MultiprocessBackend)

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(ValueError, match="multiprocess"):
            backend_by_name("quantum")


class TestInProcessBackend:
    def test_matches_plain_executor_trace(self):
        from repro.runtime import run_specification

        source = SpecSource.from_estelle_file(MCAM_SPEC)
        result = InProcessBackend().execute(
            source, two_machine_cluster(), mapping=GroupedMapping()
        )
        _, executor = run_specification(
            source.build(), two_machine_cluster(), mapping=GroupedMapping(), trace=True
        )
        assert traces_equal(result.trace, executor.trace)
        assert result.metrics is not None
        assert result.rounds == result.metrics.rounds


class TestMultiprocessEquivalence:
    def test_mcam_traces_byte_identical(self):
        in_process, multiprocess = run_both(
            SpecSource.from_estelle_file(MCAM_SPEC),
            two_machine_cluster(1),
            mapping=GroupedMapping(),
        )
        assert multiprocess.workers == 2
        assert trace_diff(in_process.trace, multiprocess.trace) is None
        assert canonical_trace_bytes(in_process.trace) == canonical_trace_bytes(
            multiprocess.trace
        )
        assert multiprocess.rounds == in_process.rounds
        assert multiprocess.transitions_fired == in_process.transitions_fired
        assert not multiprocess.deadlocked

    def test_osi_transfer_traces_byte_identical(self):
        # One worker per module: 12 workers outnumber the host's CPUs, so
        # they time-slice, which may cost speed but never bytes.
        in_process, multiprocess = run_both(
            SpecSource.from_estelle_file(OSI_SPEC),
            two_machine_cluster(2),
            mapping=ThreadPerModuleMapping(),
        )
        assert multiprocess.workers == 12
        assert trace_diff(in_process.trace, multiprocess.trace) is None
        assert canonical_trace_bytes(in_process.trace) == canonical_trace_bytes(
            multiprocess.trace
        )
        # The workload actually transfers: 6 data units per connection, two
        # connections, each unit through 5 hops.
        consumed = [
            e
            for e in multiprocess.trace.all_firings()
            if e.transition_name == "consume"
        ]
        assert len(consumed) == 12

    def test_osi_transfer_one_unit_per_machine_byte_identical(self):
        in_process, multiprocess = run_both(
            SpecSource.from_estelle_file(OSI_SPEC),
            two_machine_cluster(1),
            mapping=GroupedMapping(),
        )
        assert multiprocess.workers == 2
        assert trace_diff(in_process.trace, multiprocess.trace) is None

    def test_xmovie_delay_traces_byte_identical(self):
        """The delay-driven workload (ISSUE 4): simulated time — including
        the clock jumps over empty delay-waiting rounds — must be derived
        identically by the coordinator and the in-process executor, down to
        the FiringEvent.time bytes in the canonical trace."""
        in_process, multiprocess = run_both(
            SpecSource.from_estelle_file(XMOVIE_SPEC),
            two_machine_cluster(1),
            mapping=GroupedMapping(),
        )
        assert multiprocess.workers == 2
        assert trace_diff(in_process.trace, multiprocess.trace) is None
        assert in_process.simulated_time == multiprocess.simulated_time
        assert not multiprocess.deadlocked
        frames = [
            e
            for e in multiprocess.trace.all_firings()
            if e.transition_name == "send_frame"
        ]
        assert len(frames) == 8
        assert all(b.time - a.time >= 3.0 for a, b in zip(frames, frames[1:]))

    @pytest.mark.parametrize(
        "spec_path,mapping,workers",
        [
            pytest.param(MCAM_SPEC, GroupedMapping(), 2, id="mcam"),
            pytest.param(OSI_SPEC, GroupedMapping(), 4, id="osi"),
            pytest.param(XMOVIE_SPEC, GroupedMapping(), 2, id="xmovie"),
            pytest.param(OSI_SPEC, osi_by_connection(), 4, id="osi-by-connection"),
        ],
    )
    def test_two_processors_per_machine_byte_identical(self, spec_path, mapping, workers):
        """Workers re-evaluate only their dirty shard and report summary
        deltas; the coordinator folds them through the fused walk (ISSUE 3).
        The trace must be byte-identical to the in-process planner's — the
        same deltas, selectors and walk in one process — and to the
        table-driven and generated walks'."""
        source = SpecSource.from_estelle_file(spec_path)
        multiprocess = MultiprocessBackend().execute(
            source, two_machine_cluster(2), mapping=mapping
        )
        assert multiprocess.workers == workers
        for dispatch in ("planner", "table-driven", "generated"):
            reference = InProcessBackend().execute(
                source,
                two_machine_cluster(2),
                mapping=mapping,
                dispatch=dispatch,
            )
            assert trace_diff(reference.trace, multiprocess.trace) is None, dispatch

    def test_deadlock_detected_identically(self):
        in_process, multiprocess = run_both(
            SpecSource.from_estelle_text(DEADLOCK_SRC),
            two_machine_cluster(1),
            mapping=GroupedMapping(),
        )
        assert in_process.deadlocked and multiprocess.deadlocked
        assert trace_diff(in_process.trace, multiprocess.trace) is None
        assert multiprocess.rounds == 1  # the single push, then starvation

    def test_max_rounds_truncates_identically(self):
        in_process, multiprocess = run_both(
            SpecSource.from_estelle_file(OSI_SPEC),
            two_machine_cluster(1),
            mapping=GroupedMapping(),
            max_rounds=5,
        )
        assert in_process.rounds == multiprocess.rounds == 5
        assert trace_diff(in_process.trace, multiprocess.trace) is None

    def test_busy_work_does_not_change_the_trace(self):
        in_process, multiprocess = run_both(
            SpecSource.from_estelle_file(MCAM_SPEC),
            two_machine_cluster(1),
            mapping=GroupedMapping(),
            busy_work_us_per_cost=50.0,
        )
        assert trace_diff(in_process.trace, multiprocess.trace) is None
        assert in_process.wall_seconds > 0 and multiprocess.wall_seconds > 0


class TestMultiprocessDiagnostics:
    def test_dynamic_module_creation_is_trace_identical(self):
        """Dynamic topology (ISSUE 5): a runtime ``init`` places the child
        on its parent's execution unit and registers it in the worker's
        shard; the later ``release`` retires it — with traces byte-identical
        to the in-process backend's full rescan."""
        source = SpecSource.from_factory(
            "tests.test_parallel_backend:build_dynamic_spec"
        )
        in_process, multiprocess = run_both(
            source,
            two_machine_cluster(1),
            mapping=GroupedMapping(),
        )
        assert trace_diff(in_process.trace, multiprocess.trace) is None
        fired = [e.module_path for e in multiprocess.trace.all_firings()]
        assert fired.count("dynamic/spawner/late") == 2  # the child really ran
        assert "dynamic/spawner" in fired
        assert not multiprocess.deadlocked

    def test_unregistered_dynamic_class_is_a_clear_error(self):
        """A hand-built spec whose runtime ``init`` uses a class that was
        never registered must fail with a pointer to register_body_class,
        not diverge silently."""
        source = SpecSource.from_factory(
            "tests.test_parallel_backend:build_unregistered_dynamic_spec"
        )
        with pytest.raises(SchedulingError, match="register_body_class"):
            MultiprocessBackend().execute(
                source, two_machine_cluster(1), mapping=GroupedMapping()
            )

    def test_empty_mapping_rejected(self):
        class NullMapping(GroupedMapping):
            def compute(self, specification, cluster):
                from repro.runtime.mapping import SystemMapping

                return SystemMapping([])

        with pytest.raises(SchedulingError, match="no execution units"):
            MultiprocessBackend().execute(
                SpecSource.from_estelle_file(MCAM_SPEC),
                two_machine_cluster(1),
                mapping=NullMapping(),
            )


def build_external_spec():
    """A specification with a hand-coded (EXTERNAL) body (importable factory)."""
    from repro.estelle import Channel, Module, ModuleAttribute, Specification, ip

    channel = Channel("Ext", a={"Poke"}, b={"Ack"})

    class Hand(Module):
        ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
        EXTERNAL = True
        port = ip("port", channel, role="a")

        def external_step(self):
            return 1.0

    class Plain(Module):
        ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
        port = ip("port", channel, role="b")

    spec = Specification("external")
    hand = spec.add_system_module(Hand, "hand", location="ksr1")
    plain = spec.add_system_module(Plain, "plain", location="client-ws-1")
    spec.connect(hand.ip_named("port"), plain.ip_named("port"))
    spec.validate()
    return spec


class TestMultiprocessPreconditions:
    def test_external_modules_rejected_up_front(self):
        """EXTERNAL bodies may exchange state through shared in-process
        objects (e.g. the ISODE broker); the backend must refuse them with a
        clear message instead of silently diverging."""
        source = SpecSource.from_factory("tests.test_parallel_backend:build_external_spec")
        with pytest.raises(SchedulingError, match="EXTERNAL"):
            MultiprocessBackend().execute(
                source, two_machine_cluster(1), mapping=GroupedMapping()
            )

    def test_unknown_dispatch_name_fails_before_any_spawn(self, monkeypatch):
        """The mesh runs no dispatch strategy, but ``dispatch=`` is the
        shared backend signature: a name the registry lacks must raise what
        it raises in-process, at entry — not after every worker was spawned."""
        from repro.runtime.parallel import backend

        spawned = []
        monkeypatch.setattr(
            backend._ControlPlane,
            "spawn",
            lambda self, uid, config, endpoint, name: spawned.append(name),
        )
        source = SpecSource.from_estelle_file(MCAM_SPEC)
        for execute in (InProcessBackend().execute, MultiprocessBackend().execute):
            with pytest.raises(
                ValueError, match="unknown dispatch strategy 'quantum'; choose from"
            ):
                execute(
                    source,
                    two_machine_cluster(1),
                    mapping=GroupedMapping(),
                    dispatch="quantum",
                )
        assert spawned == []

    def test_restricted_mesh_still_trace_identical_on_two_connections(self):
        """End to end: the connectivity-derived mesh (c1 and c2 units never
        linked) must not change the byte-identical equivalence.  One worker
        per module keeps the two connections' units apart; over tcp each
        link is a socket, and the 12 workers outnumber the host's CPUs."""
        source = SpecSource.from_estelle_file(OSI_SPEC)
        in_process = InProcessBackend().execute(
            source, two_machine_cluster(2), mapping=ThreadPerModuleMapping()
        )
        multiprocess = MultiprocessBackend(transport="tcp").execute(
            source, two_machine_cluster(2), mapping=ThreadPerModuleMapping()
        )
        assert multiprocess.workers == 12
        assert trace_diff(in_process.trace, multiprocess.trace) is None


class TestMultiprocessLeaves:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="counts descriptors via /proc"
    )
    @pytest.mark.parametrize("transport", ["mp-queue", "tcp"])
    def test_back_to_back_runs_leave_nothing_behind(self, transport):
        """Lanes are pipes and pipes are descriptors: twenty ``execute()``
        calls must return the process's open descriptors, threads and child
        processes to where the first call left them."""

        def census():
            return (
                len(os.listdir("/proc/self/fd")),
                threading.active_count(),
                len(multiprocessing.active_children()),
            )

        source = SpecSource.from_estelle_file(MCAM_SPEC)
        backend = MultiprocessBackend(transport=transport)

        def run():
            return backend.execute(
                source, two_machine_cluster(1), mapping=GroupedMapping(), max_rounds=3
            )

        first = run()
        baseline = census()
        for _ in range(20):
            assert traces_equal(run().trace, first.trace)
        assert census() == baseline
