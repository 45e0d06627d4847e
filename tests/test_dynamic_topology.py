"""Dynamic module topology end-to-end (ISSUE 5).

Covers the whole pipe: the Estelle text front-end's ``init`` / ``release``
statements and interaction-point arrays, their lowering onto
``Module.create_child`` / ``release_child``, the structure-epoch driven
planner rebuilds, and the multiprocess backend's dynamic placement rules
(a child created at runtime runs on its parent's execution unit, a released
child is retired from dispatch) — gated, as always, by byte-identical
canonical traces across {in-process, multiprocess} × {table-driven,
generated, planner} on the ``mcam_sessions.estelle`` workload.

Also pins the latent release-mid-round bug: a module released while present
in the already-built round plan must not fire (and must not appear in the
trace).
"""

from pathlib import Path

import pytest

from repro.estelle import Module, ModuleAttribute, Specification, transition
from repro.runtime import (
    GroupedMapping,
    InProcessBackend,
    IncrementalRoundPlanner,
    MultiprocessBackend,
    SpecSource,
    run_specification,
)
from repro.runtime.tracing import trace_diff
from repro.sim import Cluster, Machine

SPEC_DIR = Path(__file__).parent.parent / "examples" / "specs"
SESSIONS_SPEC = SPEC_DIR / "mcam_sessions.estelle"

DISPATCHES = ("table-driven", "generated", "planner")


def build_cluster(processors: int = 2) -> Cluster:
    cluster = Cluster()
    cluster.add(Machine("ksr1", processors))
    cluster.add(Machine("client-ws-1", processors))
    return cluster


# -- the release-mid-round pin --------------------------------------------------------


class Victim(Module):
    ATTRIBUTE = ModuleAttribute.PROCESS
    STATES = ("alive",)

    @transition(from_state="alive", cost=1.0, name="breathe")
    def breathe(self):
        self.variables["breaths"] = self.variables.get("breaths", 0) + 1


class Releaser(Module):
    ATTRIBUTE = ModuleAttribute.PROCESS
    STATES = ("armed", "done")

    @transition(from_state="armed", to_state="done", cost=1.0, name="pull")
    def pull(self):
        # Releasing a *sibling* mid-round: the victim was selected into the
        # same round plan (the shared parent has nothing enabled), so by the
        # time its planned firing comes up it must be skipped, not fired.
        self.parent.release_child("victim")


class Holder(Module):
    ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
    STATES = ("idle",)


def build_release_mid_round_spec() -> Specification:
    spec = Specification("release-mid-round")
    holder = spec.add_system_module(Holder, "holder", location="ksr1")
    # Creation order puts the releaser *before* the victim in the walk, so
    # the plan orders the release firing ahead of the victim's firing.
    holder.create_child(Releaser, "releaser")
    holder.create_child(Victim, "victim")
    spec.register_body_class(Releaser)
    spec.register_body_class(Victim)
    spec.validate()
    return spec


class TestReleaseMidRound:
    @pytest.mark.parametrize("dispatch_name", DISPATCHES)
    def test_released_module_in_current_plan_does_not_fire(self, dispatch_name):
        from repro.runtime import dispatch_by_name

        cluster = Cluster()
        cluster.add(Machine("ksr1", 2))
        spec = build_release_mid_round_spec()
        victim = spec.find("holder/victim")
        _, executor = run_specification(
            spec,
            cluster,
            dispatch=dispatch_by_name(dispatch_name),
            trace=True,
        )
        fired_paths = [e.module_path for e in executor.trace.all_firings()]
        assert "release-mid-round/holder/releaser" in fired_paths
        # The pin: before the fix the victim fired from inside the plan even
        # though it had already been released by the releaser's action.
        assert "release-mid-round/holder/victim" not in fired_paths
        assert victim.released
        assert victim.fired_count == 0

    def test_release_mid_round_planner_matches_table_driven(self):
        from repro.runtime import dispatch_by_name

        reference = None
        for dispatch_name in DISPATCHES:
            cluster = Cluster()
            cluster.add(Machine("ksr1", 2))
            _, executor = run_specification(
                build_release_mid_round_spec(),
                cluster,
                dispatch=dispatch_by_name(dispatch_name),
                trace=True,
            )
            if reference is None:
                reference = executor.trace
            else:
                assert trace_diff(reference, executor.trace) is None, dispatch_name


# -- the mcam_sessions workload -------------------------------------------------------


def sessions_source() -> SpecSource:
    return SpecSource.from_estelle_file(SESSIONS_SPEC)


def sessions_cluster(processors: int = 2) -> Cluster:
    cluster = Cluster()
    for name in ("ksr1", "client-ws-1", "client-ws-2"):
        cluster.add(Machine(name, processors))
    return cluster


class TestMcamSessionsInProcess:
    def test_sessions_spawn_run_and_release(self):
        """The frontend's init/release statements drive create_child /
        release_child: handlers appear under deterministic paths, stream
        paced frames, and are retired when the manager closes the call."""
        result = InProcessBackend().execute(
            sessions_source(), sessions_cluster(), mapping=GroupedMapping()
        )
        assert not result.deadlocked
        fired = [e.module_path for e in result.trace.all_firings()]
        # Deterministic child naming: <var>#<serial>; alice's second call
        # re-inits the released variable, yielding a fresh serial.
        assert "mcam_sessions/mgr/s1#1" in fired
        assert "mcam_sessions/mgr/s2#1" in fired
        assert "mcam_sessions/mgr/s1#2" in fired
        assert len({path for path in fired if "#" in path}) == 3
        closes = [
            e
            for e in result.trace.all_firings()
            if e.transition_name in ("close_1", "close_2")
        ]
        assert len(closes) == 3  # two first calls + alice's second
        # No session fires after its release.
        release_round = {}
        for event in result.trace.all_firings():
            if event.transition_name == "close_1":
                release_round.setdefault("s1", event.round_index)
        s1_rounds = [
            e.round_index
            for e in result.trace.all_firings()
            if e.module_path == "mcam_sessions/mgr/s1#1"
        ]
        assert max(s1_rounds) < release_round["s1"]

    def test_sessions_pace_frames_on_the_clock(self):
        result = InProcessBackend().execute(
            sessions_source(), sessions_cluster(), mapping=GroupedMapping()
        )
        frames = [
            e
            for e in result.trace.all_firings()
            if e.transition_name == "stream_frame"
            and e.module_path == "mcam_sessions/mgr/s1#2"
        ]
        assert len(frames) == 3
        assert all(b.time - a.time >= 1.5 for a, b in zip(frames, frames[1:]))

    def test_dynamic_children_run_on_their_parents_unit(self):
        result = InProcessBackend().execute(
            sessions_source(), sessions_cluster(), mapping=GroupedMapping()
        )
        unit_of_path = {}
        for event in result.trace.all_firings():
            unit_of_path[event.module_path] = (event.unit_id, event.machine)
        manager_unit = unit_of_path["mcam_sessions/mgr"]
        for path, unit in unit_of_path.items():
            if path.startswith("mcam_sessions/mgr/"):
                assert unit == manager_unit, path

    def test_planner_rebuilds_track_structure_epochs(self):
        """The planner-stats assertion of the tentpole: every init/release
        bumps the structure epoch, and the planner's program rebuild count
        tracks the epochs it observed (one initial build + one rebuild per
        bumped-epoch plan)."""
        from repro.runtime import dispatch_by_name
        from repro.runtime.executor import SpecificationExecutor

        specification = sessions_source().build()
        executor = SpecificationExecutor(
            specification,
            sessions_cluster(),
            mapping=GroupedMapping(),
            dispatch=dispatch_by_name("planner"),
            trace=True,
        )
        executor.run()
        assert not executor.deadlocked
        planner = executor.planner
        assert planner is not None
        # 3 inits + 3 releases = 6 structure-epoch bumps on this workload.
        assert planner.tracker.structure_epoch == 6
        # Each bump happened between two plan calls here, so every epoch
        # forced exactly one rebuild (plus the initial program build).
        assert planner.stats.rebuilds == planner.tracker.structure_epoch + 1


class TestMcamSessionsEquivalence:
    def test_both_backends_byte_identical(self):
        in_process = InProcessBackend().execute(
            sessions_source(), sessions_cluster(), mapping=GroupedMapping()
        )
        multiprocess = MultiprocessBackend().execute(
            sessions_source(), sessions_cluster(), mapping=GroupedMapping()
        )
        assert trace_diff(in_process.trace, multiprocess.trace) is None
        assert in_process.simulated_time == multiprocess.simulated_time
        assert not multiprocess.deadlocked
        # Dynamic handlers really executed on the multiprocess backend.
        dynamic = [
            e
            for e in multiprocess.trace.all_firings()
            if "#" in e.module_path
        ]
        assert dynamic

    def test_all_dispatches_agree_with_table_driven(self):
        reference = InProcessBackend().execute(
            sessions_source(),
            sessions_cluster(),
            mapping=GroupedMapping(),
            dispatch="table-driven",
        )
        for dispatch in ("generated", "planner"):
            result = InProcessBackend().execute(
                sessions_source(),
                sessions_cluster(),
                mapping=GroupedMapping(),
                dispatch=dispatch,
            )
            assert trace_diff(reference.trace, result.trace) is None, dispatch
            assert result.simulated_time == reference.simulated_time, dispatch
