"""The mesh coordinator's fold and loop, without spawning a worker.

``_RoundPlanner`` (:mod:`repro.runtime.parallel.fold`) is the one precedence
fold of the multiprocess backend — a relaxed worker runs it too,
``tests/test_worker_runtime.py`` — and
``MultiprocessBackend._run_loop`` the one loop around it (ISSUE 14).  The fold
is fed summaries computed here from a *live* replica the in-process executor
advances, and planned on a second, never-fired replica — as the coordinator's
is — against the interpreted ``Scheduler.plan_round`` walk as the oracle.  The
loop runs over ``test_control_plane``'s stand-in lanes (its ``plane`` fixture:
two units, the test plays the workers): pipes buffer, so a test
pre-loads every reply the workers would send, runs the loop, and then reads
what each lane was sent.
"""

from pathlib import Path

import pytest

from repro.obs import Observability
from repro.runtime import (
    ExecutionTrace,
    Scheduler,
    SimulatedClock,
    SpecificationExecutor,
    SpecSource,
    TableDrivenDispatch,
)
from repro.runtime.parallel import MultiprocessBackend, ParallelExecutionError
from repro.runtime.parallel.backend import _RoundPlanner, _Supervisor
from repro.runtime.parallel.worker import UnitDescriptor
from repro.sim import Cluster, Machine
from tests.test_control_plane import plane, reply  # noqa: F401 - plane is a fixture
from tests.test_dynamic_topology import build_release_mid_round_spec

SPEC_DIR = Path(__file__).parent.parent / "examples" / "specs"
WORKLOADS = ("osi_transfer", "mcam_core")


def build(name):
    return SpecSource.from_estelle_file(SPEC_DIR / f"{name}.estelle").build()


def two_machine_cluster() -> Cluster:
    cluster = Cluster()
    cluster.add(Machine("ksr1", 2))
    cluster.add(Machine("client-ws-1", 2))
    return cluster


def summaries_of(modules):
    """What the workers owning ``modules`` would report: their full shards."""
    dispatch = TableDrivenDispatch()
    summaries = {}
    for module in modules:
        result = dispatch.select(module)
        summaries[module.path] = (
            module.path,
            result.transition.name if result.transition else None,
            result.external,
            module.pending_interactions(),
        )
    return summaries


def firing_list(plan):
    # Not the modelled selection cost: summaries no longer carry it (nothing
    # on the mesh read it; it is the in-process executor's metric).
    return [
        (firing.module.path, firing.result.transition.name)
        for firing in plan.firings
    ]


class TestFold:
    @pytest.mark.parametrize("deltas", (False, True), ids=("full-shards", "deltas"))
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_summaries_fold_to_the_interpreted_plan(self, workload, deltas):
        live = build(workload)
        executor = SpecificationExecutor(live, two_machine_cluster())
        planner = _RoundPlanner(build(workload))
        reported = {}
        rounds = 0
        while True:
            reference = Scheduler().plan_round(live, TableDrivenDispatch())
            summaries = summaries_of(live.modules())
            fed = {
                path: summary
                for path, summary in summaries.items()
                if not deltas or reported.get(path) != summary
            }
            reported = summaries
            assert firing_list(planner.plan(fed)) == firing_list(reference)
            assert planner.has_pending() == (live.pending_interactions() > 0)
            if not executor.step_round():
                break
            rounds += 1
        assert rounds > 5, "the workload quiesced before the fold was exercised"

    def test_shard_that_omits_a_module_names_it(self):
        spec = build("mcam_core")
        summaries = summaries_of(spec.modules())
        del summaries["mcam_core/server"]
        with pytest.raises(
            ParallelExecutionError,
            match=r"no selection summary for module\(s\) \['mcam_core/server'\]",
        ):
            _RoundPlanner(spec).plan(summaries)

    def test_unknown_module_path_is_rejected(self):
        spec = build("mcam_core")
        summaries = summaries_of(spec.modules())
        summaries["mcam_core/ghost"] = ("mcam_core/ghost", None, False, 0)
        with pytest.raises(
            ParallelExecutionError, match="unknown module 'mcam_core/ghost'"
        ):
            _RoundPlanner(spec).plan(summaries)

    def test_unknown_transition_name_is_rejected(self):
        spec = build("mcam_core")
        summaries = summaries_of(spec.modules())
        summaries["mcam_core/server"] = ("mcam_core/server", "levitate", False, 0)
        with pytest.raises(
            ParallelExecutionError,
            match="unknown transition 'levitate' for module 'mcam_core/server'",
        ):
            _RoundPlanner(spec).plan(summaries)

    def test_replayed_init_demands_the_newcomer_and_keeps_the_survivors(self):
        spec = build_release_mid_round_spec()
        planner = _RoundPlanner(spec)
        owner_of = {module.path: 1 for module in spec.modules()}
        planner.plan(summaries_of(spec.modules()))
        holder = "release-mid-round/holder"
        MultiprocessBackend._replay_topology(
            spec, owner_of, planner, [("init", holder, "late", "Victim", ())]
        )
        assert owner_of[f"{holder}/late"] == 1
        with pytest.raises(
            ParallelExecutionError,
            match=rf"no selection summary for module\(s\) \['{holder}/late'\]",
        ):
            planner.plan({})
        # Only the newcomer is owed: every survivor's slot was carried over.
        plan = planner.plan(summaries_of([spec.find(f"{holder}/late")]))
        assert firing_list(plan) == firing_list(
            Scheduler().plan_round(spec, TableDrivenDispatch())
        )
        assert f"{holder}/late" in [path for path, _ in firing_list(plan)]

    def test_masked_roots_are_pinned_and_skipped(self):
        spec = build("osi_transfer")
        roots = list(spec.system_modules())
        masked = [root for root in roots if root.path.endswith("_c2")]
        kept = [root for root in roots if root not in masked]
        assert masked and kept
        planner = _RoundPlanner(spec)
        planner.mask_roots(root.path for root in masked)
        # Nobody reports for a masked root, and the fold does not miss it.
        plan = planner.plan(
            summaries_of(module for root in kept for module in root.walk())
        )
        assert firing_list(plan) == firing_list(
            Scheduler().plan_round(spec, TableDrivenDispatch(), roots=kept)
        )
        assert not plan.empty
        assert firing_list(
            Scheduler().plan_round(spec, TableDrivenDispatch(), roots=masked)
        ), "the masked roots had firings for the walk to skip"


CLIENT, SERVER = "mcam_core/client", "mcam_core/server"
NO_DELTA = (0.0, 0.0, 0, ())


def idle(path):
    return (path, None, False, 0)


def report(plan_index, path, name):
    return (plan_index, path, name, "before", "after", None, 1.0, ())


class TestLoop:
    """Two barrier units, one firing round, then quiescence."""

    def run_loop(self, plane, obs, supervisor, fired_extra=lambda uid: ()):
        spec = build("mcam_core")
        first = summaries_of(spec.modules())
        names = {path: summary[1] for path, summary in first.items()}
        assert names[CLIENT] is not None, "the client opens the session"
        for uid, path in ((1, CLIENT), (2, SERVER)):
            reply(plane, uid, "summaries", 1, ((first[path],), None))
            reports = (report(0, path, names[path]),) if names[path] else ()
            reply(plane, uid, "fired", 1, (reports, NO_DELTA) + fired_extra(uid))
            reply(plane, uid, "summaries", 2, ((idle(path),), None))
        units = {
            uid: UnitDescriptor(uid, machine, 0, (path,))
            for uid, machine, path in ((1, "client-ws-1", CLIENT), (2, "ksr1", SERVER))
        }
        trace = ExecutionTrace(enabled=True)
        outcome = MultiprocessBackend()._run_loop(
            specification=spec,
            owner_of={CLIENT: 1, SERVER: 2},
            unit_by_uid=units,
            relaxed_uids=frozenset(),
            control=plane,
            planner=_RoundPlanner(spec),
            clock=SimulatedClock(),
            trace=trace,
            max_rounds=50,
            metrics=MultiprocessBackend._metrics(obs, 2),
            supervisor=supervisor,
        )
        return outcome, trace

    def test_strict_protocol_is_select_fire_select(self, plane):
        obs = Observability()
        (rounds, fired, deadlocked, stop_reason), trace = self.run_loop(
            plane, obs, supervisor=None
        )
        assert (rounds, deadlocked, stop_reason) == (1, False, "quiescent")
        assert fired == len(trace.all_firings()) >= 1
        for uid in (1, 2):
            commands = plane.processes[uid].commands
            received = []
            while commands.poll():
                received.append(commands.recv())
            # No run_rounds, and no fire after quiescence: the strict
            # protocol has no window to drain.
            assert [command[:2] for command in received] == [
                ("select", 1),
                ("fire", 1),
                ("select", 2),
            ]
        assert received[2][2] == 1.0, "the second select carries the advanced clock"

        def counter(name):
            return obs.registry.counter(name, "").value

        assert counter("repro_parallel_barrier_rounds_total") == 2
        assert counter("repro_parallel_lookahead_rounds_total") == 0

    def test_supervised_fired_payload_reaches_the_checkpoint_store(self, plane):
        obs = Observability()
        supervisor = _Supervisor(None, plane, {}, obs)
        self.run_loop(
            plane, obs, supervisor, fired_extra=lambda uid: (f"checkpoint-{uid}",)
        )
        assert supervisor.checkpoints == {1: "checkpoint-1", 2: "checkpoint-2"}
