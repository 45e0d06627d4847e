"""Unit and integration tests for the incremental fused round planner.

Covers the three layers of ISSUE 3's tentpole: dirty tracking at the
``repro.estelle`` mutation points, the generated whole-specification planner
program (fused walk + inlined per-class selection), and the wiring through
both execution backends under the ``"planner"`` dispatch name.
"""

from pathlib import Path

import pytest

from repro.estelle import (
    Channel,
    DirtyTracker,
    Module,
    ModuleAttribute,
    Specification,
    ip,
    transition,
)
from repro.runtime import (
    DecentralisedScheduler,
    GroupedMapping,
    InProcessBackend,
    IncrementalRoundPlanner,
    PlannerDispatch,
    SpecSource,
    TableDrivenDispatch,
    compile_plan_program,
    dispatch_by_name,
)
from repro.runtime.parallel import trace_diff
from repro.runtime.planner import _generate, _shape_of, plan_code_cache_info
from repro.sim import Cluster, Machine

SPEC_DIR = Path(__file__).parent.parent / "examples" / "specs"

PING_PONG = Channel("PingPong", left={"Ping"}, right={"Pong"})


def _has_token(m):
    return m.variables.get("tokens", 0) > 0


class Ticker(Module):
    ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
    STATES = ("run",)

    @transition(from_state="run", provided=_has_token, cost=1.0, name="tick")
    def tick(self):
        self.variables["tokens"] -= 1


class ChildTicker(Ticker):
    ATTRIBUTE = ModuleAttribute.PROCESS


class Pinger(Module):
    ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
    STATES = ("start", "wait")
    port = ip("port", PING_PONG, role="left")

    @transition(from_state="start", to_state="wait", cost=1.0)
    def send_ping(self):
        self.output("port", "Ping")

    @transition(from_state="wait", to_state="start", when=("port", "Pong"), cost=1.0)
    def got_pong(self, msg):
        self.variables["pongs"] = self.variables.get("pongs", 0) + 1


class Ponger(Module):
    ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
    STATES = ("idle",)
    port = ip("port", PING_PONG, role="right")

    @transition(from_state="idle", when=("port", "Ping"), cost=1.0)
    def reply(self, msg):
        self.output("port", "Pong")


def ticker_spec(count: int = 3, tokens: int = 2) -> Specification:
    spec = Specification("tickers")
    for index in range(count):
        spec.add_system_module(Ticker, f"t{index}", tokens=tokens)
    spec.validate()
    return spec


def ping_pong_spec() -> Specification:
    spec = Specification("pingpong")
    pinger = spec.add_system_module(Pinger, "pinger", location="ksr1")
    ponger = spec.add_system_module(Ponger, "ponger", location="client-ws-1")
    spec.connect(pinger.ip_named("port"), ponger.ip_named("port"))
    spec.validate()
    return spec


def firing_pairs(plan):
    return [
        (
            f.module.path,
            f.result.transition.name if f.result.transition else None,
        )
        for f in plan.firings
    ]


class TestDirtyTracker:
    def test_firing_marks_the_module(self):
        spec = ticker_spec(count=1)
        tracker = DirtyTracker.attach(spec)
        module = spec.find("t0")
        assert tracker.drain() == set()
        module.declared_transitions()[0].fire(module)
        assert tracker.drain() == {module}
        assert tracker.drain() == set()  # drained

    def test_enqueue_and_consume_mark_the_owner(self):
        spec = ping_pong_spec()
        tracker = DirtyTracker.attach(spec)
        pinger, ponger = spec.find("pinger"), spec.find("ponger")
        pinger.output("port", "Ping")
        assert ponger in tracker.drain()  # enqueue marks the receiver
        ponger.ip_named("port").consume()
        assert ponger in tracker.drain()  # consume marks the owner

    def test_structure_epoch_bumps_on_create_and_release(self):
        spec = ticker_spec(count=1)
        tracker = DirtyTracker.attach(spec)
        parent = spec.find("t0")
        epoch = tracker.structure_epoch

        class Leaf(Module):
            ATTRIBUTE = ModuleAttribute.PROCESS
            STATES = ("s",)

        parent.create_child(Leaf, "leaf")
        assert tracker.structure_epoch == epoch + 1
        parent.release_child("leaf")
        assert tracker.structure_epoch == epoch + 2

    def test_dynamic_children_inherit_the_hooks(self):
        spec = ticker_spec(count=1)
        tracker = DirtyTracker.attach(spec)
        child = spec.find("t0").create_child(ChildTicker, "late", tokens=1)
        tracker.drain()
        child.declared_transitions()[0].fire(child)
        assert child in tracker.drain()

    def test_no_tracker_means_no_overhead_hooks(self):
        spec = ticker_spec(count=1)
        assert spec.find("t0")._dirty_hook is None


class TestFusedPlanProgram:
    def test_source_is_inspectable_and_unrolled(self):
        spec = ping_pong_spec()
        program = compile_plan_program(spec)
        assert "def _walk(R, out):" in program.source
        assert "def _eval_0(R):" in program.source
        assert "pingpong/pinger" in program.source  # walk comments name paths
        # No interpreted recursion: the walk is straight-line over R slots.
        assert "_select_subtree" not in program.source
        assert program.modules == (spec.find("pinger"), spec.find("ponger"))

    def test_walk_matches_scheduler_on_activity_exclusivity(self):
        class System(Module):
            ATTRIBUTE = ModuleAttribute.SYSTEMACTIVITY
            STATES = ("s",)

        class Child(Module):
            ATTRIBUTE = ModuleAttribute.ACTIVITY
            STATES = ("run",)

            @transition(from_state="run", provided=_has_token, cost=1.0)
            def tick(self):
                self.variables["tokens"] -= 1

        spec = Specification("activities")
        system = spec.add_system_module(System, "sys")
        system.create_child(Child, "a", tokens=1)
        system.create_child(Child, "b", tokens=1)
        spec.validate()

        planner = IncrementalRoundPlanner(spec)
        plan = planner.plan_round()
        rescan = DecentralisedScheduler().plan_round(spec, TableDrivenDispatch())
        # Activity exclusivity: only the first enabled child subtree fires.
        assert (
            firing_pairs(plan)
            == firing_pairs(rescan)
            == [("activities/sys/a", "tick")]
        )


def _uncommented(source: str) -> str:
    """Generated text with the header and the per-instance path notes cut."""
    return "\n".join(
        line.split("  # ")[0] for line in source.split("\n")[1:]
    )


class TestShapeKeyedPrograms:
    def test_equal_shapes_with_different_serials_share_one_entry(self):
        spec = ticker_spec(count=2, tokens=0)
        parent = spec.find("t0")
        parent.create_child(ChildTicker, "s1#1", tokens=1)
        first = compile_plan_program(spec)
        parent.release_child("s1#1")
        parent.create_child(ChildTicker, "s1#2", tokens=1)
        before = plan_code_cache_info()
        second = compile_plan_program(spec)
        after = plan_code_cache_info()
        # A hit hands out the very same function objects: nothing was
        # generated, compiled or exec'd for the re-dialled child.
        assert second.shape is first.shape
        assert (after["hits"], after["misses"]) == (before["hits"] + 1, before["misses"])
        assert "tickers/t0/s1#1" in first.source
        assert "tickers/t0/s1#2" in second.source and "s1#1" not in second.source
        # ... and each runs against its own modules, not the first instance's.
        plan = []
        second.shape.evaluate(range(len(second.modules)), second)
        second.shape.walk(second, plan)
        assert [firing.module.path for firing in plan] == ["tickers/t0/s1#2"]

    def test_different_shapes_never_share_an_entry(self):
        def program(build):
            spec = ticker_spec(count=2, tokens=0)
            build(spec)
            return compile_plan_program(spec)

        flat = program(lambda spec: None)
        under_t0 = program(lambda spec: spec.find("t0").create_child(ChildTicker, "c"))
        under_t1 = program(lambda spec: spec.find("t1").create_child(ChildTicker, "c"))
        walk_only = compile_plan_program(ticker_spec(count=2, tokens=0), with_evaluators=False)
        programs = (flat, under_t0, under_t1, walk_only)
        assert len({id(p.shape) for p in programs}) == len(programs)
        assert len({_uncommented(p.source) for p in programs}) == len(programs)

    def test_the_key_determines_the_generated_text(self):
        """The text is generated from the key alone; what an instance shows
        as ``source`` is that text plus its own paths, nothing else."""
        for spec_name in ("mcam_sessions.estelle", "osi_transfer.estelle"):
            spec = SpecSource.from_estelle_file(SPEC_DIR / spec_name).build()
            program = compile_plan_program(spec)
            nodes, _ = _shape_of(program.modules)
            regenerated = _generate((nodes, 0.08, 0.15, True))
            assert regenerated is not program.shape  # built apart from the cache
            assert "\n".join(regenerated.lines) == _uncommented(program.source)
            assert spec.name not in "\n".join(regenerated.lines)
            assert not any(module.name in line for module in program.modules
                           for line in regenerated.lines)

    def test_call_churn_compiles_a_constant_number_of_programs(self):
        """``mcam_sessions`` inits and releases a handler per call: however
        many calls one executor serves, the tree only ever takes the shapes
        {no call, s1, s2, both}, so at most four programs are generated."""
        from repro.runtime import SpecificationExecutor

        text = (SPEC_DIR / "mcam_sessions.estelle").read_text()
        for name, calls in (("alice", 12), ("bob", 10)):
            anchor = f'with calls_wanted := {2 if name == "alice" else 1} ;'
            assert text.count(anchor) == 1
            text = text.replace(anchor, f"with calls_wanted := {calls} ;")
        cluster = Cluster()
        for machine in ("ksr1", "client-ws-1", "client-ws-2"):
            cluster.add(Machine(machine, 1))
        executor = SpecificationExecutor(
            SpecSource.from_estelle_text(text).build(),
            cluster,
            dispatch=dispatch_by_name("planner"),
        )
        before = plan_code_cache_info()
        executor.run()
        after = plan_code_cache_info()
        stats = executor.planner.stats
        assert stats.rebuilds >= 2 * 22  # an init and a release per call
        lookups = (after["hits"] + after["misses"]) - (before["hits"] + before["misses"])
        assert lookups == stats.rebuilds
        assert after["misses"] - before["misses"] <= 4


class TestIncrementalRoundPlanner:
    def test_structure_epoch_keeps_surviving_selections(self):
        spec = ticker_spec(count=4, tokens=0)
        planner = IncrementalRoundPlanner(spec)
        planner.plan_round()
        kept = {m: planner.program.results[i] for i, m in enumerate(planner.program.modules)}
        evaluated = planner.stats.evaluated
        spec.find("t0").create_child(ChildTicker, "late", tokens=1)
        plan = planner.plan_round()
        assert firing_pairs(plan) == [("tickers/t0/late", "tick")]
        # Only the parent the structure hook marked and the newcomer ran.
        assert planner.stats.evaluated == evaluated + 2
        program = planner.program
        for module in ("t1", "t2", "t3"):
            survivor = spec.find(module)
            assert program.results[program.index_of[survivor]] is kept[survivor]

    @pytest.mark.parametrize("count,tokens", [(5, 3), (64, 40), (1024, 40)])
    def test_reuses_clean_selections(self, count, tokens):
        spec = ticker_spec(count=count, tokens=0)
        driver = spec.find("t0")
        driver.variables["tokens"] = tokens
        planner = IncrementalRoundPlanner(spec)

        plan = planner.plan_round()  # round 1: everything evaluated
        assert planner.stats.evaluated == count
        while not plan.empty:
            for firing in plan.firings:
                firing.result.transition.fire(firing.module)
            plan = planner.plan_round()
        # Subsequent rounds re-evaluated only the firing driver module.
        assert planner.stats.reused == tokens * (count - 1)
        assert planner.stats.evaluated == count + tokens  # initial sweep + one per firing
        assert driver.variables["tokens"] == 0
        if count >= 64:
            # A sparse population: nearly every selection is a reuse.
            assert planner.stats.reuse_ratio > 0.9

    def test_examined_accounting_reports_only_reevaluated_modules(self):
        spec = ticker_spec(count=4, tokens=0)
        spec.find("t0").variables["tokens"] = 2
        planner = IncrementalRoundPlanner(spec)
        first = planner.plan_round()
        assert first.examined_modules == 4
        for firing in first.firings:
            firing.result.transition.fire(firing.module)
        second = planner.plan_round()
        assert second.examined_modules == 1
        assert list(second.examined_costs) == ["tickers/t0"]

    def test_invalidate_forces_full_reevaluation(self):
        spec = ticker_spec(count=3)
        planner = IncrementalRoundPlanner(spec)
        planner.plan_round()
        planner.invalidate()
        planner.plan_round()
        assert planner.stats.evaluated == 6

    def test_out_of_band_mutation_needs_mark_dirty(self):
        spec = ticker_spec(count=2, tokens=0)
        planner = IncrementalRoundPlanner(spec)
        assert planner.plan_round().empty
        module = spec.find("t0")
        module.variables["tokens"] = 1  # outside the tracked mutation points
        assert planner.plan_round().empty  # stale by contract
        planner.mark_dirty(module)
        assert firing_pairs(planner.plan_round()) == [("tickers/t0", "tick")]

    def test_structure_change_rebuilds_the_program(self):
        spec = ticker_spec(count=2, tokens=0)
        planner = IncrementalRoundPlanner(spec)
        planner.plan_round()
        rebuilds = planner.stats.rebuilds
        spec.find("t0").create_child(ChildTicker, "late", tokens=1)
        plan = planner.plan_round()
        assert planner.stats.rebuilds == rebuilds + 1
        assert firing_pairs(plan) == [("tickers/t0/late", "tick")]

    def test_quiescent_rounds_evaluate_nothing(self):
        spec = ticker_spec(count=3, tokens=0)
        planner = IncrementalRoundPlanner(spec)
        assert planner.plan_round().empty
        evaluated = planner.stats.evaluated
        assert planner.plan_round().empty
        assert planner.stats.evaluated == evaluated  # no dirty, no work


class TestPlannerDispatchWiring:
    def test_planner_dispatch_is_registered(self):
        assert isinstance(dispatch_by_name("planner"), PlannerDispatch)

    @pytest.mark.parametrize(
        "spec_name", ["mcam_core.estelle", "osi_transfer.estelle"]
    )
    def test_in_process_planner_trace_equals_table_driven(self, spec_name):
        source = SpecSource.from_estelle_file(SPEC_DIR / spec_name)

        def cluster():
            built = Cluster()
            built.add(Machine("ksr1", 2))
            built.add(Machine("client-ws-1", 2))
            return built

        reference = InProcessBackend().execute(
            source, cluster(), mapping=GroupedMapping(), dispatch="table-driven"
        )
        planner = InProcessBackend().execute(
            source, cluster(), mapping=GroupedMapping(), dispatch="planner"
        )
        assert trace_diff(reference.trace, planner.trace) is None
        assert planner.rounds == reference.rounds
        # The planner's incremental accounting never examines more than the
        # full rescan would (and strictly less once any module idles).
        assert planner.metrics.scheduler_time <= reference.metrics.scheduler_time

    def test_executor_routes_planning_through_the_planner(self):
        from repro.runtime import SpecificationExecutor

        source = SpecSource.from_estelle_file(SPEC_DIR / "mcam_core.estelle")
        cluster = Cluster()
        cluster.add(Machine("ksr1", 1))
        cluster.add(Machine("client-ws-1", 1))
        executor = SpecificationExecutor(
            source.build(), cluster, dispatch=dispatch_by_name("planner")
        )
        assert executor.planner is not None
        executor.run()
        assert executor.planner.stats.rounds >= executor.metrics.rounds
        table = SpecificationExecutor(
            source.build(), cluster, dispatch=dispatch_by_name("table-driven")
        )
        assert table.planner is None
