"""Unit and integration tests for the specification executor."""

import pytest

from repro.estelle import Channel, Module, ModuleAttribute, Specification, ip, transition
from repro.estelle.frontend import EstelleSemanticError, EstelleSyntaxError, compile_source
from repro.runtime import (
    CentralisedScheduler,
    DecentralisedScheduler,
    GroupedMapping,
    InProcessBackend,
    SequentialMapping,
    SpecSource,
    SpecificationExecutor,
    TableDrivenDispatch,
    ThreadPerModuleMapping,
    run_specification,
)
from repro.runtime.tracing import canonical_trace_bytes
from repro.sim import Cluster, CostModel, Machine
from tests.helpers import (
    Pinger,
    Ponger,
    build_ping_pong_spec,
    build_worker_spec,
    single_machine_cluster,
)


class TestBasicExecution:
    def test_ping_pong_runs_to_completion(self):
        spec = build_ping_pong_spec(count=3)
        cluster = single_machine_cluster(processors=2)
        metrics, executor = run_specification(spec, cluster, trace=True)
        pinger = spec.find("pinger")
        ponger = spec.find("ponger")
        assert pinger.state == "done"
        assert ponger.state == "stopped"
        assert not executor.deadlocked
        assert metrics.transitions_fired == 3 + 3 + 3 + 1  # pings + pongs + receives + stop
        assert metrics.elapsed_time > 0
        assert spec.pending_interactions() == 0

    def test_worker_pool_completes(self):
        spec = build_worker_spec(workers=3, steps=4)
        cluster = single_machine_cluster(processors=4)
        metrics, _ = run_specification(spec, cluster)
        for index in range(3):
            worker = spec.find(f"pool/worker-{index}")
            assert worker.state == "done"
            assert worker.variables["done_steps"] == 4
        assert metrics.transitions_fired == 12

    def test_max_rounds_limits_execution(self):
        spec = build_worker_spec(workers=1, steps=100)
        cluster = single_machine_cluster()
        executor = SpecificationExecutor(spec, cluster)
        executor.run(max_rounds=5)
        assert executor.metrics.rounds == 5

    def test_quiescent_spec_stops_immediately(self):
        spec = build_worker_spec(workers=2, steps=0)
        cluster = single_machine_cluster()
        metrics, executor = run_specification(spec, cluster)
        assert metrics.rounds == 0
        assert not executor.deadlocked

    def test_trace_records_firings(self):
        spec = build_ping_pong_spec(count=2)
        cluster = single_machine_cluster()
        _, executor = run_specification(spec, cluster, trace=True)
        trace = executor.trace
        assert trace.rounds
        sequence = trace.transition_sequence("ping-pong/pinger")
        assert sequence[0] == "send_ping"
        assert trace.first_round_where("ping-pong/ponger", "answer") is not None
        assert "round 1" in trace.describe(max_rounds=1)

    def test_invalid_spec_rejected_at_construction(self):
        class Broken(Module):
            ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
            STATES = ("a",)

            @transition(from_state="ghost", cost=1.0)
            def t(self):
                pass

        spec = Specification("broken")
        spec.add_system_module(Broken, "b")
        with pytest.raises(Exception):
            SpecificationExecutor(spec, single_machine_cluster())


class TestDeadlockDetection:
    def test_waiting_module_with_no_sender_deadlocks(self):
        channel = Channel("D", a={"Msg"}, b={"Reply"})

        class Waiter(Module):
            ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
            STATES = ("waiting",)
            port = ip("port", channel, role="b")

            @transition(from_state="waiting", when=("port", "Msg"), cost=1.0)
            def on_msg(self, interaction):
                pass

        class Silent(Module):
            ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
            STATES = ("quiet",)
            port = ip("port", channel, role="a")

            @transition(from_state="quiet", to_state="quiet", provided=lambda m: not m.variables.get("sent"), cost=1.0)
            def send_wrong(self):
                # Sends an interaction the waiter is not waiting for.
                self.variables["sent"] = True
                self.output("port", "Msg")

        spec = Specification("dl")
        waiter = spec.add_system_module(Waiter, "waiter")
        silent = spec.add_system_module(Silent, "silent")
        spec.connect(silent.ip_named("port"), waiter.ip_named("port"))
        # Consume nothing: the waiter expects Msg which IS sent, so to build a
        # deadlock we instead disconnect expectations: make the waiter wait on
        # a second port that never receives anything.
        metrics, executor = run_specification(spec, single_machine_cluster())
        # Everything was deliverable here, so no deadlock.
        assert not executor.deadlocked

    def test_pending_but_unconsumable_marks_deadlock(self):
        channel = Channel("D2", a={"Msg"}, b={"Reply"})

        class Waiter(Module):
            ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
            STATES = ("waiting",)
            port = ip("port", channel, role="b")

            @transition(from_state="waiting", when=("port", "Reply"), cost=1.0)
            def on_reply(self, interaction):
                pass  # pragma: no cover - never fires

        class Sender(Module):
            ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
            STATES = ("start", "sent")
            port = ip("port", channel, role="a")

            @transition(from_state="start", to_state="sent", cost=1.0)
            def send(self):
                self.output("port", "Msg")

        spec = Specification("dl2")
        waiter = spec.add_system_module(Waiter, "waiter")
        sender = spec.add_system_module(Sender, "sender")
        spec.connect(sender.ip_named("port"), waiter.ip_named("port"))
        metrics, executor = run_specification(spec, single_machine_cluster())
        assert executor.deadlocked
        assert spec.pending_interactions() == 1


class TestCostAccounting:
    def test_parallel_faster_than_sequential_for_independent_work(self):
        def run(mapping, processors):
            spec = build_worker_spec(workers=4, steps=10)
            cluster = single_machine_cluster(processors=processors)
            metrics, _ = run_specification(spec, cluster, mapping=mapping)
            return metrics

        sequential = run(SequentialMapping(), processors=1)
        parallel = run(ThreadPerModuleMapping(), processors=8)
        assert parallel.elapsed_time < sequential.elapsed_time
        speedup = parallel.speedup_against(sequential)
        assert speedup > 1.5

    def test_thread_per_module_on_few_processors_pays_context_switches(self):
        def run(mapping):
            spec = build_worker_spec(workers=8, steps=10)
            cluster = single_machine_cluster(processors=2)
            metrics, _ = run_specification(spec, cluster, mapping=mapping)
            return metrics

        per_module = run(ThreadPerModuleMapping())
        grouped = run(GroupedMapping())
        assert per_module.context_switch_time > 0
        assert grouped.context_switch_time == 0
        assert grouped.elapsed_time <= per_module.elapsed_time

    def test_centralised_scheduler_serialises_overhead(self):
        def run(scheduler):
            spec = build_worker_spec(workers=6, steps=5)
            cluster = single_machine_cluster(processors=8)
            metrics, _ = run_specification(spec, cluster, scheduler=scheduler)
            return metrics

        central = run(CentralisedScheduler(per_module_cost=0.5))
        decentral = run(DecentralisedScheduler(per_module_cost=0.5))
        assert central.elapsed_time > decentral.elapsed_time
        assert central.scheduler_share > decentral.scheduler_share * 0.5

        def first_round_serial(scheduler):
            _, executor = run_specification(
                build_worker_spec(workers=3, steps=1),
                single_machine_cluster(processors=8),
                scheduler=scheduler,
                dispatch=TableDrivenDispatch(scan_cost=0.0, table_overhead=0.0),
                trace=True,
            )
            return executor.trace.rounds[0].serial_overhead

        # With scanning free: 1 system module + 3 workers examined, all of it
        # serial under the centralised scheduler and none under the other.
        assert first_round_serial(CentralisedScheduler(per_module_cost=1.0)) == pytest.approx(4.0)
        assert first_round_serial(DecentralisedScheduler(per_module_cost=1.0)) == 0.0

    def test_cross_unit_messages_cost_more_than_intra_unit(self):
        cost_model = CostModel(sync_cost=5.0, intra_unit_message_cost=0.01)

        def run(mapping):
            spec = build_ping_pong_spec(count=5)
            cluster = Cluster()
            cluster.add(Machine("m1", 4, cost_model))
            metrics, _ = run_specification(
                spec, cluster, mapping=mapping, cost_model=cost_model
            )
            return metrics

        split = run(ThreadPerModuleMapping())
        together = run(SequentialMapping())
        assert split.messages_cross_unit > 0
        assert together.messages_cross_unit == 0
        assert together.messages_intra_unit > 0
        assert split.sync_time > together.sync_time

    def test_cross_machine_messages_counted(self):
        spec = build_ping_pong_spec(count=2, locations=("m1", "m2"))
        cluster = Cluster()
        cluster.add(Machine("m1", 1))
        cluster.add(Machine("m2", 1))
        metrics, _ = run_specification(spec, cluster)
        assert metrics.messages_cross_machine > 0

    def test_per_processor_busy_recorded(self):
        spec = build_worker_spec(workers=4, steps=3)
        cluster = single_machine_cluster(processors=2)
        metrics, executor = run_specification(spec, cluster)
        assert metrics.per_processor_busy
        machine = cluster.get("m1")
        assert machine.total_busy_time() > 0


class TestDynamicModules:
    def test_dynamically_created_module_inherits_parent_unit(self):
        class Spawner(Module):
            ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
            STATES = ("start", "spawned")

            @transition(from_state="start", to_state="spawned", cost=1.0)
            def spawn(self):
                self.create_child(LateWorker, "late", steps=2)

        class LateWorker(Module):
            ATTRIBUTE = ModuleAttribute.PROCESS
            STATES = ("working", "done")

            def initialise(self):
                super().initialise()
                self.variables.setdefault("steps", 1)
                self.variables["done_steps"] = 0

            @transition(
                from_state="working",
                provided=lambda m: m.variables["done_steps"] < m.variables["steps"],
                cost=1.0,
            )
            def work(self):
                self.variables["done_steps"] += 1
                if self.variables["done_steps"] >= self.variables["steps"]:
                    self.state = "done"

        spec = Specification("dyn")
        spec.add_system_module(Spawner, "spawner", location="m1")
        spec.validate()
        cluster = single_machine_cluster(processors=2)
        metrics, executor = run_specification(spec, cluster)
        late = spec.find("spawner/late")
        assert late.state == "done"
        assert executor.unit_of(late).uid == executor.unit_of(spec.find("spawner")).uid

    def test_remap_picks_up_new_modules(self):
        spec = build_worker_spec(workers=2, steps=1)
        cluster = single_machine_cluster(processors=4)
        executor = SpecificationExecutor(spec, cluster, mapping=ThreadPerModuleMapping())
        pool = spec.find("pool")
        from tests.helpers import Worker

        pool.create_child(Worker, "extra", steps=1)
        executor.remap()
        assert executor.mapping.knows("workers/pool/extra")


# -- ISSUE 6 satellites: stop_reason + the _dynamic_unit leak fix ---------------------


class Ephemeral(Module):
    """A short-lived dynamic child: fires exactly once, then is reapable."""

    ATTRIBUTE = ModuleAttribute.PROCESS
    STATES = ("idle", "done")

    @transition(from_state="idle", to_state="done", cost=1.0)
    def tick(self):
        pass


class Churner(Module):
    """Spawns a uniquely-named child, lets it fire once, releases it.

    The spawn/wait/reap cycle is guard-free (each transition depends only on
    the churner's own state), so it stays inside the dirty-tracking contract
    and the planner drives it as well as the interpreted dispatches do.  The
    child shares the churner's execution unit (one firing per unit per
    round), so ``wait`` carries a delay clause: the round it spends pending
    is the round the child's ``tick`` gets the unit — which is what pulls
    the child into the executor's dynamic-unit map in the first place.
    """

    ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
    STATES = ("empty", "holding", "reaping")

    def initialise(self):
        super().initialise()
        self.variables["serial"] = 0
        self.variables["current"] = ""

    @transition(from_state="empty", to_state="holding", cost=1.0)
    def spawn(self):
        self.variables["serial"] += 1
        name = f"w{self.variables['serial']}"
        self.variables["current"] = name
        self.create_child(Ephemeral, name)

    @transition(from_state="holding", to_state="reaping", delay=1.0, cost=1.0)
    def wait(self):
        pass

    @transition(from_state="reaping", to_state="empty", cost=1.0)
    def reap(self):
        self.release_child(self.variables["current"])


def build_churn_spec() -> Specification:
    spec = Specification("churn")
    spec.add_system_module(Churner, "mgr", location="m1")
    spec.validate()
    return spec


class TestStopReason:
    def test_quiescent_run_reports_quiescent(self):
        spec = build_ping_pong_spec(count=2)
        metrics, executor = run_specification(spec, single_machine_cluster(2))
        assert metrics.stop_reason == "quiescent"
        assert not executor.deadlocked

    def test_exhausted_budget_reports_budget(self):
        spec = build_worker_spec(workers=1, steps=100)
        executor = SpecificationExecutor(spec, single_machine_cluster())
        metrics = executor.run(max_rounds=5)
        assert metrics.rounds == 5
        assert metrics.stop_reason == "budget"

    def test_zero_round_budget_reports_budget(self):
        spec = build_worker_spec(workers=1, steps=1)
        executor = SpecificationExecutor(spec, single_machine_cluster())
        assert executor.run(max_rounds=0).stop_reason == "budget"

    def test_simulated_deadline_reports_deadline(self):
        spec = build_worker_spec(workers=1, steps=100)
        executor = SpecificationExecutor(spec, single_machine_cluster())
        metrics = executor.run(max_rounds=1_000, deadline=3.0)
        assert metrics.stop_reason == "deadline"
        assert executor.clock.now >= 3.0
        # The deadline cut the run short, the budget did not.
        assert metrics.rounds < 100

    def test_deadline_already_passed_runs_nothing(self):
        spec = build_worker_spec(workers=1, steps=5)
        executor = SpecificationExecutor(spec, single_machine_cluster())
        executor.run(max_rounds=100)  # to quiescence; clock > 0
        metrics = executor.run(max_rounds=100, deadline=0.0)
        assert metrics.stop_reason == "deadline"

    def test_quiescence_wins_over_later_deadline(self):
        spec = build_worker_spec(workers=1, steps=2)
        executor = SpecificationExecutor(spec, single_machine_cluster())
        metrics = executor.run(max_rounds=1_000, deadline=1e9)
        assert metrics.stop_reason == "quiescent"

    def test_backend_result_carries_stop_reason(self):
        from repro.runtime import GroupedMapping, InProcessBackend, SpecSource

        cluster = Cluster()
        cluster.add(Machine("m1", 2))
        source = SpecSource.from_factory("tests.helpers:build_ping_pong_spec", count=2)
        exhausted = InProcessBackend().execute(
            source, cluster, mapping=GroupedMapping(), max_rounds=0
        )
        assert exhausted.stop_reason == "budget"
        finished = InProcessBackend().execute(
            source, cluster, mapping=GroupedMapping(), max_rounds=200
        )
        assert finished.stop_reason == "quiescent"


class TestDynamicUnitLeak:
    """The ISSUE 6 leak regression: 10k churn rounds, bounded unit map."""

    CHURN_ROUNDS = 10_000

    @pytest.mark.parametrize("dispatch", ["table-driven", "planner"])
    def test_dynamic_unit_map_stays_bounded_under_churn(self, dispatch):
        from repro.runtime import dispatch_by_name

        spec = build_churn_spec()
        executor = SpecificationExecutor(
            spec,
            single_machine_cluster(processors=2),
            dispatch=dispatch_by_name(dispatch),
        )
        metrics = executor.run(max_rounds=self.CHURN_ROUNDS, stop_when_quiescent=False)
        assert metrics.stop_reason == "budget"
        assert metrics.rounds == self.CHURN_ROUNDS
        mgr = spec.find("mgr")
        # The workload really churned: thousands of init/release cycles
        # (the 4-round cycle is spawn, tick, wait, reap)...
        assert mgr.variables["serial"] >= self.CHURN_ROUNDS // 5
        # ...yet the dynamic-unit map holds at most the one live child (and
        # never the thousands of released ones it accumulated before the fix).
        assert len(executor._dynamic_unit) <= 1, sorted(executor._dynamic_unit)

    def test_eviction_drops_released_child_keeps_live_one(self):
        spec = build_churn_spec()
        executor = SpecificationExecutor(spec, single_machine_cluster(processors=2))
        executor.run(max_rounds=2, stop_when_quiescent=False)  # spawn w1; w1 ticks
        assert "churn/mgr/w1" in executor._dynamic_unit  # child really tracked
        executor.run(max_rounds=2, stop_when_quiescent=False)  # wait; reap w1
        assert "churn/mgr/w1" not in executor._dynamic_unit


COUNTER_TEXT = (
    "specification counter;\nmodule M systemprocess;\nend;\n"
    "body B for M;\n  state run, halt;\n"
    "  initialize to run begin n := 0 end;\n"
    "  trans from run provided n < 3 name tick begin n := n + 1 end;\n"
    "  trans from run to halt provided n >= 3 name stop begin end;\n"
    "end;\nmodvar m : B at 'm1';\nend."
)


@pytest.fixture()
def front_end_runs(monkeypatch):
    """The filename of every front-end run (``parse_source`` as the template
    cache reaches it, through ``compile_template``)."""
    import repro.estelle.frontend as frontend

    runs = []
    real_parse_source = frontend.parse_source

    def recording_parse_source(text, filename="<estelle>"):
        runs.append(filename)
        return real_parse_source(text, filename)

    monkeypatch.setattr(frontend, "parse_source", recording_parse_source)
    return runs


def canonical_run(specification):
    _, executor = run_specification(specification, single_machine_cluster(), trace=True)
    return canonical_trace_bytes(executor.trace)


class TestOneCompiledArtefact:
    """``SpecSource.build()`` lowers each text once per process.  Every test
    here uses a filename no other test builds, since the cache is shared."""

    def test_builds_of_one_text_run_the_front_end_once(self, front_end_runs):
        filename = "<many builds of one text>"
        source = SpecSource.from_estelle_text(COUNTER_TEXT, filename=filename)
        specs = [source.build() for _ in range(5)]
        assert front_end_runs == [filename]
        assert len({id(spec.find("m")) for spec in specs}) == 5
        assert len({type(spec.find("m")) for spec in specs}) == 1
        # Run one tree to the end and poke another: the next build is as fresh
        # as a front-end run of its own.
        canonical_run(specs[0])
        specs[1].find("m").variables["n"] = 99
        specs[1].find("m").state = "halt"
        expected = canonical_run(compile_source(COUNTER_TEXT, filename=filename))
        assert canonical_run(source.build()) == expected
        assert expected.count(b"tick") == 3

    def test_an_edited_file_recompiles(self, tmp_path, front_end_runs):
        path = tmp_path / "edited.estelle"
        path.write_text(COUNTER_TEXT)
        source = SpecSource.from_estelle_file(path)
        assert source.build().name == source.build().name == "counter"
        path.write_text(COUNTER_TEXT.replace("specification counter;", "specification edited;"))
        assert source.build().name == "edited"
        assert front_end_runs == [str(path), str(path)]

    def test_a_broken_text_raises_its_located_error_on_every_build(self, front_end_runs):
        source = SpecSource.from_estelle_text("specification broken; module", filename="broken.estelle")
        errors = []
        for _ in range(2):
            with pytest.raises(EstelleSyntaxError) as raised:
                source.build()
            errors.append(str(raised.value))
        assert errors[0] == errors[1] and errors[0].startswith("broken.estelle:line 1")
        assert front_end_runs == ["broken.estelle", "broken.estelle"]

    def test_texts_differing_only_in_filename_keep_their_own_diagnostics(self):
        text = COUNTER_TEXT.replace("provided n < 3", "provided missing_var < 3")
        for filename in ("first.estelle", "second.estelle"):
            module = SpecSource.from_estelle_text(text, filename=filename).build().find("m")
            with pytest.raises(EstelleSemanticError) as raised:
                TableDrivenDispatch().select(module)
            assert str(raised.value).startswith(f"{filename}:line 7")

    def test_an_engine_after_an_in_process_run_compiles_nothing(self, front_end_runs):
        """The ruler's order: in-process executor runs, then a fresh engine
        whose registry must still report one compile for the text."""
        from repro.serve import SessionEngine

        filename = "<in-process run, then an engine>"
        source = SpecSource.from_estelle_text(COUNTER_TEXT, filename=filename)
        for _ in range(2):
            result = InProcessBackend().execute(
                source, single_machine_cluster(), mapping=GroupedMapping(), dispatch="planner"
            )
            assert result.transitions_fired == 4
        with SessionEngine() as engine:
            for _ in range(2):
                engine.create_session(source)
            (entry,) = engine.registry.stats()["specs"]
        assert entry["compile_count"] == 1 and entry["instantiations"] == 2
        assert front_end_runs == [filename]
