"""Tests for the optimizing code generator and the generated dispatch strategy."""

import pytest

from repro.estelle import Channel, Module, ModuleAttribute, ip, transition
from repro.estelle.transition import ANY_STATE
from repro.runtime import (
    GeneratedDispatchStrategy,
    HardCodedDispatch,
    TableDrivenDispatch,
    compile_module_class,
    compile_specification,
    dispatch_by_name,
    run_specification,
)
from tests.helpers import build_ping_pong_spec, build_worker_spec, single_machine_cluster
from tests.test_runtime_executor import COUNTER_TEXT

CH = Channel("C", a={"Msg", "Other"}, b={"Reply"})


class Receiver(Module):
    ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
    STATES = ("idle", "busy")
    INITIAL_STATE = "idle"
    port = ip("port", CH, role="b")

    @transition(from_state="idle", to_state="busy", when=("port", "Msg"), cost=1.0)
    def on_msg(self, interaction):
        pass

    @transition(from_state="idle", when=("port", "Other"), cost=1.0)
    def on_other(self, interaction):
        pass

    @transition(from_state="busy", provided=lambda m: m.variables.get("go", False), cost=1.0)
    def guarded(self):
        pass

    @transition(from_state="*", when=("port", "Other"), priority=5, cost=1.0)
    def wildcard(self, interaction):
        pass


class Sender(Module):
    ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
    STATES = ("s",)
    port = ip("port", CH, role="a")


class ExternalBody(Module):
    ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
    EXTERNAL = True
    port = ip("port", CH, role="b")

    def external_step(self):
        self.ip_named("port").consume()
        return 1.0


def connected_receiver():
    receiver, sender = Receiver("r"), Sender("s")
    sender.ip_named("port").connect_to(receiver.ip_named("port"))
    return receiver, sender


class TestGeneratedSelection:
    def test_matches_table_driven_choice(self):
        receiver, sender = connected_receiver()
        generated, table = GeneratedDispatchStrategy(), TableDrivenDispatch()
        # nothing queued: neither strategy fires
        assert generated.select(receiver).transition is table.select(receiver).transition is None
        sender.output("port", "Msg")
        chosen = generated.select(receiver)
        assert chosen.transition.name == "on_msg"
        assert chosen.transition is table.select(receiver).transition

    def test_skips_candidates_whose_interaction_is_absent(self):
        receiver, sender = connected_receiver()
        sender.output("port", "Other")
        generated, table = GeneratedDispatchStrategy(), TableDrivenDispatch()
        generated_result = generated.select(receiver)
        table_result = table.select(receiver)
        assert generated_result.transition is table_result.transition
        assert generated_result.transition.name == "on_other"
        # The table examines 'on_msg' first; the generated indexing skips it.
        assert generated_result.examined < table_result.examined

    def test_never_costs_more_than_table_driven(self):
        receiver, sender = connected_receiver()
        generated = GeneratedDispatchStrategy(scan_cost=0.08)
        table = TableDrivenDispatch(scan_cost=0.08)
        for setup in (lambda: None, lambda: sender.output("port", "Msg")):
            setup()
            assert generated.select(receiver).cost <= table.select(receiver).cost

    def test_priority_order_preserved(self):
        receiver, sender = connected_receiver()
        receiver.state = "busy"
        sender.output("port", "Other")
        # wildcard (priority 5) is the only match in 'busy' with Other queued.
        assert GeneratedDispatchStrategy().select(receiver).transition.name == "wildcard"
        receiver.variables["go"] = True
        # guarded (priority 0) now outranks wildcard, as with the table.
        generated = GeneratedDispatchStrategy().select(receiver).transition
        table = TableDrivenDispatch().select(receiver).transition
        assert generated is table
        assert generated.name == "guarded"

    def test_undeclared_state_falls_back_to_wildcard_row(self):
        receiver, sender = connected_receiver()
        receiver.state = "undeclared-at-runtime"
        sender.output("port", "Other")
        generated = GeneratedDispatchStrategy().select(receiver)
        table = TableDrivenDispatch().select(receiver)
        assert generated.transition is table.transition
        assert generated.transition.name == "wildcard"

    def test_external_module_handling(self):
        ext, sender = ExternalBody("e"), Sender("s")
        sender.ip_named("port").connect_to(ext.ip_named("port"))
        strategy = GeneratedDispatchStrategy()
        assert not strategy.select(ext).fires
        sender.output("port", "Msg")
        result = strategy.select(ext)
        assert result.fires and result.external and result.transition is None


class TestGeneratedArtifacts:
    def test_source_contains_specialized_rows_and_guards(self):
        compiled = compile_module_class(Receiver)
        source = compiled.source
        assert "_ROWS" in source
        assert "'Msg'" in source and "'Other'" in source
        assert "_RAW[0]" in source  # the hand-written lambda guard is bound
        assert set(compiled.rows) == {"idle", "busy", ANY_STATE}

    def test_rows_match_table_driven_rows(self):
        compiled = compile_module_class(Receiver)
        table = TableDrivenDispatch()
        receiver = Receiver("r")
        for state in ("idle", "busy"):
            receiver.state = state
            assert list(compiled.row_for(state)) == table.candidates(receiver)

    def test_stateless_class_compiles(self):
        compiled = compile_module_class(Sender)
        sender = Sender("s")
        assert compiled.select(sender) == (None, 0)

    def test_compile_specification_prepopulates_cache(self):
        spec = build_ping_pong_spec()
        program = compile_specification(spec)
        assert set(program.artifacts) == {"Pinger", "Ponger"}
        assert "def _select" in program.source()
        pinger_class = type(spec.find("pinger"))
        assert program.artifact_for(pinger_class).module_class is pinger_class
        # The artifact is the one stored on the class: every later compile,
        # by any strategy or planner, returns the same object.
        assert pinger_class.__dict__["_generated_dispatch"] is program.artifact_for(pinger_class)
        assert compile_module_class(pinger_class) is program.artifact_for(pinger_class)


class TestGeneratedOnFullRuns:
    @pytest.mark.parametrize("build", [build_ping_pong_spec, build_worker_spec])
    def test_same_firing_sequence_as_table_driven(self, build):
        def trace_with(dispatch):
            metrics, executor = run_specification(
                build(), single_machine_cluster(processors=4), dispatch=dispatch, trace=True
            )
            sequence = [
                (e.module_path, e.transition_name, e.state_before, e.state_after,
                 e.interaction_name)
                for e in executor.trace.all_firings()
            ]
            return metrics, sequence

        generated_metrics, generated_sequence = trace_with(GeneratedDispatchStrategy())
        table_metrics, table_sequence = trace_with(TableDrivenDispatch())
        assert generated_sequence == table_sequence
        assert generated_metrics.transitions_fired == table_metrics.transitions_fired
        assert generated_metrics.dispatch_time <= table_metrics.dispatch_time

    def test_faster_than_table_and_hardcoded_on_ping_pong(self):
        results = {}
        for name in ("hard-coded", "table-driven", "generated"):
            metrics, _ = run_specification(
                build_ping_pong_spec(count=5),
                single_machine_cluster(processors=2),
                dispatch=dispatch_by_name(name),
            )
            results[name] = metrics
        assert results["generated"].dispatch_time <= results["table-driven"].dispatch_time


class TestCompiledGuardDiagnostics:
    def test_undefined_variable_raises_located_error_like_interpreter(self):
        """Compiled guards must not degrade the interpreter's diagnostics."""
        from repro.estelle.frontend import EstelleSemanticError, compile_source

        source = (
            "specification x;\nmodule M systemprocess;\nend;\n"
            "body B for M;\n  state s;\n"
            "  trans from s provided missing_var > 0 name bad begin end;\nend;\n"
            "modvar i : B at 'm';\nend."
        )

        def select_with(strategy):
            module = compile_source(source).find("i")
            return strategy.select(module)

        with pytest.raises(EstelleSemanticError) as interpreted:
            select_with(TableDrivenDispatch())
        with pytest.raises(EstelleSemanticError) as generated:
            select_with(GeneratedDispatchStrategy())
        assert "undefined variable 'missing_var'" in str(generated.value)
        assert generated.value.line == interpreted.value.line


class TestFactoryRegistration:
    def test_generated_registered(self):
        strategy = dispatch_by_name("generated")
        assert isinstance(strategy, GeneratedDispatchStrategy)
        assert strategy.name == "generated"

    def test_kwargs_forwarded(self):
        strategy = dispatch_by_name("generated", scan_cost=0.5, generated_overhead=0.0)
        assert strategy.scan_cost == 0.5
        assert strategy.overhead == 0.0

    def test_unknown_name_lists_generated(self):
        with pytest.raises(ValueError) as excinfo:
            dispatch_by_name("telepathic")
        assert "generated" in str(excinfo.value)


@pytest.fixture()
def selector_compiles(monkeypatch):
    """The classes a selector is generated for, one entry per generation."""
    from repro.runtime import codegen

    compiled = []
    real_state_rows = codegen.state_rows

    def recording_state_rows(module_class):
        compiled.append(module_class)
        return real_state_rows(module_class)

    monkeypatch.setattr(codegen, "state_rows", recording_state_rows)
    return compiled


class TestOneSelectorPerClass:
    """A selector is compiled once per module class and stored on it."""

    def test_compiled_once_across_strategies_and_sessions(self, selector_compiles):
        from repro.runtime import PlannerDispatch, SpecSource
        from repro.serve import SessionEngine

        source = SpecSource.from_estelle_text(COUNTER_TEXT, filename="<one selector per class>")
        body_class = type(source.build().find("m"))
        for strategy in (GeneratedDispatchStrategy(), PlannerDispatch()):
            assert strategy.select(source.build().find("m")).transition.name == "tick"
        with SessionEngine() as engine:
            for _ in range(2):
                health = engine.run_to_quiescence(engine.create_session(source))
                assert health["transitions_fired"] == 4
        assert selector_compiles == [body_class]

    def test_a_subclass_gets_its_own_selector(self):
        class BusyReceiver(Receiver):
            @transition(from_state="busy", when=("port", "Msg"), cost=1.0)
            def again(self, interaction):
                pass

        parent = compile_module_class(Receiver)
        child = compile_module_class(BusyReceiver)
        assert child is not parent and child.module_class is BusyReceiver
        assert "'again'" in child.source and "'again'" not in parent.source
        assert compile_module_class(BusyReceiver) is child
        assert compile_module_class(Receiver) is parent
