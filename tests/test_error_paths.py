"""Error-path coverage: factory unknown names, transition clause validation
and malformed frontend delay clauses."""

import pytest

from repro.estelle import TransitionError, transition
from repro.estelle.frontend import (
    EstelleSemanticError,
    EstelleSyntaxError,
    compile_source,
)
from repro.runtime import (
    dispatch_by_name,
    mapping_by_name,
    scheduler_by_name,
)


class TestFactoryErrors:
    def test_scheduler_unknown_name(self):
        with pytest.raises(ValueError) as excinfo:
            scheduler_by_name("anarchic")
        message = str(excinfo.value)
        assert "unknown scheduler 'anarchic'" in message
        assert "centralised" in message and "decentralised" in message

    def test_dispatch_unknown_name(self):
        with pytest.raises(ValueError) as excinfo:
            dispatch_by_name("psychic")
        message = str(excinfo.value)
        assert "unknown dispatch strategy 'psychic'" in message
        for known in ("hard-coded", "table-driven", "generated"):
            assert known in message

    def test_mapping_unknown_name(self):
        with pytest.raises(ValueError) as excinfo:
            mapping_by_name("scattered")
        assert "unknown mapping strategy 'scattered'" in str(excinfo.value)

    def test_factories_accept_known_kwargs(self):
        scheduler = scheduler_by_name("decentralised", per_module_cost=0.5)
        assert scheduler.per_module_cost == 0.5
        dispatch = dispatch_by_name("table-driven", table_overhead=0.1)
        assert dispatch.overhead == 0.1


class TestTransitionClauseValidation:
    def test_negative_delay_rejected(self):
        with pytest.raises(TransitionError, match="delay must be non-negative"):
            transition(from_state="s", delay=-1.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(TransitionError, match="cost must be non-negative"):
            transition(from_state="s", cost=-0.1)

    def test_delay_upper_bound_below_lower_rejected(self):
        with pytest.raises(TransitionError, match="upper bound"):
            transition(from_state="s", delay=5.0, delay_max=2.0)

    def test_empty_from_state_sequence_rejected(self):
        decorator = transition(from_state=())
        with pytest.raises(TransitionError, match="may not be an empty sequence"):
            decorator(lambda self: None)

    def test_firing_disabled_transition_rejected(self):
        from tests.helpers import Ponger

        ponger = Ponger("p")
        stop = next(
            t for t in Ponger.declared_transitions() if t.name == "stop"
        )
        with pytest.raises(TransitionError, match="is not enabled"):
            stop.fire(ponger)


#: Minimal single-module spec with a substitutable transition-clause slot.
_DELAY_SPEC = """
specification d;
module M systemprocess;
end;
body MB for M;
  state s ;
  trans from s {clauses} name t begin x := 1 end;
end;
modvar m : MB at "ksr1" ;
end.
"""


class TestDelayClauseErrors:
    """Malformed frontend delay clauses raise *located* diagnostics."""

    def _compile(self, clauses: str):
        return compile_source(_DELAY_SPEC.format(clauses=clauses))

    def test_missing_upper_bound(self):
        with pytest.raises(EstelleSyntaxError, match="delay upper bound") as excinfo:
            self._compile("delay ( 1 , )")
        assert excinfo.value.location is not None

    def test_upper_bound_below_lower(self):
        with pytest.raises(EstelleSemanticError, match="upper bound") as excinfo:
            self._compile("delay ( 5 , 2 )")
        assert excinfo.value.location is not None

    def test_negative_delay(self):
        with pytest.raises(EstelleSyntaxError, match="after 'delay'") as excinfo:
            self._compile("delay -1")
        assert excinfo.value.location is not None

    def test_duplicate_delay_clause(self):
        with pytest.raises(EstelleSyntaxError, match="duplicate 'delay'") as excinfo:
            self._compile("delay 1 delay 2")
        assert excinfo.value.location is not None

    def test_malformed_exponent_is_located(self):
        with pytest.raises(EstelleSyntaxError, match="malformed exponent") as excinfo:
            self._compile("delay 1e-")
        assert excinfo.value.location is not None

    def test_exponent_delay_accepted(self):
        spec = self._compile("delay 1e-3")
        t = type(spec.find("m"))._transition_declarations["t"]
        assert t.delay == 0.001


#: Dynamic-topology spec skeleton with substitutable slots (ISSUE 5).
_DYNAMIC_SPEC = """
specification dyn;
channel C ( a , b );
  by a : Go ;
  by b : Done ;
end;
module M systemprocess;
  ip pts : array [ 1 .. 2 ] of C ( a );
end;
module W process;
end;
body WB for W;
  state s ;
  trans from s provided steps > 0 name step begin steps := steps - 1 end;
end;
body MB for M;
  state idle ;
  trans from idle
    when {when_ref}.Done
    name t
    begin
      {action}
    end;
end;
modvar m : MB at "ksr1" ;
end.
"""


class TestDynamicTopologyDiagnostics:
    """The new init/release and IP-array diagnostics are source-located."""

    def _compile(self, action: str = "x := 1", when_ref: str = "pts[1]"):
        return compile_source(
            _DYNAMIC_SPEC.format(action=action, when_ref=when_ref)
        )

    def test_unknown_body_name_located(self):
        with pytest.raises(
            EstelleSemanticError, match="undeclared body 'Ghost'"
        ) as excinfo:
            self._compile(action="init h with Ghost")
        assert excinfo.value.line == 22 and excinfo.value.column == 7

    def test_release_of_never_inited_variable_located(self):
        with pytest.raises(
            EstelleSemanticError, match="never 'init'ed"
        ) as excinfo:
            self._compile(action="release h")
        assert excinfo.value.line == 22 and excinfo.value.column == 7

    def test_ip_array_index_out_of_range_in_when_located(self):
        with pytest.raises(
            EstelleSemanticError, match=r"out of the declared range \[1\.\.2\]"
        ) as excinfo:
            self._compile(when_ref="pts[3]")
        assert excinfo.value.line == 19 and excinfo.value.column == 5

    def test_ip_array_index_out_of_range_in_output_located(self):
        with pytest.raises(
            EstelleSemanticError, match=r"out of the declared range \[1\.\.2\]"
        ) as excinfo:
            self._compile(action="output pts[0].Go")
        assert excinfo.value.line == 22 and excinfo.value.column == 7

    def test_ip_array_reference_without_index_located(self):
        with pytest.raises(
            EstelleSemanticError, match="without an index"
        ) as excinfo:
            self._compile(action="output pts.Go")
        assert excinfo.value.location is not None

    def test_init_outside_an_action_block_located(self):
        source = (
            "specification s;\n"
            "module M systemprocess;\nend;\n"
            "body MB for M;\n  state a ;\nend;\n"
            "modvar m : MB at \"ksr1\" ;\n"
            "init h with MB;\n"
            "end.\n"
        )
        with pytest.raises(
            EstelleSyntaxError, match="only allowed inside"
        ) as excinfo:
            compile_source(source)
        assert excinfo.value.line == 8 and excinfo.value.column == 1

    def test_double_release_is_a_located_runtime_error(self):
        """Releasing an already-released variable raises the located
        diagnostic when the transition fires, not a bare KeyError."""
        source = _DYNAMIC_SPEC.format(
            action="init h with WB ( steps := 1 ); release h; release h",
            when_ref="pts[1]",
        )
        spec = compile_source(source)
        manager = spec.find("m")
        manager.ips["pts[1]"].enqueue(
            __import__("repro.estelle", fromlist=["Interaction"]).Interaction("Done")
        )
        fire = type(manager)._transition_declarations["t"].fire
        with pytest.raises(
            EstelleSemanticError, match="double release"
        ) as excinfo:
            fire(manager)
        assert excinfo.value.line == 22 and excinfo.value.column == 49

    def test_init_into_live_variable_is_a_located_runtime_error(self):
        source = _DYNAMIC_SPEC.format(
            action="init h with WB; init h with WB",
            when_ref="pts[1]",
        )
        spec = compile_source(source)
        manager = spec.find("m")
        manager.ips["pts[1]"].enqueue(
            __import__("repro.estelle", fromlist=["Interaction"]).Interaction("Done")
        )
        fire = type(manager)._transition_declarations["t"].fire
        with pytest.raises(
            EstelleSemanticError, match="already holds the live instance"
        ) as excinfo:
            fire(manager)
        assert excinfo.value.location is not None

    def test_empty_array_range_located(self):
        source = (
            "specification s;\n"
            "channel C ( a , b );\n  by a : Go ;\n  by b : Done ;\nend;\n"
            "module M systemprocess;\n"
            "  ip pts : array [ 3 .. 1 ] of C ( a );\n"
            "end;\n"
            "body MB for M;\n  state x ;\nend;\n"
            "modvar m : MB at \"ksr1\" ;\n"
            "end.\n"
        )
        with pytest.raises(EstelleSemanticError, match="empty range") as excinfo:
            compile_source(source)
        assert excinfo.value.line == 7 and excinfo.value.column == 3

    def test_indexing_a_scalar_ip_located(self):
        source = (
            "specification s;\n"
            "channel C ( a , b );\n  by a : Go ;\n  by b : Done ;\nend;\n"
            "module M systemprocess;\n"
            "  ip one : C ( a );\n"
            "end;\n"
            "body MB for M;\n"
            "  state x ;\n"
            "  trans from x name t begin output one[1].Go end;\n"
            "end;\n"
            "modvar m : MB at \"ksr1\" ;\n"
            "end.\n"
        )
        with pytest.raises(
            EstelleSemanticError, match="not declared as an array"
        ) as excinfo:
            compile_source(source)
        assert excinfo.value.location is not None

    def test_init_attribute_containment_located(self):
        """A systemprocess body cannot be init'ed as a child (system modules
        may not nest); the attribute rule is caught at compile time."""
        source = (
            "specification s;\n"
            "channel C ( a , b );\n  by a : Go ;\n  by b : Done ;\nend;\n"
            "module M systemprocess;\n  ip p : C ( a );\nend;\n"
            "body MB for M;\n"
            "  state x ;\n"
            "  trans from x name t begin init h with MB end;\n"
            "end;\n"
            "modvar m : MB at \"ksr1\" ;\n"
            "end.\n"
        )
        with pytest.raises(
            EstelleSemanticError, match="may not 'init' a child"
        ) as excinfo:
            compile_source(source)
        assert excinfo.value.location is not None

    def test_connect_array_index_out_of_range_located(self):
        source = (
            "specification s;\n"
            "channel C ( a , b );\n  by a : Go ;\n  by b : Done ;\nend;\n"
            "module M systemprocess;\n"
            "  ip pts : array [ 1 .. 2 ] of C ( a );\n"
            "end;\n"
            "module N systemprocess;\n"
            "  ip ctl : C ( b );\n"
            "end;\n"
            "body MB for M;\n  state x ;\nend;\n"
            "body NB for N;\n  state y ;\nend;\n"
            "modvar m : MB at \"ksr1\" ;\n"
            "modvar n : NB at \"ksr1\" ;\n"
            "connect m.pts[7] to n.ctl ;\n"
            "end.\n"
        )
        with pytest.raises(
            EstelleSemanticError, match=r"out of the declared range \[1\.\.2\]"
        ) as excinfo:
            compile_source(source)
        assert excinfo.value.line == 20 and excinfo.value.column == 1
