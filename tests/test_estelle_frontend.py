"""Tests for the Estelle text front-end: lexer, parser, lowering, diagnostics."""

import pytest

from repro.estelle import EstelleError, Specification, SpecificationError
from repro.estelle.frontend import (
    EstelleSemanticError,
    EstelleSyntaxError,
    compile_source,
    parse_source,
    tokenize,
)

PING_PONG_SRC = """
specification ping_pong;

{ the smallest closed two-party system }
channel PingPong ( pinger , ponger );
  by pinger : Ping , Stop ;
  by ponger : Pong ;
end;

module PingerHeader systemprocess;
  ip port : PingPong ( pinger );
end;

body PingerBody for PingerHeader;
  state idle, waiting, done;
  initialize to idle begin sent := 0; count := 3 end;

  trans from idle to waiting
    name send_ping
    begin
      sent := sent + 1;
      output port.Ping(sequence := sent)
    end;

  trans from waiting to idle
    when port.Pong
    provided sent < count
    name pong_again
    begin
      state_hint := "again"
    end;

  trans from waiting to done
    when port.Pong
    provided sent >= count
    name pong_done
    begin
      if sent >= count then
        state_hint := "stopping";
        output port.Stop
      else
        state_hint := "impossible"
      end
    end;
end;

module PongerHeader systemprocess;
  ip port : PingPong ( ponger );
end;

body PongerBody for PongerHeader;
  state ready, stopped;
  trans from ready when port.Ping cost 1.0 name answer
    begin output port.Pong(sequence := msg.sequence) end;
  trans from ready to stopped when port.Stop cost 0.5 name stop
    begin end;
end;

modvar pinger : PingerBody at "m1" with count := 2;
modvar ponger : PongerBody at "m2";
connect pinger.port to ponger.port;

end.
"""


class TestLexer:
    def test_positions_are_one_based(self):
        tokens = tokenize("specification x;\n  channel C")
        assert tokens[0].location.line == 1
        assert tokens[0].location.column == 1
        assert tokens[3].value == "channel"
        assert (tokens[3].location.line, tokens[3].location.column) == (2, 3)

    def test_keywords_case_insensitive_identifiers_not(self):
        tokens = tokenize("TRANS Trans myName MYNAME")
        assert [t.kind for t in tokens[:4]] == ["KW", "KW", "IDENT", "IDENT"]
        assert tokens[2].value == "myName"
        assert tokens[3].value == "MYNAME"

    def test_comments_and_strings(self):
        tokens = tokenize("{ skip } (* also\nskip *) 'a\\'b' \"c\\nd\" 1.5 42")
        values = [t.value for t in tokens if t.kind != "EOF"]
        assert values == ["a'b", "c\nd", 1.5, 42]

    def test_unterminated_comment_located(self):
        with pytest.raises(EstelleSyntaxError) as excinfo:
            tokenize("x := 1;\n{ never closed")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 1

    def test_bad_character_located(self):
        with pytest.raises(EstelleSyntaxError) as excinfo:
            tokenize("ok ok\n   @")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 4
        assert "unexpected character" in str(excinfo.value)


class TestParserDiagnostics:
    def test_missing_semicolon(self):
        with pytest.raises(EstelleSyntaxError) as excinfo:
            parse_source("specification x\nchannel C (a, b); end; end.")
        assert excinfo.value.line == 2
        assert "expected ';'" in str(excinfo.value)

    def test_bad_module_attribute(self):
        with pytest.raises(EstelleSyntaxError) as excinfo:
            parse_source("specification x;\nmodule M widget;\nend;\nend.")
        assert (excinfo.value.line, excinfo.value.column) == (2, 10)
        assert "module attribute" in str(excinfo.value)

    def test_duplicate_trans_clause(self):
        source = (
            "specification x;\nmodule M systemprocess;\nend;\n"
            "body B for M;\n  state s;\n"
            "  trans from s from s begin end;\nend;\nend."
        )
        with pytest.raises(EstelleSyntaxError) as excinfo:
            parse_source(source)
        assert excinfo.value.line == 6
        assert "duplicate 'from' clause" in str(excinfo.value)

    def test_dotted_access_only_on_msg(self):
        source = (
            "specification x;\nmodule M systemprocess;\nend;\n"
            "body B for M;\n  state s;\n"
            "  trans from s begin a := other.field end;\nend;\nend."
        )
        with pytest.raises(EstelleSyntaxError) as excinfo:
            parse_source(source)
        assert "only supported on 'msg'" in str(excinfo.value)

    def test_trailing_garbage_after_end(self):
        with pytest.raises(EstelleSyntaxError) as excinfo:
            parse_source("specification x;\nend.\nleftover")
        assert excinfo.value.line == 3

    def test_syntax_errors_are_estelle_errors(self):
        with pytest.raises(EstelleError):
            parse_source("specification;")


class TestSemanticDiagnostics:
    def _compile(self, source):
        return compile_source(source)

    def test_undeclared_channel(self):
        source = (
            "specification x;\nmodule M systemprocess;\n"
            "  ip p : Nowhere (a);\nend;\nend."
        )
        with pytest.raises(EstelleSemanticError) as excinfo:
            self._compile(source)
        assert (excinfo.value.line, excinfo.value.column) == (3, 3)
        assert "undeclared channel" in str(excinfo.value)

    def test_undeclared_from_state_line_and_column(self):
        source = (
            "specification x;\nmodule M systemprocess;\nend;\n"
            "body B for M;\n  state s;\n"
            "  trans from elsewhere begin end;\nend;\nend."
        )
        with pytest.raises(EstelleSemanticError) as excinfo:
            self._compile(source)
        assert (excinfo.value.line, excinfo.value.column) == (6, 3)
        assert "undeclared from-state 'elsewhere'" in str(excinfo.value)

    def test_undeclared_when_ip(self):
        source = (
            "specification x;\n"
            "channel C (a, b);\n  by a : M;\n  by b : R;\nend;\n"
            "module H systemprocess;\n  ip p : C (a);\nend;\n"
            "body B for H;\n  state s;\n"
            "  trans from s when q.R begin end;\nend;\nend."
        )
        with pytest.raises(EstelleSemanticError) as excinfo:
            self._compile(source)
        assert excinfo.value.line == 11
        assert "undeclared interaction point 'q'" in str(excinfo.value)

    def test_when_interaction_not_receivable(self):
        source = (
            "specification x;\n"
            "channel C (a, b);\n  by a : M;\n  by b : R;\nend;\n"
            "module H systemprocess;\n  ip p : C (a);\nend;\n"
            "body B for H;\n  state s;\n"
            "  trans from s when p.M begin end;\nend;\nend."
        )
        with pytest.raises(EstelleSemanticError) as excinfo:
            self._compile(source)
        assert "never receives 'M'" in str(excinfo.value)

    def test_output_not_sendable(self):
        source = (
            "specification x;\n"
            "channel C (a, b);\n  by a : M;\n  by b : R;\nend;\n"
            "module H systemprocess;\n  ip p : C (a);\nend;\n"
            "body B for H;\n  state s;\n"
            "  trans from s begin output p.R end;\nend;\nend."
        )
        with pytest.raises(EstelleSemanticError) as excinfo:
            self._compile(source)
        assert "may not send 'R'" in str(excinfo.value)

    def test_duplicate_module(self):
        source = (
            "specification x;\nmodule M systemprocess;\nend;\n"
            "module M systemprocess;\nend;\nend."
        )
        with pytest.raises(EstelleSemanticError) as excinfo:
            self._compile(source)
        assert excinfo.value.line == 4
        assert "duplicate module definition 'M'" in str(excinfo.value)

    def test_duplicate_body_and_channel_and_instance(self):
        duplicate_channel = (
            "specification x;\nchannel C (a, b);\nend;\n"
            "channel C (a, b);\nend;\nend."
        )
        with pytest.raises(EstelleSemanticError, match="duplicate channel"):
            self._compile(duplicate_channel)
        duplicate_instance = (
            "specification x;\nmodule M systemprocess;\nend;\n"
            "body B for M;\nend;\n"
            "modvar i : B at 'm';\nmodvar i : B at 'm';\nend."
        )
        with pytest.raises(EstelleSemanticError, match="duplicate instance"):
            self._compile(duplicate_instance)

    def test_transition_name_colliding_with_ip_rejected(self):
        source = (
            "specification x;\n"
            "channel C (a, b);\n  by a : M;\n  by b : R;\nend;\n"
            "module H systemprocess;\n  ip net : C (a);\nend;\n"
            "body B for H;\n  state s;\n"
            "  trans from s name net begin end;\nend;\nend."
        )
        with pytest.raises(EstelleSemanticError) as excinfo:
            self._compile(source)
        assert excinfo.value.line == 11
        assert "collides" in str(excinfo.value)

    def test_transition_name_colliding_with_initialise_rejected(self):
        source = (
            "specification x;\nmodule M systemprocess;\nend;\n"
            "body B for M;\n  state s;\n"
            "  initialize to s begin n := 0 end;\n"
            "  trans from s name initialise begin end;\nend;\nend."
        )
        with pytest.raises(EstelleSemanticError, match="collides"):
            self._compile(source)

    def test_duplicate_transition_name_rejected(self):
        source = (
            "specification x;\nmodule M systemprocess;\nend;\n"
            "body B for M;\n  state s;\n"
            "  trans from s name twice begin end;\n"
            "  trans from s name twice begin end;\nend;\nend."
        )
        with pytest.raises(EstelleSemanticError, match="collides"):
            self._compile(source)

    def test_msg_outside_when_transition(self):
        source = (
            "specification x;\n"
            "channel C (a, b);\n  by a : M;\n  by b : R;\nend;\n"
            "module H systemprocess;\n  ip p : C (a);\nend;\n"
            "body B for H;\n  state s;\n"
            "  trans from s begin v := msg.field end;\nend;\nend."
        )
        with pytest.raises(EstelleSemanticError) as excinfo:
            self._compile(source)
        assert "'msg' may only be used" in str(excinfo.value)

    def test_non_system_instance_located(self):
        source = (
            "specification x;\nmodule M process;\nend;\n"
            "body B for M;\nend;\n"
            "modvar i : B at 'm';\nend."
        )
        with pytest.raises(EstelleSemanticError) as excinfo:
            self._compile(source)
        assert excinfo.value.line == 6
        assert isinstance(excinfo.value, SpecificationError)

    def test_connect_unknown_instance(self):
        source = (
            "specification x;\nmodule M systemprocess;\nend;\n"
            "body B for M;\nend;\n"
            "modvar i : B at 'm';\nconnect i.p to j.p;\nend."
        )
        with pytest.raises(EstelleSemanticError) as excinfo:
            self._compile(source)
        assert "has no interaction point 'p'" in str(excinfo.value) or (
            "undeclared instance" in str(excinfo.value)
        )


class TestLowering:
    def test_compile_source_builds_validated_specification(self):
        spec = compile_source(PING_PONG_SRC)
        assert isinstance(spec, Specification)
        spec.validate()  # idempotent; already ran during lowering
        assert spec.module_count() == 2
        assert {p.module_path: p.location for p in spec.placements} == {
            "ping_pong/pinger": "m1",
            "ping_pong/ponger": "m2",
        }

    def test_with_clause_overrides_initialize_defaults(self):
        spec = compile_source(PING_PONG_SRC)
        pinger = spec.find("pinger")
        assert pinger.variables["count"] == 2  # 'with' beats the initialize default
        assert pinger.variables["sent"] == 0
        assert pinger.state == "idle"

    def test_parsed_spec_runs_to_quiescence(self):
        from repro.runtime import run_specification
        from repro.sim import Cluster, CostModel, Machine

        spec = compile_source(PING_PONG_SRC)
        # Both instances are placed on machines m1/m2; use a 2-machine cluster.
        cluster = Cluster()
        cluster.add(Machine("m1", 1, CostModel()))
        cluster.add(Machine("m2", 1, CostModel()))
        metrics, executor = run_specification(spec, cluster, trace=True)
        pinger, ponger = spec.find("pinger"), spec.find("ponger")
        # 2 pings answered; the ponger received the Stop and halted.
        assert pinger.variables["sent"] == 2
        assert ponger.state == "stopped"
        assert metrics.transitions_fired > 0
        assert not executor.deadlocked

    def test_guards_carry_python_source_for_codegen(self):
        spec = compile_source(
            "specification x;\nmodule M systemprocess;\nend;\n"
            "body B for M;\n  state s;\n"
            "  trans from s provided n < 3 name work begin n := n + 1 end;\nend;\n"
            "modvar i : B at 'm' with n := 0;\nend."
        )
        module = spec.find("i")
        (declared,) = type(module).declared_transitions()
        assert declared.provided._python_source == "(_v['n'] < 3)"

    def test_interpreter_operators(self):
        spec = compile_source(
            "specification x;\nmodule M systemprocess;\nend;\n"
            "body B for M;\n  state s, t;\n"
            "  trans from s to t name mixmath begin\n"
            "    a := (7 div 2) + (7 mod 2) * 10 - 1;\n"
            "    b := not (1 > 2) and (1 <> 2 or false);\n"
            "    c := -3 * 2;\n"
            "    d := 'ab' + 'cd'\n"
            "  end;\nend;\n"
            "modvar i : B at 'm';\nend."
        )
        module = spec.find("i")
        (declared,) = type(module).declared_transitions()
        declared.fire(module)
        assert module.variables["a"] == 3 + 10 - 1
        assert module.variables["b"] is True
        assert module.variables["c"] == -6
        assert module.variables["d"] == "abcd"
        assert module.state == "t"

    def test_undefined_variable_read_is_located(self):
        spec = compile_source(
            "specification x;\nmodule M systemprocess;\nend;\n"
            "body B for M;\n  state s;\n"
            "  trans from s name bad begin a := nowhere end;\nend;\n"
            "modvar i : B at 'm';\nend."
        )
        module = spec.find("i")
        (declared,) = type(module).declared_transitions()
        with pytest.raises(EstelleSemanticError, match="undefined variable 'nowhere'"):
            declared.fire(module)


class TestQuantifiers:
    """``exist``/``forall`` quantified guards (lexer, parser, lowering, codegen)."""

    COUNTER_SRC = (
        "specification q;\nmodule M systemprocess;\nend;\n"
        "body B for M;\n  state run, halt;\n"
        "  initialize to run begin n := 3; fired := 0 end;\n"
        "  trans from run provided exist i : 1 .. n suchthat fired < i\n"
        "    name tick begin fired := fired + 1 end;\n"
        "  trans from run to halt provided forall i : 1 .. n suchthat fired >= i\n"
        "    priority -1 name stop begin done := true end;\n"
        "end;\nmodvar m : B at 'x';\nend."
    )

    def test_dotdot_token_does_not_break_numbers(self):
        kinds = [(t.kind, t.value) for t in tokenize("1 .. 3 1..3 1.5 end.")][:-1]
        assert kinds == [
            ("NUMBER", 1), ("OP", ".."), ("NUMBER", 3),
            ("NUMBER", 1), ("OP", ".."), ("NUMBER", 3),
            ("NUMBER", 1.5), ("KW", "end"), ("OP", "."),
        ]

    def test_quantified_guards_drive_execution(self):
        spec = compile_source(self.COUNTER_SRC)
        module = spec.find("m")
        by_name = {t.name: t for t in type(module).declared_transitions()}
        # exist i: 1..3 suchthat fired < i  ==  fired < 3
        for expected in (1, 2, 3):
            assert by_name["tick"].enabled(module)
            by_name["tick"].fire(module)
            assert module.variables["fired"] == expected
        assert not by_name["tick"].enabled(module)
        # forall i: 1..3 suchthat fired >= i  ==  fired >= 3
        assert by_name["stop"].enabled(module)
        by_name["stop"].fire(module)
        assert module.state == "halt" and module.variables["done"] is True

    def test_empty_interval_semantics(self):
        spec = compile_source(
            "specification q;\nmodule M systemprocess;\nend;\n"
            "body B for M;\n  state s, t;\n"
            "  trans from s to t name go\n"
            "    provided forall i : 1 .. 0 suchthat false\n"
            "    begin a := exist j : 5 .. 4 suchthat true end;\n"
            "end;\nmodvar m : B at 'x';\nend."
        )
        module = spec.find("m")
        (declared,) = type(module).declared_transitions()
        assert declared.enabled(module)  # forall over an empty interval holds
        declared.fire(module)
        assert module.variables["a"] is False  # exist over an empty interval fails

    def test_bound_variable_shadows_module_variable(self):
        spec = compile_source(
            "specification q;\nmodule M systemprocess;\nend;\n"
            "body B for M;\n  state s;\n"
            "  initialize begin i := 100 end;\n"
            "  trans from s name probe\n"
            "    provided exist i : 1 .. 2 suchthat i = 2\n"
            "    begin seen := i end;\n"
            "end;\nmodvar m : B at 'x';\nend."
        )
        module = spec.find("m")
        (declared,) = type(module).declared_transitions()
        assert declared.enabled(module)  # bound i in 1..2, not the variable 100
        declared.fire(module)
        assert module.variables["seen"] == 100  # outside the body, i is the variable

    def test_missing_suchthat_is_located_syntax_error(self):
        with pytest.raises(EstelleSyntaxError) as excinfo:
            parse_source(
                "specification q;\nmodule M systemprocess;\nend;\n"
                "body B for M;\n  state s;\n"
                "  trans from s provided exist i : 1 .. 3 begin end;\n"
                "end;\nend."
            )
        assert "suchthat" in str(excinfo.value)
        assert excinfo.value.location.line == 6

    def test_non_integer_bound_is_located_semantic_error(self):
        spec = compile_source(
            "specification q;\nmodule M systemprocess;\nend;\n"
            "body B for M;\n  state s;\n"
            "  trans from s name bad\n"
            "    provided exist i : 1 .. 'three' suchthat true\n"
            "    begin a := 1 end;\nend;\nmodvar m : B at 'x';\nend."
        )
        module = spec.find("m")
        (declared,) = type(module).declared_transitions()
        with pytest.raises(EstelleSemanticError, match="upper bound must be an integer"):
            declared.enabled(module)

    def test_msg_in_quantified_body_rejected_without_when(self):
        with pytest.raises(EstelleSemanticError, match="'msg' may only be used"):
            compile_source(
                "specification q;\nmodule M systemprocess;\nend;\n"
                "body B for M;\n  state s;\n"
                "  trans from s provided exist i : 1 .. 3 suchthat msg.k = i\n"
                "    begin a := 1 end;\nend;\nend."
            )

    def test_generated_guard_matches_interpreted(self):
        from repro.runtime.codegen import compile_module_class

        interpreted = compile_source(self.COUNTER_SRC)
        generated = compile_source(self.COUNTER_SRC)
        module_i = interpreted.find("m")
        module_g = generated.find("m")
        compiled = compile_module_class(type(module_g))
        assert "any((" in compiled.source and "all((" in compiled.source
        for _ in range(4):
            enabled = module_i.enabled_transitions()
            chosen_i = enabled[0] if enabled else None
            chosen_g, _examined = compiled.select(module_g)
            assert (chosen_i.name if chosen_i else None) == (
                chosen_g.name if chosen_g else None
            )
            if chosen_i is None:
                break
            chosen_i.fire(module_i)
            chosen_g.fire(module_g)
            assert module_i.variables == module_g.variables

    def test_non_identifier_bound_name_runs_under_every_strategy(self):
        """Regression: the lexer accepts any ``isalnum()`` name, so ``i²`` is
        a legal bound variable; the generated guard once pasted it into its
        Python source and raised a bare SyntaxError under generated/planner."""
        from repro.runtime import InProcessBackend, SpecSource
        from repro.runtime.parallel import canonical_trace_bytes
        from repro.sim.machine import cluster_from_placements

        text = self.COUNTER_SRC.replace(" i ", " i² ").replace(" i\n", " i²\n")
        assert text.count("i²") == 4
        source = SpecSource.from_estelle_text(text)
        cluster = cluster_from_placements(source.build(), 1)
        traces = {
            dispatch: canonical_trace_bytes(
                InProcessBackend().execute(source, cluster, dispatch=dispatch).trace
            )
            for dispatch in ("table-driven", "generated", "planner")
        }
        assert traces["table-driven"].count(b"tick") == 3
        assert traces["generated"] == traces["planner"] == traces["table-driven"]

    def test_rebound_name_gets_its_own_comprehension_variable(self):
        """The inner ``j`` must not share a Python variable with the middle
        ``i``, which rebinds the outer one: correct scoping reads 2 + 3."""
        from repro.runtime.codegen import compile_module_class

        module = compile_source(
            "specification q;\nmodule M systemprocess;\nend;\n"
            "body B for M;\n  state s;\n"
            "  trans from s name nested\n"
            "    provided exist i : 1 .. 1 suchthat exist i : 2 .. 2 suchthat\n"
            "      exist j : 3 .. 3 suchthat i + j = 5\n"
            "    begin a := 1 end;\nend;\nmodvar m : B at 'x';\nend."
        ).find("m")
        (declared,) = type(module).declared_transitions()
        compiled = compile_module_class(type(module))
        assert declared.enabled(module)
        assert compiled.select(module)[0].name == declared.name

    def test_bool_bound_diverges_nowhere_between_strategies(self):
        """Regression: bool bounds (e.g. 'provided exist i : (x = 1) .. 3')
        must raise the located diagnostic under the *generated* guard too —
        bool is an int subclass, so a bare range() would silently accept it."""
        from repro.runtime.codegen import compile_module_class

        src = (
            "specification q;\nmodule M systemprocess;\nend;\n"
            "body B for M;\n  state s;\n"
            "  initialize begin x := 1 end;\n"
            "  trans from s name bad\n"
            "    provided exist i : (x = 1) .. 3 suchthat i = 2\n"
            "    begin a := 1 end;\nend;\nmodvar m : B at 'h';\nend."
        )
        module = compile_source(src).find("m")
        (declared,) = type(module).declared_transitions()
        with pytest.raises(EstelleSemanticError, match="lower bound must be an integer"):
            declared.enabled(module)
        compiled = compile_module_class(type(module))
        with pytest.raises(EstelleSemanticError, match="lower bound must be an integer"):
            compiled.select(module)
