"""Estelle ``delay`` semantics on the simulated clock (ISSUE 4).

The bug under regression: delay clauses were parsed, validated and stored —
and then ignored by every dispatch strategy, scheduler, planner and backend,
so a spec with ``delay`` produced a trace identical to the undelayed spec.
These tests pin the fix end to end:

* a delayed spec now produces a *different, correct* firing schedule than
  the same spec without the delay (the old silent-ignore behaviour);
* ``delay(min, max)`` parses and lowers, with the deterministic resolution
  rule (fire at the lower bound);
* the timer runs only while the transition is *continuously* enabled, and
  restarts after every firing (pacing) and after every interruption;
* empty rounds jump the clock to the next deadline instead of declaring
  quiescence, on the interpreted scheduler path and on the incremental
  planner path (whose DirtyTracker deadline index wakes sleeping modules);
* all in-process dispatch strategies agree byte-for-byte on delayed specs
  (the multiprocess side is asserted in tests/test_parallel_backend.py).
"""

import re
from pathlib import Path

import pytest

from repro.estelle import Module, ModuleAttribute, Specification, TransitionError, transition
from repro.estelle.dirty import DirtyTracker
from repro.estelle.frontend import compile_source, parse_source, tokenize
from repro.runtime import (
    GroupedMapping,
    InProcessBackend,
    SimulatedClock,
    SpecSource,
    next_delay_deadline,
    run_specification,
)
from repro.runtime.parallel import trace_diff
from repro.sim import Cluster, Machine

SPEC_DIR = Path(__file__).parent.parent / "examples" / "specs"
XMOVIE_SPEC = SPEC_DIR / "xmovie_stream.estelle"

#: One delayed spontaneous ticker next to an undelayed one.  Substituting an
#: empty string for the delay clause yields the control (undelayed) spec.
PACED_SRC = """
specification paced;
channel C ( a , b );
  by a : Out ;
  by b : Nothing ;
end;
module Ticker systemprocess;
  ip p : C ( a );
end;
body TickerBody for Ticker;
  state run , done ;
  initialize to run begin ticks := 0 ; limit := 3 end;
  trans from run
    provided ticks < limit
    {delay_clause}
    name tick
    cost 2.0
    begin
      ticks := ticks + 1;
      output p.Out ( n := ticks )
    end;
  trans from run to done provided ticks >= limit name finish cost 1.0
    begin closing := true end;
end;
module Sink systemprocess;
  ip p : C ( b );
end;
body SinkBody for Sink;
  state s ;
  trans from s when p.Out name take cost 0.5 begin got := msg.n end;
end;
modvar t : TickerBody at "ksr1" ;
modvar s : SinkBody at "client-ws-1" ;
connect t.p to s.p ;
end.
"""


def paced_source(delay_clause: str) -> SpecSource:
    return SpecSource.from_estelle_text(PACED_SRC.format(delay_clause=delay_clause))


def two_machine_cluster(processors: int = 1) -> Cluster:
    cluster = Cluster()
    cluster.add(Machine("ksr1", processors))
    cluster.add(Machine("client-ws-1", processors))
    return cluster


def run_in_process(source: SpecSource, dispatch: str = "table-driven"):
    return InProcessBackend().execute(
        source, two_machine_cluster(), mapping=GroupedMapping(), dispatch=dispatch
    )


class TestSilentIgnoreRegression:
    """The pinned bug: delay used to change nothing at all."""

    def test_delayed_spec_trace_differs_from_undelayed(self):
        delayed = run_in_process(paced_source("delay 4.0"))
        undelayed = run_in_process(paced_source(""))
        assert trace_diff(delayed.trace, undelayed.trace) is not None
        # Same protocol work happens in the end — delay changes *when*.
        assert delayed.transitions_fired == undelayed.transitions_fired
        assert not delayed.deadlocked and not undelayed.deadlocked

    def test_delayed_transition_waits_its_delay(self):
        delayed = run_in_process(paced_source("delay 4.0"))
        ticks = [
            e for e in delayed.trace.all_firings() if e.transition_name == "tick"
        ]
        assert ticks, "the delayed transition must still fire"
        # Armed at t=0, eligible no earlier than t=4.
        assert ticks[0].time >= 4.0
        # Pacing: the timer restarts after each firing, so consecutive ticks
        # are at least the delay apart in simulated time.
        gaps = [b.time - a.time for a, b in zip(ticks, ticks[1:])]
        assert all(gap >= 4.0 for gap in gaps), gaps

    def test_undelayed_transition_fires_immediately(self):
        undelayed = run_in_process(paced_source(""))
        first = undelayed.trace.all_firings()[0]
        assert first.time == 0.0
        ticks = [
            e for e in undelayed.trace.all_firings() if e.transition_name == "tick"
        ]
        assert ticks[0].round_index == 1

    def test_empty_rounds_jump_the_clock_not_quiesce(self):
        """With only a delayed transition pending, the round loop must jump
        simulated time to the deadline instead of reporting quiescence."""
        delayed = run_in_process(paced_source("delay 4.0"))
        assert delayed.transitions_fired > 0
        assert delayed.simulated_time >= 3 * 4.0  # three paced ticks

    @pytest.mark.parametrize("dispatch", ["table-driven", "generated", "planner", "hard-coded"])
    def test_all_dispatch_strategies_agree_on_delayed_spec(self, dispatch):
        reference = run_in_process(paced_source("delay ( 4.0 , 6.0 )"))
        other = run_in_process(paced_source("delay ( 4.0 , 6.0 )"), dispatch=dispatch)
        assert trace_diff(reference.trace, other.trace) is None


class TestDelayPairForm:
    def test_pair_form_parses_and_lowers(self):
        spec = compile_source(PACED_SRC.format(delay_clause="delay ( 1.5 , 2.5 )"))
        ticker = spec.find("t")
        tick = type(ticker)._transition_declarations["tick"]
        assert tick.delay == 1.5
        assert tick.delay_max == 2.5

    def test_scalar_form_has_no_upper_bound(self):
        spec = compile_source(PACED_SRC.format(delay_clause="delay 1.5"))
        tick = type(spec.find("t"))._transition_declarations["tick"]
        assert tick.delay == 1.5
        assert tick.delay_max is None

    def test_resolution_rule_fires_at_lower_bound(self):
        """delay(min, max) is resolved deterministically to min: the pair
        form and the scalar min form produce byte-identical traces."""
        pair = run_in_process(paced_source("delay ( 4.0 , 9.0 )"))
        scalar = run_in_process(paced_source("delay 4.0"))
        assert trace_diff(pair.trace, scalar.trace) is None

    def test_decorator_validates_bounds(self):
        with pytest.raises(TransitionError, match="upper bound"):
            transition(from_state="s", delay=5.0, delay_max=2.0)

    def test_exponent_literals_lex(self):
        tokens = tokenize("delay 1e-3 cost 2.5E6")
        numbers = [t.value for t in tokens if t.kind == "NUMBER"]
        assert numbers == [0.001, 2500000.0]

    def test_number_keyword_adjacency_still_lexes(self):
        """'2else' must stay NUMBER(2) KW(else) — the exponent path only
        engages when the 'e' is followed by a digit or sign."""
        tokens = tokenize("2else")
        assert [(t.kind, t.value) for t in tokens[:2]] == [("NUMBER", 2), ("KW", "else")]


class _Pulse(Module):
    """Hand-built module: delayed tick gated by a variable."""

    ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
    STATES = ("run",)

    @transition(from_state="run", provided=lambda m: m.variables["armed"], delay=5.0, cost=1.0)
    def pulse(self):
        self.variables["fired"] = self.variables.get("fired", 0) + 1


class TestTimerContinuity:
    def build(self):
        spec = Specification("pulse")
        module = spec.add_system_module(_Pulse, "p", armed=True)
        spec.validate()
        return spec, module

    def test_timer_resets_when_enabling_interrupted(self):
        spec, module = self.build()
        clock = SimulatedClock.attach(spec)
        module.refresh_delay_timers()
        assert module._delay_since["pulse"] == 0.0
        clock.now = 3.0
        # Interrupt the continuous enabling before the delay elapses...
        module.variables["armed"] = False
        module.refresh_delay_timers()
        assert "pulse" not in module._delay_since
        # ...re-enable: the timer restarts from now, not from t=0.
        module.variables["armed"] = True
        module.refresh_delay_timers()
        assert module._delay_since["pulse"] == 3.0
        transition_obj = _Pulse._transition_declarations["pulse"]
        clock.now = 7.0  # 3.0 + 5.0 not yet reached
        assert not module.delay_expired(transition_obj)
        clock.now = 8.0
        assert module.delay_expired(transition_obj)
        assert transition_obj.enabled(module)

    def test_firing_restarts_the_timer(self):
        spec, module = self.build()
        clock = SimulatedClock.attach(spec)
        transition_obj = _Pulse._transition_declarations["pulse"]
        module.refresh_delay_timers()
        clock.now = 5.0
        assert transition_obj.enabled(module)
        transition_obj.fire(module)
        assert "pulse" not in module._delay_since
        module.refresh_delay_timers()
        assert module._delay_since["pulse"] == 5.0  # re-armed at firing time

    def test_delay_inert_without_clock(self):
        spec, module = self.build()
        transition_obj = _Pulse._transition_declarations["pulse"]
        # No clock attached: legacy paths treat delay as immediately eligible.
        assert transition_obj.enabled(module)
        transition_obj.fire(module)

    def test_clock_inherited_by_dynamic_children(self):
        spec, module = self.build()
        clock = SimulatedClock.attach(spec)

        class Child(Module):
            ATTRIBUTE = ModuleAttribute.PROCESS
            STATES = ("s",)

        child = module.create_child(Child, "late")
        assert child._sim_clock is clock

    def test_next_delay_deadline_scans_armed_timers(self):
        spec, module = self.build()
        clock = SimulatedClock.attach(spec)
        assert next_delay_deadline(spec.modules(), clock.now) is None
        module.refresh_delay_timers()
        assert next_delay_deadline(spec.modules(), clock.now) == 5.0
        clock.now = 5.0  # expired deadlines are not "next" any more
        assert next_delay_deadline(spec.modules(), clock.now) is None


class TestDeadlineIndex:
    """The DirtyTracker's time dimension: deadlines wake sleeping modules."""

    def test_wake_due_marks_module_dirty(self):
        spec = Specification("pulse")
        module = spec.add_system_module(_Pulse, "p", armed=True)
        spec.validate()
        tracker = DirtyTracker.attach(spec)
        SimulatedClock.attach(spec)
        tracker.drain()
        module.refresh_delay_timers()  # arms and reports the deadline
        assert tracker.next_deadline() == 5.0
        assert tracker.wake_due(4.9) == 0
        assert not tracker.peek()
        assert tracker.wake_due(5.0) == 1
        assert module in tracker.peek()
        assert tracker.next_deadline() is None

    def test_stale_deadline_does_not_advance_final_clock(self):
        """A timer that disarms before expiry leaves a stale entry in the
        deadline index; the quiescence path must rewind any jumps taken
        chasing it, so simulated_time stays dispatch-independent."""
        stale_src = SpecSource.from_estelle_text(
            """
            specification stale;
            module M systemprocess;
            end;
            body MB for M;
              state run , off ;
              initialize to run begin armed := true end;
              trans from run to off priority 0 name kill cost 1.0
                begin armed := false end;
              trans from run provided armed delay 10.0 priority 5 name pulse
                cost 1.0 begin x := 1 end;
            end;
            modvar m : MB at "ksr1" ;
            end.
            """
        )
        results = {
            dispatch: run_in_process(stale_src, dispatch=dispatch)
            for dispatch in ("table-driven", "generated", "planner")
        }
        reference = results["table-driven"]
        # kill fires in round 1 (cost 1.0) and permanently disarms pulse:
        # the run ends at t=1.0 everywhere, stale 10.0 entry notwithstanding.
        assert reference.simulated_time == 1.0
        for dispatch, result in results.items():
            assert trace_diff(reference.trace, result.trace) is None, dispatch
            assert result.simulated_time == reference.simulated_time, dispatch
            assert not result.deadlocked

    def test_planner_wakes_sleeping_module_on_time_passing(self):
        """A clean module (no data mutation) whose delay expires must be
        re-evaluated by the incremental planner — the regression that a
        naive dirty-set planner would sleep through."""
        from repro.runtime import IncrementalRoundPlanner

        spec = Specification("pulse")
        spec.add_system_module(_Pulse, "p", armed=True)
        spec.validate()
        clock = SimulatedClock.attach(spec)
        planner = IncrementalRoundPlanner(spec, clock=clock)
        plan = planner.plan_round()
        assert plan.empty  # timer armed but not expired
        assert planner.next_deadline() == 5.0
        clock.now = planner.next_deadline()
        plan = planner.plan_round()
        assert [f.result.transition.name for f in plan.firings] == ["pulse"]


class TestXmovieWorkload:
    """The delay-driven stream-control workload as an equivalence workload."""

    def test_compiles_and_paces(self):
        result = run_in_process(SpecSource.from_estelle_file(XMOVIE_SPEC))
        assert not result.deadlocked
        frames = [
            e for e in result.trace.all_firings() if e.transition_name == "send_frame"
        ]
        assert len(frames) == 8
        gaps = [b.time - a.time for a, b in zip(frames, frames[1:])]
        # Pacing floor: frames are at least the delay lower bound apart.
        assert all(gap >= 3.0 for gap in gaps), gaps
        # The silent-ignore bug on this workload: with its delay clauses
        # stripped, the same frames go out back-to-back, and sooner.
        stripped = re.sub(
            r"delay\s*(\(\s*[\d.]+\s*,\s*[\d.]+\s*\)|[\d.]+)", "", XMOVIE_SPEC.read_text()
        )
        undelayed = run_in_process(SpecSource.from_estelle_text(stripped))
        undelayed_frames = [
            e.time for e in undelayed.trace.all_firings() if e.transition_name == "send_frame"
        ]
        assert not undelayed.deadlocked
        assert len(undelayed_frames) == len(frames)
        assert min(b - a for a, b in zip(undelayed_frames, undelayed_frames[1:])) < 3.0
        assert result.simulated_time > undelayed.simulated_time

    @pytest.mark.parametrize("dispatch", ["generated", "planner", "hard-coded"])
    def test_in_process_dispatches_byte_identical(self, dispatch):
        reference = run_in_process(SpecSource.from_estelle_file(XMOVIE_SPEC))
        other = run_in_process(
            SpecSource.from_estelle_file(XMOVIE_SPEC), dispatch=dispatch
        )
        assert trace_diff(reference.trace, other.trace) is None
        assert other.simulated_time == reference.simulated_time

    def test_executor_and_backend_agree(self):
        source = SpecSource.from_estelle_file(XMOVIE_SPEC)
        backend = run_in_process(source)
        _, executor = run_specification(
            source.build(), two_machine_cluster(), mapping=GroupedMapping(), trace=True
        )
        assert trace_diff(backend.trace, executor.trace) is None
        assert executor.clock.now == backend.simulated_time
