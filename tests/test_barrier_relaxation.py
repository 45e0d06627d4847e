"""Decentralised conservative time management (ISSUE 10).

``MultiprocessBackend(relax_barrier=True)`` lets execution units that wholly
own their system subtrees and declare no delay transition run *windows* of
rounds locally — no global round barrier, no per-round coordinator fold —
while the coordinator folds their streamed round summaries asynchronously
into the canonical trace.  The contract stays the backend's strongest one:
**byte-identical traces** against the in-process executor, now with the
barrier-round fraction below 1.0 on lookahead-friendly workloads.

Also pinned here (same PR): the stale-deadline clock-rewind regression —
a delay timer whose transition is disarmed by a competing firing leaves a
stale entry in the deadline heap; the coordinator chases it with a clock
jump, finds nothing runnable, and must *rewind* so the final
``simulated_time`` matches the in-process executor.
"""

import os
from pathlib import Path

import pytest

from repro.obs import Observability
from repro.runtime import (
    GroupedMapping,
    InProcessBackend,
    MultiprocessBackend,
    SpecSource,
)
from repro.runtime.parallel import ParallelExecutionError
from repro.runtime.parallel.backend import _relaxable_units
from repro.runtime.parallel.worker import UnitDescriptor
from repro.runtime.tracing import canonical_trace_bytes, trace_diff
from repro.sim import Cluster, Machine
from tests.fuzzgen import generate_spec_text
from tests.helpers import osi_by_connection
from tests.test_dynamic_topology import sessions_cluster, sessions_source

SPEC_DIR = Path(__file__).parent.parent / "examples" / "specs"
MCAM_SPEC = SPEC_DIR / "mcam_core.estelle"
OSI_SPEC = SPEC_DIR / "osi_transfer.estelle"
XMOVIE_SPEC = SPEC_DIR / "xmovie_stream.estelle"

TRANSPORTS = ("mp-queue", "tcp")

#: Relaxed-mode differential fuzz seeds (each spawns real workers, so the
#: default is small; CI can raise it like FUZZ_SEEDS/FUZZ_MP_SEEDS).  The
#: mesh has no dispatch axis (ISSUE 15): what were two runs a seed are now
#: two seeds, each held to the in-process ``table-driven`` trace.
RELAX_FUZZ_SEEDS = int(os.environ.get("RELAX_FUZZ_SEEDS", "4"))

# A delay timer armed in round 1 (snooze, deadline 10.0) is disarmed in
# round 2 by the competing when-transition; the stale heap entry is still
# reported as a deadline, so the coordinator jumps to t=10.0, re-selects,
# finds nothing runnable, and must rewind to the pre-jump time (2.0).
STALE_DEADLINE_SRC = """
specification staledeadline;

channel Wire ( a , b );
  by a : Poke ;
end;

module Poker systemprocess;
  ip outp : Wire ( a );
end;

body PokerBody for Poker;
  state ready , done ;
  trans from ready to done
    name send_poke
    cost 1.0
    begin
      output outp.Poke
    end;
end;

module Sleeper systemprocess;
  ip inp : Wire ( b );
end;

body SleeperBody for Sleeper;
  state armed , off ;
  trans from armed to off
    delay 10.0
    name snooze
    cost 1.0
    begin
      a := 1
    end;
  trans from armed to off
    when inp.Poke
    name disarm
    cost 1.0
    begin
      a := 2
    end;
end;

modvar poker : PokerBody at "ksr1" ;
modvar sleeper : SleeperBody at "client-ws-1" ;
connect poker.outp to sleeper.inp ;
end.
"""


def two_machine_cluster(processors: int = 2) -> Cluster:
    cluster = Cluster()
    cluster.add(Machine("ksr1", processors))
    cluster.add(Machine("client-ws-1", processors))
    return cluster


def fuzz_cluster() -> Cluster:
    cluster = Cluster()
    for name in ("m0", "m1", "m2"):
        cluster.add(Machine(name, 2))
    return cluster


def counter_value(obs: Observability, name: str) -> float:
    return obs.registry.counter(name, "").value


def run_relaxed(
    source, cluster, *, transport="mp-queue", obs=None, mapping=None, **kwargs
):
    return MultiprocessBackend(relax_barrier=True, transport=transport).execute(
        source,
        cluster,
        mapping=mapping or GroupedMapping(),
        obs=obs if obs is not None else Observability(),
        **kwargs,
    )


def assert_byte_identical(reference, relaxed, context: str) -> None:
    divergence = trace_diff(reference.trace, relaxed.trace)
    assert divergence is None, f"{context}: {divergence}"
    assert canonical_trace_bytes(reference.trace) == canonical_trace_bytes(
        relaxed.trace
    ), context
    assert relaxed.rounds == reference.rounds > 0, context
    assert relaxed.workers > 1, context
    assert relaxed.deadlocked == reference.deadlocked, context
    assert relaxed.simulated_time == reference.simulated_time, context


def build_delay_spawning_spec():
    """A delay-free system module that dynamically creates a delay-bearing
    child: statically relaxable, but the created child would need the
    coordinator's clock authority — the worker's tripwire must fail loud.

    Module-level factory so spawn-started workers can rebuild it by
    reference (``tests.test_barrier_relaxation:build_delay_spawning_spec``).
    """
    from repro.estelle import Module, ModuleAttribute, Specification, transition

    class NapChild(Module):
        ATTRIBUTE = ModuleAttribute.PROCESS
        STATES = ("dozing", "done")

        @transition(from_state="dozing", to_state="done", delay=4.0, cost=0.5)
        def wake(self):
            pass

    class Spawner(Module):
        ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
        STATES = ("idle", "spawned")

        @transition(from_state="idle", to_state="spawned", cost=1.0)
        def spawn(self):
            self.create_child(NapChild, "nap")

    spec = Specification("delayspawn")
    spec.add_system_module(Spawner, "spawner", location="ksr1")
    spec.register_body_class(NapChild)
    spec.validate()
    return spec


class TestEligibility:
    """The static relaxation predicate: whole-root ownership + delay-free."""

    def test_osi_grouped_mapping_fully_relaxable(self):
        spec = SpecSource.from_estelle_file(OSI_SPEC).build()
        mapping = GroupedMapping().compute(spec, two_machine_cluster())
        units = tuple(
            UnitDescriptor(
                uid=u.uid,
                machine=u.machine,
                processor_index=u.processor_index,
                module_paths=tuple(u.module_paths),
            )
            for u in mapping.units
        )
        owner_of = {p: u.uid for u in units for p in u.module_paths}
        relaxed = _relaxable_units(spec, units, owner_of)
        assert relaxed == {unit.uid for unit in units}

    def test_delay_bearing_units_keep_the_barrier(self):
        spec = SpecSource.from_estelle_file(XMOVIE_SPEC).build()
        mapping = GroupedMapping().compute(spec, two_machine_cluster())
        units = tuple(
            UnitDescriptor(
                uid=u.uid,
                machine=u.machine,
                processor_index=u.processor_index,
                module_paths=tuple(u.module_paths),
            )
            for u in mapping.units
        )
        owner_of = {p: u.uid for u in units for p in u.module_paths}
        assert _relaxable_units(spec, units, owner_of) == frozenset()

    def test_sessions_relaxes_participants_not_the_delay_bearing_manager(self):
        spec = sessions_source().build()
        mapping = GroupedMapping().compute(spec, sessions_cluster())
        units = tuple(
            UnitDescriptor(
                uid=u.uid,
                machine=u.machine,
                processor_index=u.processor_index,
                module_paths=tuple(u.module_paths),
            )
            for u in mapping.units
        )
        owner_of = {p: u.uid for u in units for p in u.module_paths}
        relaxed = _relaxable_units(spec, units, owner_of)
        (mgr_uid,) = [
            u.uid for u in units if "mcam_sessions/mgr" in u.module_paths
        ]
        assert mgr_uid not in relaxed
        assert relaxed == {u.uid for u in units} - {mgr_uid}

    def test_units_sharing_a_system_root_keep_the_barrier(self):
        from repro.estelle import Module, ModuleAttribute, Specification

        class Leaf(Module):
            ATTRIBUTE = ModuleAttribute.PROCESS
            STATES = ("s",)

        class Root(Module):
            ATTRIBUTE = ModuleAttribute.SYSTEMPROCESS
            STATES = ("s",)

        spec = Specification("split")
        a = spec.add_system_module(Root, "a", location="m0")
        a.create_child(Leaf, "c1")
        a.create_child(Leaf, "c2")
        spec.add_system_module(Root, "b", location="m0")
        spec.validate()
        units = (
            UnitDescriptor(
                uid=1,
                machine="m0",
                processor_index=0,
                module_paths=("split/a", "split/a/c1"),
            ),
            UnitDescriptor(
                uid=2,
                machine="m0",
                processor_index=1,
                module_paths=("split/a/c2",),
            ),
            UnitDescriptor(
                uid=3, machine="m0", processor_index=0, module_paths=("split/b",)
            ),
        )
        owner_of = {p: u.uid for u in units for p in u.module_paths}
        # Units 1 and 2 co-own root "a": the precedence fold crosses their
        # boundary every round, so only unit 3 may run ahead.
        assert _relaxable_units(spec, units, owner_of) == {3}


class TestRelaxedEquivalence:
    """Relaxation on: traces stay byte-identical to the in-process executor."""

    @pytest.mark.parametrize("make_mapping", [GroupedMapping, osi_by_connection])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_osi_transfer_fully_relaxed(self, transport, make_mapping):
        source = SpecSource.from_estelle_file(OSI_SPEC)
        reference = InProcessBackend().execute(
            source, two_machine_cluster(), mapping=make_mapping()
        )
        obs = Observability()
        relaxed = run_relaxed(
            source,
            two_machine_cluster(),
            transport=transport,
            obs=obs,
            mapping=make_mapping(),
        )
        assert_byte_identical(
            reference, relaxed, f"osi/{transport}/{make_mapping.__name__}"
        )
        # Every unit wholly owns its (leaf) system root and is delay-free:
        # no unit-round synchronises at the barrier.
        assert counter_value(obs, "repro_parallel_barrier_rounds_total") == 0
        assert counter_value(obs, "repro_parallel_lookahead_rounds_total") == (
            relaxed.rounds * relaxed.workers
        )

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_sessions_mixed_barrier_and_lookahead(self, transport):
        source = sessions_source()
        reference = InProcessBackend().execute(
            source, sessions_cluster(), mapping=GroupedMapping()
        )
        obs = Observability()
        relaxed = run_relaxed(
            source, sessions_cluster(), transport=transport, obs=obs
        )
        assert_byte_identical(reference, relaxed, f"sessions/{transport}")
        # The delay-bearing call manager keeps the barrier; the two
        # participants run ahead — barrier fraction 1/3 per round.
        barrier = counter_value(obs, "repro_parallel_barrier_rounds_total")
        lookahead = counter_value(obs, "repro_parallel_lookahead_rounds_total")
        assert barrier == relaxed.rounds
        assert lookahead == 2 * relaxed.rounds

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_mcam_core_relaxed(self, transport):
        source = SpecSource.from_estelle_file(MCAM_SPEC)
        reference = InProcessBackend().execute(
            source, two_machine_cluster(1), mapping=GroupedMapping()
        )
        obs = Observability()
        relaxed = run_relaxed(
            source, two_machine_cluster(1), transport=transport, obs=obs
        )
        assert_byte_identical(reference, relaxed, f"mcam_core/{transport}")
        # Lookahead-friendly: some unit-rounds leave the barrier.
        assert counter_value(obs, "repro_parallel_lookahead_rounds_total") > 0

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_xmovie_falls_back_to_full_barrier(self, transport):
        source = SpecSource.from_estelle_file(XMOVIE_SPEC)
        reference = InProcessBackend().execute(
            source, two_machine_cluster(), mapping=GroupedMapping()
        )
        obs = Observability()
        relaxed = run_relaxed(
            source, two_machine_cluster(), transport=transport, obs=obs
        )
        assert_byte_identical(reference, relaxed, f"xmovie/{transport}")
        # Both units carry delay transitions: relaxation must be inert
        # (barrier fraction exactly 1.0).
        assert counter_value(obs, "repro_parallel_lookahead_rounds_total") == 0
        assert counter_value(obs, "repro_parallel_barrier_rounds_total") == (
            relaxed.rounds * relaxed.workers
        )
        # ... and indistinguishable from asking for the strict protocol:
        # relax_barrier=False is the same loop with nobody relaxed.
        strict_obs = Observability()
        strict = MultiprocessBackend(relax_barrier=False, transport=transport).execute(
            source, two_machine_cluster(), mapping=GroupedMapping(), obs=strict_obs
        )
        assert_byte_identical(strict, relaxed, "xmovie strict vs relaxed")
        for name in (
            "repro_parallel_barrier_rounds_total",
            "repro_parallel_lookahead_rounds_total",
        ):
            assert counter_value(strict_obs, name) == counter_value(obs, name)

    def test_small_lookahead_window_equivalent(self):
        """The window size changes scheduling texture, never the trace."""
        source = SpecSource.from_estelle_file(OSI_SPEC)
        reference = InProcessBackend().execute(
            source, two_machine_cluster(), mapping=GroupedMapping()
        )
        relaxed = MultiprocessBackend(
            relax_barrier=True, lookahead_rounds=1
        ).execute(source, two_machine_cluster(), mapping=GroupedMapping())
        assert_byte_identical(reference, relaxed, "osi/lookahead=1")

    def test_lookahead_rounds_must_be_positive(self):
        with pytest.raises(ValueError, match="lookahead_rounds"):
            MultiprocessBackend(relax_barrier=True, lookahead_rounds=0)


class TestDynamicDelayTripwire:
    def test_dynamic_delay_child_on_relaxed_unit_fails_loud(self):
        source = SpecSource.from_factory(
            "tests.test_barrier_relaxation:build_delay_spawning_spec"
        )
        with pytest.raises(ParallelExecutionError, match="relax_barrier=False"):
            run_relaxed(source, two_machine_cluster())

    def test_same_spec_runs_under_the_strict_barrier(self):
        source = SpecSource.from_factory(
            "tests.test_barrier_relaxation:build_delay_spawning_spec"
        )
        reference = InProcessBackend().execute(
            source, two_machine_cluster(), mapping=GroupedMapping()
        )
        strict = MultiprocessBackend().execute(
            source, two_machine_cluster(), mapping=GroupedMapping()
        )
        assert trace_diff(reference.trace, strict.trace) is None


class TestStaleDeadlineRewind:
    """Regression: a stale deadline jump must rewind, on every path."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_simulated_time_matches_in_process(self, transport):
        source = SpecSource.from_estelle_text(STALE_DEADLINE_SRC)
        reference = InProcessBackend().execute(
            source, two_machine_cluster(), mapping=GroupedMapping()
        )
        multiprocess = MultiprocessBackend(transport=transport).execute(
            source, two_machine_cluster(), mapping=GroupedMapping()
        )
        context = f"stale-deadline/{transport}"
        assert trace_diff(reference.trace, multiprocess.trace) is None, context
        assert multiprocess.stop_reason == "quiescent", context
        assert multiprocess.simulated_time == reference.simulated_time, context
        # The snooze timer (deadline 10.0) went stale when disarm fired at
        # t=1.0; the jump chased it and was rewound — the run must end at
        # the last *fired* round's time, far before the stale deadline.
        assert multiprocess.simulated_time < 10.0, context
        assert not multiprocess.deadlocked, context

    def test_in_process_reference_shape(self):
        """Sanity-pin the scenario itself: 2 rounds, disarm beats snooze."""
        source = SpecSource.from_estelle_text(STALE_DEADLINE_SRC)
        reference = InProcessBackend().execute(
            source, two_machine_cluster(), mapping=GroupedMapping()
        )
        fired = [event.transition_name for event in reference.trace.all_firings()]
        assert fired == ["send_poke", "disarm"]
        assert reference.simulated_time == 2.0


class TestRelaxedFuzz:
    """Generated specs: relaxation must never change a canonical trace."""

    @pytest.mark.parametrize("seed", range(RELAX_FUZZ_SEEDS))
    def test_fuzzed_specs_byte_identical_with_relaxation(self, seed):
        source = SpecSource.from_estelle_text(
            generate_spec_text(seed), filename=f"<fuzz seed {seed}>"
        )
        reference = InProcessBackend().execute(
            source, fuzz_cluster(), mapping=GroupedMapping(), max_rounds=400
        )
        try:
            relaxed = run_relaxed(source, fuzz_cluster(), max_rounds=400)
        except ParallelExecutionError as exc:
            if "relax_barrier=False" in str(exc):
                # The generated spec dynamically created a delay-bearing
                # module on a relaxed unit: the documented conservative
                # fallback is to re-run strictly, not to diverge silently.
                pytest.skip(f"seed {seed} trips the dynamic-delay tripwire")
            raise
        assert_byte_identical(reference, relaxed, f"fuzz seed {seed}")
