"""Session isolation property (ISSUE 6): interleaved == sequential, byte-for-byte.

The service's core promise is that hosting does not change semantics: a
spec instance stepped in timeslices, interleaved with many other sessions
on one engine (shared compiled templates, one selector per module class,
shared planner code objects, worker-pool fan-out), must produce the
*byte-identical canonical trace* of the same spec run alone, sequentially,
to quiescence — by the plain in-process executor under the interpreted
``table-driven`` walk, the repo's reference oracle (sessions plan one way,
through the planner: ISSUE 15).

The property is checked over the differential fuzzer's generated corpus
(``tests/fuzzgen.py`` — states, guards, priorities, delays, quantifiers,
IP arrays, dynamic init/release), so it joins the same equivalence family
as the backend x dispatch matrix: ``SERVE_ISOLATION_SEEDS`` seeds (default
20), every seed hosted twice in one engine to also catch cross-talk
between two sessions of the *same* compiled entry.  It is checked under
load too: 1000 live ``mcam_sessions`` instances of one compiled entry.

On failure the assertion message carries the seed — replay with
``tests.fuzzgen.generate_spec_text(seed)``.
"""

import os
from pathlib import Path

import pytest

from repro.runtime import SpecificationExecutor, SpecSource, TableDrivenDispatch
from repro.runtime.tracing import canonical_trace_bytes, trace_diff
from repro.serve import SessionEngine
from repro.serve.engine import SESSION_PROCESSORS
from repro.sim.machine import cluster_from_placements
from tests.fuzzgen import generate_spec_text

ISOLATION_SEEDS = int(os.environ.get("SERVE_ISOLATION_SEEDS", "20"))
#: two sessions per seed: same-entry neighbours are the likeliest cross-talk.
COPIES_PER_SEED = 2
SLICE_ROUNDS = 3
MAX_ROUNDS = 400  # same bound the spec fuzzer uses; every seed halts within it
MCAM_SESSIONS = Path(__file__).parent.parent / "examples" / "specs" / "mcam_sessions.estelle"


def fuzz_sources():
    return {
        seed: SpecSource.from_estelle_text(
            generate_spec_text(seed), filename=f"<fuzz seed {seed}>"
        )
        for seed in range(ISOLATION_SEEDS)
    }


def mcam_sessions_source():
    return {"mcam_sessions": SpecSource.from_estelle_file(MCAM_SESSIONS)}


def run_alone(source):
    """The spec on a bare executor, table-driven, alone, to quiescence."""
    specification = source.build()
    executor = SpecificationExecutor(
        specification,
        cluster_from_placements(specification, SESSION_PROCESSORS),
        dispatch=TableDrivenDispatch(),
        trace=True,
    )
    executor.run(max_rounds=MAX_ROUNDS)
    return executor.trace


@pytest.mark.parametrize(
    "make_sources,copies,slice_rounds",
    [
        pytest.param(fuzz_sources, COPIES_PER_SEED, SLICE_ROUNDS, id="fuzz-corpus"),
        pytest.param(mcam_sessions_source, 1000, 7, id="1000-mcam-sessions"),
    ],
)
def test_interleaved_sessions_byte_identical_to_sequential(make_sources, copies, slice_rounds):
    sources = make_sources()
    references = {
        seed: canonical_trace_bytes(run_alone(source))
        for seed, source in sources.items()
    }

    # One engine hosts the whole corpus at once; every session advances a few
    # rounds per sweep over the worker pool, maximally interleaved.
    with SessionEngine() as engine:
        owners = {}
        for seed, source in sources.items():
            for _ in range(copies):
                owners[engine.create_session(source)] = seed
        assert engine.stats()["peak_sessions"] == len(owners)

        live = set(owners)
        budget = {sid: MAX_ROUNDS for sid in owners}
        while live:
            for sid, health in engine.step_all(sorted(live), rounds=slice_rounds).items():
                budget[sid] -= slice_rounds
                if health["stop_reason"] == "quiescent" or budget[sid] <= 0:
                    live.discard(sid)

        registry_stats = engine.registry.stats()
        for sid, seed in owners.items():
            session = engine._session(sid)
            got = canonical_trace_bytes(session.executor.trace)
            if got != references[seed]:
                divergence = trace_diff(
                    run_alone(sources[seed]), session.executor.trace
                )
                pytest.fail(
                    f"source {seed!r}: hosted session {sid} diverged "
                    f"from the sequential reference: {divergence}\n"
                    "a fuzz seed replays with tests.fuzzgen.generate_spec_text(seed)"
                )

    # Compile-once held across the whole corpus: one compile per distinct
    # source, however many sessions it hosts.
    assert registry_stats["entries"] == len(sources)
    for spec_stats in registry_stats["specs"]:
        assert spec_stats["compile_count"] == 1, spec_stats
        assert spec_stats["instantiations"] == copies


def test_simulated_time_isolated_per_session():
    """A fast-forwarded neighbour must not advance another session's clock."""
    source = SpecSource.from_estelle_text(
        generate_spec_text(0), filename="<fuzz seed 0>"
    )
    with SessionEngine() as engine:
        fast = engine.create_session(source)
        idle = engine.create_session(source)
        engine.step(fast, rounds=MAX_ROUNDS)
        assert engine.health(idle)["simulated_time"] == 0
        assert engine.health(idle)["rounds"] == 0
