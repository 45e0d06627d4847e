"""E-DELAY — delay semantics on the simulated clock: the xmovie stream pacing.

ISSUE 4's before/after: ``delay`` clauses used to be parsed and silently
ignored, so a delay-paced spec ran with the same schedule as the undelayed
spec.  This benchmark runs ``examples/specs/xmovie_stream.estelle`` — the
XMovie-style stream-control workload whose frame rate is driven entirely by
delay clauses — and records:

* the **pacing story**: the paced spec's frame schedule (minimum inter-frame
  simulated gap, final simulated time) next to the same spec with the delay
  clauses stripped — the stripped run reproduces the old buggy schedule, so
  the two differing is the regression gate pinning the fix;
* the **delay equivalence matrix**: {in-process, multiprocess} ×
  {table-driven, generated, planner} on the delayed workload, all required
  byte-identical — including ``FiringEvent.time``, which both backends must
  derive from the same clock arithmetic (advance by the busiest unit's
  firing-cost sum; jump to the next delay deadline on empty rounds);
* round-loop wall-clock of the delayed run per dispatch strategy, so the
  cost of delay-eligibility checks on the hot path stays visible.

``benchmarks/run_all.py`` consolidates the record under ``delay_round`` in
``BENCH_results.json`` and fails on any trace divergence or on a paced run
that stops pacing (gated like the planner bench).
"""

from __future__ import annotations

import re
import time
from pathlib import Path

import pytest

from repro.harness import ExperimentRecord, print_experiment
from repro.runtime import (
    GroupedMapping,
    InProcessBackend,
    MultiprocessBackend,
    SpecSource,
)
from repro.runtime.parallel import trace_diff
from repro.sim import Cluster, Machine

SPEC_PATH = Path(__file__).parent.parent / "examples" / "specs" / "xmovie_stream.estelle"
DISPATCHES = ("table-driven", "generated", "planner")
#: the server's declared pacing floor (delay lower bound of send_frame).
FRAME_DELAY = 3.0


def build_cluster(processors: int = 1) -> Cluster:
    cluster = Cluster()
    cluster.add(Machine("ksr1", processors))
    cluster.add(Machine("client-ws-1", processors))
    return cluster


def undelayed_source() -> SpecSource:
    """The same workload with every delay clause stripped.

    Reproduces the pre-fix behaviour (delay parsed then ignored) so the
    recorded schedules document the bug the clock wiring removed.
    """
    text = SPEC_PATH.read_text()
    stripped = re.sub(r"delay\s*(\(\s*[\d.]+\s*,\s*[\d.]+\s*\)|[\d.]+)", "", text)
    return SpecSource.from_estelle_text(stripped, filename="<xmovie-undelayed>")


def _frame_schedule(result) -> dict:
    frames = [
        event
        for event in result.trace.all_firings()
        if event.transition_name == "send_frame"
    ]
    gaps = [b.time - a.time for a, b in zip(frames, frames[1:])]
    return {
        "frames": len(frames),
        "first_frame_time": frames[0].time if frames else None,
        "min_frame_gap": min(gaps) if gaps else None,
        "rounds": result.rounds,
        "simulated_time": result.simulated_time,
    }


def pacing_report() -> dict:
    """Paced vs delay-stripped schedule on the in-process backend."""
    paced = InProcessBackend().execute(
        SpecSource.from_estelle_file(SPEC_PATH), build_cluster(), mapping=GroupedMapping()
    )
    unpaced = InProcessBackend().execute(
        undelayed_source(), build_cluster(), mapping=GroupedMapping()
    )
    paced_schedule = _frame_schedule(paced)
    unpaced_schedule = _frame_schedule(unpaced)
    return {
        "paced": paced_schedule,
        "undelayed": unpaced_schedule,
        "frame_delay": FRAME_DELAY,
        # The regression gate: pacing must actually stretch the schedule.
        "pacing_effective": (
            paced_schedule["frames"] == unpaced_schedule["frames"]
            and paced_schedule["min_frame_gap"] is not None
            and paced_schedule["min_frame_gap"] >= FRAME_DELAY
            and paced_schedule["simulated_time"] > unpaced_schedule["simulated_time"]
        ),
        "deadlocked": paced.deadlocked or unpaced.deadlocked,
    }


def delay_matrix() -> dict:
    """{in-process × dispatch} ∪ {multiprocess} on the delayed workload.

    Dispatch is the in-process executor's axis; the mesh plans one way
    (ISSUE 15), so its one cell carries ``dispatch: None``.
    """
    source = SpecSource.from_estelle_file(SPEC_PATH)
    cells = []
    all_identical = True
    reference = None
    for backend_name, dispatch, backend in (
        *(("in-process", dispatch, InProcessBackend()) for dispatch in DISPATCHES),
        ("multiprocess", None, MultiprocessBackend()),
    ):
        started = time.perf_counter()
        result = backend.execute(
            source,
            build_cluster(),
            mapping=GroupedMapping(),
            **({"dispatch": dispatch} if dispatch else {}),
        )
        wall_ms = (time.perf_counter() - started) * 1e3
        if reference is None:
            reference = result.trace
        divergence = trace_diff(reference, result.trace)
        cells.append(
            {
                "backend": backend_name,
                "dispatch": dispatch,
                "rounds": result.rounds,
                "transitions_fired": result.transitions_fired,
                "simulated_time": result.simulated_time,
                "wall_ms": wall_ms,
                "traces_identical": divergence is None,
                "trace_divergence": divergence,
            }
        )
        all_identical = all_identical and divergence is None
    return {"cells": cells, "all_traces_identical": all_identical}


def delay_round_results() -> dict:
    """The record ``benchmarks/run_all.py`` writes into BENCH_results.json."""
    record = ExperimentRecord(
        experiment_id="E-DELAY",
        title="Delay semantics: xmovie stream pacing on the simulated clock",
        paper_claim="XMovie stream control paces frames on timed transitions; "
        "delay clauses must be wired to the runtime's clock, not ignored",
    )
    pacing = pacing_report()
    matrix = delay_matrix()
    record.add_row(
        paced_min_gap=pacing["paced"]["min_frame_gap"],
        paced_sim_time=round(pacing["paced"]["simulated_time"], 2),
        undelayed_sim_time=round(pacing["undelayed"]["simulated_time"], 2),
        pacing_effective=pacing["pacing_effective"],
        matrix_identical=matrix["all_traces_identical"],
        matrix_cells=len(matrix["cells"]),
    )
    print_experiment(record)
    return {
        "workload": "examples/specs/xmovie_stream.estelle",
        "pacing": pacing,
        "matrix": matrix,
    }


class TestDelayRoundBench:
    def test_pacing_is_effective(self, benchmark):
        """The pinned regression: pacing must change (stretch) the schedule."""
        pacing = benchmark.pedantic(pacing_report, rounds=1, iterations=1)
        assert not pacing["deadlocked"]
        assert pacing["pacing_effective"], pacing
        # The old bug exactly: the undelayed run fires frames back-to-back.
        assert pacing["undelayed"]["min_frame_gap"] < FRAME_DELAY

    def test_delay_matrix_byte_identical(self, benchmark):
        matrix = benchmark.pedantic(delay_matrix, rounds=1, iterations=1)
        failures = [c for c in matrix["cells"] if not c["traces_identical"]]
        assert matrix["all_traces_identical"], failures
        assert len(matrix["cells"]) == 4  # 3 in-process dispatches + the mesh
        simulated = {round(c["simulated_time"], 9) for c in matrix["cells"]}
        assert len(simulated) == 1  # one shared clock reading everywhere
