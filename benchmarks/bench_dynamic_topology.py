"""E-DYN — dynamic module topology: the mcam_sessions workload.

ISSUE 5's before/after: the runtime always had ``Module.create_child`` /
``release_child`` and the planner always had a structure-epoch rebuild path,
but no ``.estelle`` text could reach them — dynamic topology was dead-on-
arrival machinery.  This benchmark runs ``examples/specs/mcam_sessions.
estelle`` — the paper's MCAM videoconference model: a manager spawning and
releasing per-call session handler modules through the new ``init`` /
``release`` statements and an interaction-point array — and records:

* the **dynamic story**: how many handler modules were spawned and released,
  that a released variable was re-inited under a fresh deterministic name,
  and the planner's structure-epoch/rebuild accounting (rebuild count must
  equal epoch bumps + the initial build on this workload);
* the **dynamic equivalence matrix**: {in-process, multiprocess} ×
  {table-driven, generated, planner} on the dynamic workload, all required
  byte-identical — a dynamically created child runs on its parent's
  execution unit in the multiprocess backend, so even ``unit_id`` and
  ``machine`` trace fields must agree;
* round-loop wall-clock per cell, so the cost of topology replay on the
  multiprocess round protocol stays visible.

``benchmarks/run_all.py`` consolidates the record under ``dynamic_topology``
in ``BENCH_results.json`` and fails on any trace divergence.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.harness import ExperimentRecord, print_experiment
from repro.runtime import (
    GroupedMapping,
    InProcessBackend,
    MultiprocessBackend,
    SpecSource,
    dispatch_by_name,
)
from repro.runtime.executor import SpecificationExecutor
from repro.runtime.parallel import trace_diff
from repro.sim import Cluster, Machine

SPEC_PATH = Path(__file__).parent.parent / "examples" / "specs" / "mcam_sessions.estelle"
DISPATCHES = ("table-driven", "generated", "planner")


def build_cluster(processors: int = 2) -> Cluster:
    cluster = Cluster()
    for name in ("ksr1", "client-ws-1", "client-ws-2"):
        cluster.add(Machine(name, processors))
    return cluster


def dynamic_report() -> dict:
    """The dynamic-topology story on the in-process planner executor."""
    specification = SpecSource.from_estelle_file(SPEC_PATH).build()
    executor = SpecificationExecutor(
        specification,
        build_cluster(),
        mapping=GroupedMapping(),
        dispatch=dispatch_by_name("planner"),
        trace=True,
    )
    executor.run()
    planner = executor.planner
    fired_paths = [e.module_path for e in executor.trace.all_firings()]
    dynamic_paths = sorted({p for p in fired_paths if "#" in p})
    spawned = {
        e.transition_name for e in executor.trace.all_firings()
    } & {"accept_1", "accept_2"}
    releases = sum(
        1
        for e in executor.trace.all_firings()
        if e.transition_name in ("close_1", "close_2")
    )
    epoch = planner.tracker.structure_epoch
    return {
        "dynamic_module_paths": dynamic_paths,
        "reinited_serial_paths": [p for p in dynamic_paths if p.endswith("#2")],
        "sessions_released": releases,
        "structure_epoch_bumps": epoch,
        "planner_rebuilds": planner.stats.rebuilds,
        # On this workload every epoch bump lands between two plans, so the
        # rebuild count must track the epochs exactly (+1 initial build).
        "rebuilds_track_epochs": planner.stats.rebuilds == epoch + 1,
        "spawn_transitions_seen": sorted(spawned),
        "deadlocked": executor.deadlocked,
    }


def dynamic_matrix() -> dict:
    """{in-process × dispatch} ∪ {multiprocess} on the dynamic workload.

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


def dynamic_topology_results() -> dict:
    """The record ``benchmarks/run_all.py`` writes into BENCH_results.json."""
    record = ExperimentRecord(
        experiment_id="E-DYN",
        title="Dynamic topology: MCAM session handlers spawned and released",
        paper_claim="the MCAM model attaches a dedicated handler module to "
        "every multimedia call; Estelle init/release must reach the runtime "
        "and stay trace-equivalent across backends",
    )
    report = dynamic_report()
    matrix = dynamic_matrix()
    record.add_row(
        dynamic_modules=len(report["dynamic_module_paths"]),
        sessions_released=report["sessions_released"],
        epoch_bumps=report["structure_epoch_bumps"],
        rebuilds_track_epochs=report["rebuilds_track_epochs"],
        matrix_identical=matrix["all_traces_identical"],
        matrix_cells=len(matrix["cells"]),
    )
    print_experiment(record)
    return {
        "workload": "examples/specs/mcam_sessions.estelle",
        "dynamic": report,
        "matrix": matrix,
    }


class TestDynamicTopologyBench:
    def test_dynamic_story(self, benchmark):
        report = benchmark.pedantic(dynamic_report, rounds=1, iterations=1)
        assert not report["deadlocked"]
        # Three sessions across the run: two first calls plus the re-dial.
        assert len(report["dynamic_module_paths"]) == 3
        assert report["reinited_serial_paths"]  # alice's second call: s1#2
        assert report["sessions_released"] == 3
        assert report["structure_epoch_bumps"] == 6  # 3 inits + 3 releases
        assert report["rebuilds_track_epochs"], report

    def test_dynamic_matrix_byte_identical(self, benchmark):
        matrix = benchmark.pedantic(dynamic_matrix, rounds=1, iterations=1)
        failures = [c for c in matrix["cells"] if not c["traces_identical"]]
        assert matrix["all_traces_identical"], failures
        assert len(matrix["cells"]) == 4  # 3 in-process dispatches + the mesh
        simulated = {round(c["simulated_time"], 9) for c in matrix["cells"]}
        assert len(simulated) == 1  # one shared clock reading everywhere
