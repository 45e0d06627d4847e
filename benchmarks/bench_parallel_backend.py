"""E-PAR — the multiprocess backend: measured wall-clock vs predicted speedup.

The paper predicts speedup from decentralised scheduling and module grouping;
``repro.runtime.executor`` reproduces those *predictions* with its cost
model.  The multiprocess backend turns the prediction into a measurement:
the same OSI transfer specification runs once on the in-process backend
(serial wall-clock baseline) and once with one OS worker process per
execution unit, both burning the same emulated per-firing processing time
(``busy_work_us_per_cost``), so the wall-clock ratio measures how much of
the modelled overlap the real backend achieves on the host it runs on.

Two caveats the recorded numbers carry explicitly:

* measured speedup is hardware-honest — on a single-core CI runner the
  workers time-slice one CPU and the ratio sits below 1 while the *model*
  (which assumes one processor per unit) still predicts > 1;
* trace equivalence is asserted on every run: a measured number from a
  backend that diverged behaviourally would be worthless.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness import ExperimentRecord, print_experiment
from repro.runtime import (
    ConnectionPerProcessorMapping,
    InProcessBackend,
    MultiprocessBackend,
    SequentialMapping,
    SpecSource,
    ThreadPerModuleMapping,
    run_specification,
)
from repro.runtime.parallel import trace_diff
from repro.sim import Cluster, Machine

SPEC_PATH = Path(__file__).parent.parent / "examples" / "specs" / "osi_transfer.estelle"
#: Emulated per-firing processing time (µs per cost unit) for the measured
#: comparison; large enough that firing work dominates queue chatter.
BUSY_WORK_US = 400.0
PROCESSORS_PER_MACHINE = 2


def connection_of(module) -> str:
    """The connection id encoded in the instance names (``*_c1`` / ``*_c2``)."""
    return module.name.rsplit("_", 1)[-1]


def parallel_mapping() -> ConnectionPerProcessorMapping:
    """The paper's winning mapping: one unit per connection per machine."""
    return ConnectionPerProcessorMapping(key=connection_of)


def build_cluster(processors: int) -> Cluster:
    cluster = Cluster()
    cluster.add(Machine("ksr1", processors))
    cluster.add(Machine("client-ws-1", processors))
    return cluster


def predicted_speedup() -> dict:
    """The cost model's prediction: sequential vs connection-per-processor."""
    sequential, _ = run_specification(
        SpecSource.from_estelle_file(SPEC_PATH).build(),
        build_cluster(1),
        mapping=SequentialMapping(),
    )
    parallel, _ = run_specification(
        SpecSource.from_estelle_file(SPEC_PATH).build(),
        build_cluster(PROCESSORS_PER_MACHINE),
        mapping=parallel_mapping(),
    )
    return {
        "sequential_model_time": sequential.elapsed_time,
        "parallel_model_time": parallel.elapsed_time,
        "predicted_speedup": parallel.speedup_against(sequential),
    }


def measured_speedup(
    busy_work_us: float = BUSY_WORK_US, transport: str = "mp-queue"
) -> dict:
    """Measured wall-clock: in-process serial vs multiprocess workers."""
    source = SpecSource.from_estelle_file(SPEC_PATH)
    cluster = build_cluster(PROCESSORS_PER_MACHINE)
    in_process = InProcessBackend().execute(
        source,
        cluster,
        mapping=parallel_mapping(),
        busy_work_us_per_cost=busy_work_us,
    )
    multiprocess = MultiprocessBackend(transport=transport).execute(
        source,
        cluster,
        mapping=parallel_mapping(),
        busy_work_us_per_cost=busy_work_us,
    )
    divergence = trace_diff(in_process.trace, multiprocess.trace)
    host_cpus = os.cpu_count() or 1
    return {
        "busy_work_us_per_cost": busy_work_us,
        "transport": multiprocess.transport,
        "workers": multiprocess.workers,
        "rounds": multiprocess.rounds,
        "transitions_fired": multiprocess.transitions_fired,
        "in_process_wall_s": in_process.wall_seconds,
        "multiprocess_wall_s": multiprocess.wall_seconds,
        "measured_speedup": in_process.wall_seconds / multiprocess.wall_seconds,
        "traces_identical": divergence is None,
        "trace_divergence": divergence,
        "host_cpus": os.cpu_count(),
        # Honesty flag: the measured number only speaks to the predicted one
        # when the host can actually run one worker per processor.  On an
        # undersized host (e.g. host_cpus=1, workers=4) the workers
        # time-slice and measured_speedup < 1 is expected, not a regression.
        "comparable": host_cpus >= multiprocess.workers,
    }


def oversubscribed_cell(transport: str, busy_work_us: float = 50.0) -> dict:
    """Deliberately run more workers than the host has CPUs (ROADMAP 3c).

    One worker per module (12 units on the OSI workload) oversubscribes any
    realistic runner, so the honesty flags — ``oversubscribed`` and
    ``comparable`` — are exercised *explicitly* per transport instead of
    depending on whichever machine CI happens to land on.  The trace oracle
    still applies: time-slicing may destroy the speedup, never the bytes.
    """
    source = SpecSource.from_estelle_file(SPEC_PATH)
    cluster = build_cluster(PROCESSORS_PER_MACHINE)
    reference = InProcessBackend().execute(
        source,
        cluster,
        mapping=ThreadPerModuleMapping(),
        busy_work_us_per_cost=busy_work_us,
    )
    result = MultiprocessBackend(transport=transport).execute(
        source,
        cluster,
        mapping=ThreadPerModuleMapping(),
        busy_work_us_per_cost=busy_work_us,
    )
    divergence = trace_diff(reference.trace, result.trace)
    host_cpus = os.cpu_count() or 1
    return {
        "transport": result.transport,
        "workers": result.workers,
        "host_cpus": os.cpu_count(),
        "oversubscribed": result.workers > host_cpus,
        "comparable": host_cpus >= result.workers,
        "measured_speedup": reference.wall_seconds / result.wall_seconds,
        "traces_identical": divergence is None,
        "trace_divergence": divergence,
    }


def measured_vs_predicted(busy_work_us: float = BUSY_WORK_US) -> dict:
    """The record ``benchmarks/run_all.py`` writes into BENCH_results.json."""
    record = ExperimentRecord(
        experiment_id="E-PAR",
        title="Multiprocess backend: measured wall-clock vs model-predicted speedup",
        paper_claim="decentralised scheduling keeps selection off the critical "
        "path, so grouped units approach the modelled parallel speedup",
    )
    results = {**predicted_speedup(), **measured_speedup(busy_work_us)}
    results["oversubscribed_cells"] = [
        oversubscribed_cell(transport) for transport in ("mp-queue", "tcp")
    ]
    record.add_row(
        transport=results["transport"],
        workers=results["workers"],
        predicted_speedup=round(results["predicted_speedup"], 2),
        measured_speedup=round(results["measured_speedup"], 2),
        in_process_wall_ms=round(results["in_process_wall_s"] * 1e3, 1),
        multiprocess_wall_ms=round(results["multiprocess_wall_s"] * 1e3, 1),
        traces_identical=results["traces_identical"],
        host_cpus=results["host_cpus"],
        comparable=results["comparable"],
    )
    for cell in results["oversubscribed_cells"]:
        record.add_row(
            transport=cell["transport"],
            workers=cell["workers"],
            measured_speedup=round(cell["measured_speedup"], 2),
            traces_identical=cell["traces_identical"],
            host_cpus=cell["host_cpus"],
            oversubscribed=cell["oversubscribed"],
            comparable=cell["comparable"],
        )
    print_experiment(record)
    if not results["comparable"]:
        print(
            f"   note: measured_speedup is NOT comparable to predicted_speedup "
            f"on this host ({results['host_cpus']} CPU(s) < "
            f"{results['workers']} workers); workers time-slice, so a ratio "
            "below 1 is expected here and does not indicate a regression."
        )
    return results


#: The equivalence matrix of ISSUE 3 (+ the delay workload of ISSUE 4):
#: every in-process dispatch and the mesh over every transport must produce
#: byte-identical canonical firing traces on every workload — including
#: simulated time on the delay-paced xmovie stream.
MATRIX_DISPATCHES = ("table-driven", "generated", "planner")
MATRIX_SPECS = {
    "mcam_core.estelle": SPEC_PATH.parent / "mcam_core.estelle",
    "osi_transfer.estelle": SPEC_PATH,
    "xmovie_stream.estelle": SPEC_PATH.parent / "xmovie_stream.estelle",
}


def equivalence_matrix() -> dict:
    """{in-process × the three dispatches} ∪ {multiprocess × {mp-queue, tcp}}.

    The in-process table-driven trace of each workload is the reference; a
    cell records whether its trace is byte-identical to that reference, so
    ``traces_identical`` being true everywhere proves all five combinations
    per workload agree with each other.  Dispatch is an axis of the
    in-process executor only: the mesh plans one way (dirty deltas,
    generated selectors, the slot fold — ISSUE 15), so its cells carry
    ``dispatch: None``.  The transport axis (ISSUE 9) is a real matrix
    dimension, not a bypass: the tcp mesh must reproduce the bytes exactly
    like mp-queue.

    The multiprocess cells run with ``relax_barrier=True`` (ISSUE 10): the
    conservative-lookahead coordinator is the *default under test*, so the
    15-cell byte-identity proof covers the relaxed round loop — and its
    full-barrier fallback, which the delay-paced xmovie workload forces.
    """
    cells = []
    all_identical = True
    for spec_name, spec_path in MATRIX_SPECS.items():
        source = SpecSource.from_estelle_file(spec_path)
        reference = None
        for backend_name, transport, dispatch, backend in (
            *(
                ("in-process", None, dispatch, InProcessBackend())
                for dispatch in MATRIX_DISPATCHES
            ),
            ("multiprocess", "mp-queue", None, MultiprocessBackend(relax_barrier=True)),
            (
                "multiprocess",
                "tcp",
                None,
                MultiprocessBackend(transport="tcp", relax_barrier=True),
            ),
        ):
            result = backend.execute(
                source,
                build_cluster(PROCESSORS_PER_MACHINE),
                mapping=parallel_mapping(),
                **({"dispatch": dispatch} if dispatch else {}),
            )
            if reference is None:
                reference = result.trace
            divergence = trace_diff(reference, result.trace)
            cells.append(
                {
                    "workload": spec_name,
                    "backend": backend_name,
                    "transport": transport,
                    "relax_barrier": backend_name == "multiprocess",
                    "dispatch": dispatch,
                    "rounds": result.rounds,
                    "transitions_fired": result.transitions_fired,
                    "traces_identical": divergence is None,
                    "trace_divergence": divergence,
                }
            )
            all_identical = all_identical and divergence is None
    return {"cells": cells, "all_traces_identical": all_identical}


class TestParallelBackendBench:
    def test_measured_vs_predicted(self, benchmark):
        results = benchmark.pedantic(measured_vs_predicted, rounds=1, iterations=1)
        # Behavioural equivalence is non-negotiable for a valid measurement.
        assert results["traces_identical"], results["trace_divergence"]
        # The model's prediction must land in the paper's two-connection band.
        assert 1.3 <= results["predicted_speedup"] <= 2.2
        # The measurement itself is hardware-honest: only sanity-check it.
        assert results["measured_speedup"] > 0.0
        assert results["workers"] == 4
        assert results["transport"] == "mp-queue"
        # The oversubscribed cells force workers > host CPUs per transport:
        # flags must be explicit and the trace oracle must survive slicing.
        assert [c["transport"] for c in results["oversubscribed_cells"]] == [
            "mp-queue",
            "tcp",
        ]
        for cell in results["oversubscribed_cells"]:
            assert cell["traces_identical"], cell["trace_divergence"]
            assert cell["workers"] > 4
            if (cell["host_cpus"] or 1) < cell["workers"]:
                assert cell["oversubscribed"] and not cell["comparable"]
        if (results["host_cpus"] or 1) >= results["workers"]:
            # With enough real processors, the measured run must actually
            # overlap firing work (well below the serial wall-clock).
            assert results["measured_speedup"] > 1.0

    def test_busy_work_scales_wall_clock(self, benchmark):
        """More emulated processing time means more measured wall-clock."""
        light = benchmark.pedantic(
            measured_speedup, kwargs={"busy_work_us": 50.0}, rounds=1, iterations=1
        )
        assert light["traces_identical"]
        assert light["in_process_wall_s"] > 0

    def test_equivalence_matrix_all_cells_identical(self, benchmark):
        """Every cell must match the in-process table-driven reference trace."""
        matrix = benchmark.pedantic(equivalence_matrix, rounds=1, iterations=1)
        failures = [c for c in matrix["cells"] if not c["traces_identical"]]
        assert matrix["all_traces_identical"], failures
        # 3 workloads × {3 in-process dispatches + mp over mp-queue + mp over tcp}
        assert len(matrix["cells"]) == 15
