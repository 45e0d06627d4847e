"""The zero-perturbation gate: observability never changes a trace.

The obs subsystem's core contract (ISSUE 7) is that attaching metrics,
events, or sinks must leave every canonical firing trace byte-identical —
instrumentation reads wall time, never the simulated clock, never module
state.  This file asserts exactly that, over the full in-process matrix:

    4 workloads x 3 dispatch strategies x {disabled, enabled, JSONL sink}

with the multiprocess backend covered by a reduced sweep (one observed
cell per workload against the same reference — worker spawns are too slow
to run all 36 cells again, and the worker-side instrumentation is
identical across dispatches).
"""

import json
from pathlib import Path

import pytest

from repro.obs import Observability, RingBufferSink, JsonlSink
from repro.runtime import (
    GroupedMapping,
    InProcessBackend,
    MultiprocessBackend,
    SpecSource,
)
from repro.runtime.tracing import canonical_trace_bytes
from repro.sim import Cluster, Machine

SPEC_DIR = Path(__file__).parent.parent / "examples" / "specs"

#: Every reference workload in the repo, including the delay-paced stream
#: (simulated-time jumps) and the multi-session MCAM tree.
WORKLOADS = (
    "mcam_core.estelle",
    "mcam_sessions.estelle",
    "osi_transfer.estelle",
    "xmovie_stream.estelle",
)
DISPATCHES = ("table-driven", "generated", "planner")
OBS_MODES = ("disabled", "enabled", "jsonl")


def cluster_for(workload: str) -> Cluster:
    cluster = Cluster()
    cluster.add(Machine("ksr1", 2))
    cluster.add(Machine("client-ws-1", 2))
    if workload == "mcam_sessions.estelle":
        cluster.add(Machine("client-ws-2", 2))
    return cluster


def observability_for(mode: str, tmp_path):
    """(obs-or-None, jsonl-path-or-None) for one matrix cell."""
    if mode == "disabled":
        return None, None
    obs = Observability()
    obs.events.attach(RingBufferSink())
    if mode == "jsonl":
        path = tmp_path / "events.jsonl"
        obs.events.attach(JsonlSink(str(path)))
        return obs, path
    return obs, None


def execute(backend, workload: str, dispatch: str, obs) -> bytes:
    result = backend.execute(
        SpecSource.from_estelle_file(SPEC_DIR / workload),
        cluster_for(workload),
        mapping=GroupedMapping(),
        dispatch=dispatch,
        obs=obs,
    )
    assert result.transitions_fired > 0, "a workload that never fires proves nothing"
    return canonical_trace_bytes(result.trace)


@pytest.fixture(scope="module")
def reference_traces():
    """Per-workload reference: in-process, table-driven, no observability."""
    return {
        workload: execute(InProcessBackend(), workload, "table-driven", None)
        for workload in WORKLOADS
    }


class TestInProcessMatrix:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("dispatch", DISPATCHES)
    @pytest.mark.parametrize("mode", OBS_MODES)
    def test_trace_bytes_identical(
        self, workload, dispatch, mode, reference_traces, tmp_path
    ):
        obs, jsonl_path = observability_for(mode, tmp_path)
        trace_bytes = execute(InProcessBackend(), workload, dispatch, obs)
        assert trace_bytes == reference_traces[workload], (
            f"observability mode {mode!r} perturbed the canonical trace of "
            f"{workload} under {dispatch} dispatch"
        )
        if obs is not None:
            # The observed cell really was observed — this is not a vacuous
            # pass with instrumentation accidentally left dangling.
            assert obs.registry.get("repro_executor_rounds_total").value > 0
            assert obs.events.stats()["emitted"] > 0
            assert obs.events.stats()["sink_errors"] == 0
        if jsonl_path is not None:
            obs.events.close()
            lines = jsonl_path.read_text().strip().splitlines()
            assert lines, "the JSONL sink saw no events"
            kinds = {json.loads(line)["kind"] for line in lines}
            assert {"round_start", "round_end", "run_stop"} <= kinds


class TestMultiprocessReducedSweep:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_observed_multiprocess_matches_reference(
        self, workload, reference_traces, tmp_path
    ):
        obs, jsonl_path = observability_for("jsonl", tmp_path)
        trace_bytes = execute(MultiprocessBackend(), workload, "planner", obs)
        assert trace_bytes == reference_traces[workload]
        # Worker-side measurement arrived over the report path...
        registry = obs.registry
        assert registry.get("repro_parallel_rounds_total").value > 0
        busy = registry.get("repro_parallel_unit_busy_seconds_total")
        assert busy is not None and len(busy.children()) >= 2
        # ...and the spawn narration reached the sinks.
        obs.events.close()
        kinds = [json.loads(line)["kind"] for line in jsonl_path.read_text().splitlines()]
        assert kinds.count("worker_spawn") >= 2
