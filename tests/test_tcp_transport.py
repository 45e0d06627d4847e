"""The TCP transport's acceptance tests: the same oracle, a different wire.

The equivalence matrix grows a transport axis instead of a bypass: the
multiprocess backend over ``TcpTransport`` (localhost socket mesh, address-
based handshakes) must produce byte-identical canonical firing traces to
the in-process reference on all four ``.estelle`` workloads — and a seeded
``WorkerCrash`` respawn over TCP must reproduce the fault-free trace too,
which exercises the whole recovery chain that has no mp-queue counterpart:
the coordinator-held listener surviving the worker's death, peers redialling
on the supervisor's ``reconnect`` command, retransmit slots re-sending the
crashed round's batches, and stale-round-tag dedup absorbing every
duplicate delivery.

A handful of ``tests/fuzzgen.py`` seeds (dynamic init/release, delays,
quantified guards) run over TCP as well (``TCP_FUZZ_SEEDS`` to widen).
"""

import os
import socket
from pathlib import Path

import pytest

from repro.faults import FaultPlan, WorkerCrash
from repro.runtime import (
    GroupedMapping,
    InProcessBackend,
    MultiprocessBackend,
    SpecSource,
)
from repro.runtime.parallel import canonical_trace_bytes, trace_diff
from repro.sim import Cluster, Machine
from tests.fuzzgen import generate_spec_text

SPEC_DIR = Path(__file__).parent.parent / "examples" / "specs"
WORKLOADS = ("osi_transfer", "xmovie_stream", "mcam_sessions", "mcam_core")
TCP_FUZZ_SEEDS = int(os.environ.get("TCP_FUZZ_SEEDS", "2"))
MAX_ROUNDS = 400


def example_cluster() -> Cluster:
    cluster = Cluster()
    for name in ("ksr1", "client-ws-1", "client-ws-2", "sun-1"):
        cluster.add(Machine(name, 2))
    return cluster


def run_reference(source: SpecSource):
    return InProcessBackend().execute(
        source, example_cluster(), mapping=GroupedMapping(), max_rounds=MAX_ROUNDS
    )


def run_tcp(source: SpecSource, **kwargs):
    return MultiprocessBackend(transport="tcp").execute(
        source,
        example_cluster(),
        mapping=GroupedMapping(),
        max_rounds=MAX_ROUNDS,
        **kwargs,
    )


class TestTcpEquivalence:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_all_workloads_byte_identical_over_tcp(self, workload):
        source = SpecSource.from_estelle_file(SPEC_DIR / f"{workload}.estelle")
        reference = run_reference(source)
        tcp = run_tcp(source)
        assert tcp.transport == "tcp"
        divergence = trace_diff(reference.trace, tcp.trace)
        assert divergence is None, f"{workload} over tcp diverged: {divergence}"
        assert canonical_trace_bytes(tcp.trace) == canonical_trace_bytes(
            reference.trace
        )
        assert tcp.simulated_time == reference.simulated_time

    def test_default_transport_is_recorded_on_the_result(self):
        source = SpecSource.from_estelle_file(SPEC_DIR / "mcam_core.estelle")
        result = MultiprocessBackend().execute(
            source,
            example_cluster(),
            mapping=GroupedMapping(),
            max_rounds=MAX_ROUNDS,
        )
        assert result.transport == "mp-queue"

    @pytest.mark.parametrize("seed", range(TCP_FUZZ_SEEDS))
    def test_fuzz_seeds_byte_identical_over_tcp(self, seed):
        source = SpecSource.from_estelle_text(
            generate_spec_text(seed), filename=f"<fuzz seed {seed}>"
        )
        cluster = Cluster()
        for name in ("m0", "m1", "m2"):
            cluster.add(Machine(name, 2))
        reference = InProcessBackend().execute(
            source, cluster, mapping=GroupedMapping(), max_rounds=MAX_ROUNDS
        )
        tcp = MultiprocessBackend(transport="tcp").execute(
            source, cluster, mapping=GroupedMapping(), max_rounds=MAX_ROUNDS
        )
        divergence = trace_diff(reference.trace, tcp.trace)
        assert divergence is None, (
            f"seed {seed} over tcp diverged: {divergence}\n"
            f"replay: tests.fuzzgen.generate_spec_text({seed})"
        )


class TestTcpCrashRecovery:
    def test_seeded_worker_crash_recovers_trace_identical_over_tcp(self):
        source = SpecSource.from_estelle_file(SPEC_DIR / "mcam_sessions.estelle")
        reference = run_reference(source)
        plan = FaultPlan(worker_crashes=(WorkerCrash(unit=1, round_index=2),))
        recovered = run_tcp(source, fault_plan=plan)
        assert canonical_trace_bytes(recovered.trace) == canonical_trace_bytes(
            reference.trace
        ), "tcp crash recovery diverged: " + str(
            trace_diff(reference.trace, recovered.trace)
        )
        assert recovered.simulated_time == reference.simulated_time

    def test_first_round_crash_recovers_over_tcp(self):
        # Round-1 crash: no checkpoint exists yet, so the replacement
        # restarts from its fresh shard — and over tcp its peers must still
        # redial and retransmit their round-0... there is no round 0: the
        # crash happens before any flush, so reconnects carry no slot and
        # the run simply proceeds from scratch.
        source = SpecSource.from_estelle_file(SPEC_DIR / "mcam_core.estelle")
        reference = run_reference(source)
        plan = FaultPlan(worker_crashes=(WorkerCrash(unit=1, round_index=1),))
        recovered = run_tcp(source, fault_plan=plan)
        assert canonical_trace_bytes(recovered.trace) == canonical_trace_bytes(
            reference.trace
        )


def occupy_second_of_a_free_port_pair():
    """``(port, blocker)``: ``port`` is free, ``port + 1`` is held by ``blocker``."""
    for _ in range(50):
        with socket.socket() as first:
            first.bind(("127.0.0.1", 0))
            port = first.getsockname()[1]
            blocker = socket.socket()
            try:
                blocker.bind(("127.0.0.1", port + 1))
            except (OSError, OverflowError):
                blocker.close()
                continue
            blocker.listen(1)
            return port, blocker
    pytest.skip("no two adjacent free ports on this host")


class TestTcpOpenFailure:
    def test_failed_bind_releases_the_listeners_bound_before_it(self):
        # The mesh binds base_port, base_port + 1, ... one by one; the second
        # bind fails.  The first listener must be closed by the time
        # execute() has raised — not whenever the caller drops the exception
        # (whose traceback holds the half-opened transport alive).
        port, blocker = occupy_second_of_a_free_port_pair()
        with blocker:
            with pytest.raises(OSError) as excinfo:
                MultiprocessBackend(
                    transport="tcp", transport_options={"base_port": port}
                ).execute(
                    SpecSource.from_estelle_file(SPEC_DIR / "mcam_core.estelle"),
                    example_cluster(),
                    mapping=GroupedMapping(),
                )
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", port))
            del excinfo
