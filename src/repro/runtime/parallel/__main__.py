"""Smoke CLI: run a specification on both backends, assert trace equality.

This is the command CI runs on every supported Python version::

    PYTHONPATH=src python -m repro.runtime.parallel examples/specs/mcam_core.estelle

It builds a cluster from the specification's placement comments (one machine
per distinct ``at`` location, ``--processors`` processors each), executes the
spec on the in-process backend (the interpreted ``table-driven`` walk, the
repo's reference oracle) and on the multiprocess backend under the same
grouped mapping, and exits non-zero with a pinpointed diff if the canonical
firing traces differ by even one byte.
"""

from __future__ import annotations

import argparse
import sys

from ...sim.machine import cluster_from_placements
from ..executor import SpecSource, backend_by_name
from ..mapping import GroupedMapping
from .backend import MultiprocessBackend
from .trace import canonical_trace_bytes, trace_diff
from .transport import transport_names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.parallel",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("spec", help="path to an .estelle specification")
    parser.add_argument(
        "--processors",
        type=int,
        default=1,
        help="processors per machine (bounds units per machine under the "
        "grouped mapping; default 1)",
    )
    parser.add_argument("--max-rounds", type=int, default=1000)
    parser.add_argument(
        "--transport",
        default="mp-queue",
        choices=transport_names(),
        help="wire the multiprocess backend's batch mesh runs over: "
        "mp-queue (default) or tcp (localhost socket mesh)",
    )
    parser.add_argument(
        "--busy-work-us",
        type=float,
        default=0.0,
        help="emulated processing time per cost unit, in microseconds",
    )
    parser.add_argument(
        "--relax-barrier",
        action="store_true",
        help="enable conservative lookahead: units that wholly own their "
        "delay-free system subtrees run rounds locally instead of "
        "synchronising at the global round barrier (the trace must stay "
        "byte-identical either way)",
    )
    args = parser.parse_args(argv)

    source = SpecSource.from_estelle_file(args.spec)
    cluster = cluster_from_placements(source.build(), args.processors)

    results = {}
    for backend_name in ("in-process", "multiprocess"):
        if backend_name == "multiprocess":
            backend = MultiprocessBackend(
                transport=args.transport, relax_barrier=args.relax_barrier
            )
        else:
            backend = backend_by_name(backend_name)
        results[backend_name] = backend.execute(
            source,
            cluster,
            mapping=GroupedMapping(),
            max_rounds=args.max_rounds,
            busy_work_us_per_cost=args.busy_work_us,
        )
        result = results[backend_name]
        wire = f" over {result.transport}" if result.transport else ""
        print(
            f"{backend_name:>12}: {result.rounds} rounds, "
            f"{result.transitions_fired} firings, {result.workers} worker(s), "
            f"wall {result.wall_seconds * 1e3:.1f} ms{wire}"
        )

    in_process, multiprocess = results["in-process"], results["multiprocess"]
    divergence = trace_diff(in_process.trace, multiprocess.trace)
    if divergence is not None:
        print(f"TRACE MISMATCH: {divergence}", file=sys.stderr)
        return 1
    identical = canonical_trace_bytes(in_process.trace) == canonical_trace_bytes(
        multiprocess.trace
    )
    if not identical:  # unreachable if trace_diff is sound, but belt-and-braces
        print("TRACE MISMATCH: byte encodings differ", file=sys.stderr)
        return 1
    print(
        f"traces byte-identical ({len(canonical_trace_bytes(in_process.trace))} "
        f"canonical bytes, {in_process.transitions_fired} firings)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
