"""The canonical firing trace, pinned absolutely per specification.

Every equivalence test compares two runs through the same
``canonical_trace_bytes``, so a change to the row schema or its encoding moves
both sides at once and passes.  ``tests/golden/traces.json`` pins, per spec,
the sha256 of the canonical bytes, the firing count, the rounds and the final
simulated time of one in-process ``table-driven`` run: the four
``examples/specs/*.estelle`` files under the cluster and mapping of
``tests/test_obs_equivalence.py``, and fuzz seeds ``0..FUZZ_GOLDEN_SEEDS-1``
under ``tests/test_spec_fuzz.run_in_process``.  The simulated clock advances
by ``+=`` on declared costs, so the pins hold on any host and interpreter.

After a deliberate change to the trace, rewrite the file with
``python tests/golden/regenerate.py`` and review the diff; no test writes it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.runtime import GroupedMapping, InProcessBackend, SpecSource
from repro.runtime.tracing import canonical_trace_bytes
from tests.fuzzgen import generate_spec_text
from tests.test_obs_equivalence import SPEC_DIR, WORKLOADS, cluster_for
from tests.test_spec_fuzz import run_in_process

GOLDEN = Path(__file__).parent / "golden" / "traces.json"
FUZZ_GOLDEN_SEEDS = 200


def pin(result) -> dict:
    """What one run pins: its trace digest and the counts beside it."""
    return {
        "firings": result.transitions_fired,
        "rounds": result.rounds,
        "sha256": hashlib.sha256(canonical_trace_bytes(result.trace)).hexdigest(),
        "time": result.simulated_time,
    }


def trace_pins() -> dict:
    """Spec name -> pin, in file order: the four specs, then the fuzz seeds."""
    pins = {}
    for workload in WORKLOADS:
        pins[workload] = pin(
            InProcessBackend().execute(
                SpecSource.from_estelle_file(SPEC_DIR / workload),
                cluster_for(workload),
                mapping=GroupedMapping(),
                dispatch="table-driven",
            )
        )
    for seed in range(FUZZ_GOLDEN_SEEDS):
        source = SpecSource.from_estelle_text(generate_spec_text(seed))
        pins[f"fuzz/{seed}"] = pin(run_in_process(source, "table-driven"))
    return pins


def test_every_trace_matches_its_pin():
    expected = json.loads(GOLDEN.read_text())
    actual = trace_pins()
    assert list(actual) == list(expected), "the pinned spec set changed"
    moved = [name for name in expected if actual[name] != expected[name]]
    assert not moved, (
        f"{len(moved)} trace(s) moved from tests/golden/traces.json, first "
        f"{moved[0]}: {actual[moved[0]]} != {expected[moved[0]]}"
    )
