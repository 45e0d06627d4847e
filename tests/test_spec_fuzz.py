"""The differential spec fuzzer (ISSUE 5): generated specs, byte-equal traces.

``tests/fuzzgen.py`` produces seeded random — but valid and bounded — Estelle
specifications exercising states, guards, priorities, delays, quantifiers,
interaction-point arrays and dynamic ``init``/``release``.  Every generated
specification must produce *byte-identical canonical traces* across all
in-process dispatch strategies, and across the two execution backends.

On failure the assertion message carries the seed (replay with
``SpecFuzzer(seed).generate()`` or ``generate_spec_text(seed)``) plus the
first trace divergence.

Seed counts are environment-tunable so CI can run the full set while a
local ``pytest -x`` stays quick:

* ``FUZZ_SEEDS``      — in-process differential seeds (default 50)
* ``FUZZ_MP_SEEDS``   — seeds additionally run on the multiprocess backend
  (default 8; each one spawns real worker processes, so they are the
  expensive ones).  The mesh has no dispatch axis (ISSUE 15): a seed is one
  mesh run held to the in-process ``table-driven`` trace, and the runs the
  axis used to take went to seeds.
"""

import os

import pytest

from repro.runtime import (
    GroupedMapping,
    InProcessBackend,
    MultiprocessBackend,
    SpecSource,
)
from repro.runtime.parallel import trace_diff
from repro.sim import Cluster, Machine
from tests.fuzzgen import generate_spec_text

FUZZ_SEEDS = int(os.environ.get("FUZZ_SEEDS", "50"))
FUZZ_MP_SEEDS = int(os.environ.get("FUZZ_MP_SEEDS", "8"))

IN_PROCESS_DISPATCHES = ("table-driven", "hard-coded", "generated", "planner")
MAX_ROUNDS = 400


def fuzz_cluster() -> Cluster:
    cluster = Cluster()
    for name in ("m0", "m1", "m2"):
        cluster.add(Machine(name, 2))
    return cluster


def run_in_process(source: SpecSource, dispatch: str):
    return InProcessBackend().execute(
        source,
        fuzz_cluster(),
        mapping=GroupedMapping(),
        dispatch=dispatch,
        max_rounds=MAX_ROUNDS,
    )


class TestFuzzGenerator:
    def test_same_seed_same_text(self):
        assert generate_spec_text(7) == generate_spec_text(7)

    def test_different_seeds_differ(self):
        texts = {generate_spec_text(seed) for seed in range(10)}
        assert len(texts) == 10

    def test_generated_specs_compile_and_are_dynamic_somewhere(self):
        """Coverage self-check: across the CI seed set the generator must
        actually exercise init/release, IP arrays, delays and quantifiers —
        otherwise the differential property silently hollows out."""
        import re

        from repro.estelle.frontend import compile_source

        # Statement-shaped patterns: a bare "init" would vacuously match the
        # "initialize" block every generated body contains.
        patterns = {
            "init": re.compile(r"\binit \w+ with\b"),
            "release": re.compile(r"\brelease \w+\b"),
            "delay": re.compile(r"\bdelay "),
            "suchthat": re.compile(r"\bsuchthat\b"),
        }
        saw = {name: 0 for name in patterns}
        for seed in range(FUZZ_SEEDS):
            text = generate_spec_text(seed)
            for name, pattern in patterns.items():
                if pattern.search(text):
                    saw[name] += 1
            spec = compile_source(text, filename=f"<fuzz seed {seed}>")
            assert spec.module_count() >= 3, f"seed {seed}"
        assert saw["init"] == FUZZ_SEEDS  # every spec has handlers
        assert saw["release"] == FUZZ_SEEDS
        assert saw["delay"] > 0
        assert saw["suchthat"] > 0


class TestDifferentialInProcess:
    @pytest.mark.parametrize("seed", range(FUZZ_SEEDS))
    def test_all_dispatch_strategies_byte_identical(self, seed):
        source = SpecSource.from_estelle_text(
            generate_spec_text(seed), filename=f"<fuzz seed {seed}>"
        )
        reference = run_in_process(source, IN_PROCESS_DISPATCHES[0])
        for dispatch in IN_PROCESS_DISPATCHES[1:]:
            result = run_in_process(source, dispatch)
            divergence = trace_diff(reference.trace, result.trace)
            assert divergence is None, (
                f"seed {seed}: dispatch {dispatch!r} diverged from "
                f"{IN_PROCESS_DISPATCHES[0]!r}: {divergence}\n"
                f"replay: tests.fuzzgen.generate_spec_text({seed})"
            )
            assert result.simulated_time == reference.simulated_time, (
                f"seed {seed}: {dispatch!r} simulated_time "
                f"{result.simulated_time} != {reference.simulated_time}"
            )
            assert result.deadlocked == reference.deadlocked, f"seed {seed}"


class TestDifferentialMultiprocess:
    @pytest.mark.parametrize("seed", range(FUZZ_MP_SEEDS))
    def test_backends_byte_identical(self, seed):
        source = SpecSource.from_estelle_text(
            generate_spec_text(seed), filename=f"<fuzz seed {seed}>"
        )
        in_process = run_in_process(source, IN_PROCESS_DISPATCHES[0])
        multiprocess = MultiprocessBackend().execute(
            source, fuzz_cluster(), mapping=GroupedMapping(), max_rounds=MAX_ROUNDS
        )
        divergence = trace_diff(in_process.trace, multiprocess.trace)
        assert divergence is None, (
            f"seed {seed}: multiprocess diverged from "
            f"in-process/{IN_PROCESS_DISPATCHES[0]}: {divergence}\n"
            f"replay: tests.fuzzgen.generate_spec_text({seed})"
        )
        assert multiprocess.deadlocked == in_process.deadlocked, f"seed {seed}"
        assert multiprocess.simulated_time == in_process.simulated_time
