"""E4 — Section 5.2: hard-coded vs table-driven vs generated selection.

*"As newer performance measurements show, the table-controlled approach is
significantly better than the hard-coded one when the number of transitions
becomes larger than four."*

The benchmark sweeps the number of transitions per module and reports the
per-selection cost of all three strategies under the runtime's cost model —
the paper's two alternatives plus the optimizing code generator's specialized
selection functions (:mod:`repro.runtime.codegen`) — plus wall-clock
micro-benchmarks of selection on a large module.  The hard-coded/table
crossover must sit in the paper's region (around four transitions), and the
generated strategy must be at least as fast as the table-driven one
everywhere.
"""

from __future__ import annotations

import pytest

from repro.estelle import Module, ModuleAttribute, transition
from repro.harness import ExperimentRecord, print_experiment
from repro.runtime import (
    GeneratedDispatchStrategy,
    HardCodedDispatch,
    TableDrivenDispatch,
    compile_module_class,
)

TRANSITION_SWEEP = (2, 4, 6, 8, 12, 16)


def make_module(total_transitions: int):
    """A module with ``total_transitions`` spread round-robin over four states.

    No transition is ever enabled, so every strategy scans its full
    candidate list — the worst case the selection-cost comparison is about
    (the hard-coded function walks every transition, the table-driven and
    generated ones only the current state's row).
    """
    states = ("s0", "s1", "s2", "s3")
    namespace = {
        "ATTRIBUTE": ModuleAttribute.SYSTEMPROCESS,
        "STATES": states,
        "INITIAL_STATE": "s0",
    }
    for count in range(total_transitions):
        name = f"t{count}"

        def action(self):
            pass

        action.__name__ = name
        namespace[name] = transition(
            from_state=states[count % len(states)],
            provided=(lambda m: False),
            cost=1.0,
            name=name,
        )(action)
    cls = type(f"Synthetic{total_transitions}", (Module,), namespace)
    return cls(f"m{total_transitions}")


def dispatch_cost_sweep():
    """Per-selection modelled cost of the three strategies over the sweep.

    Returns a list of row dicts; consumed by ``benchmarks/run_all.py`` to
    record the perf trajectory in ``BENCH_results.json``.
    """
    hard = HardCodedDispatch(scan_cost=0.08)
    table = TableDrivenDispatch(scan_cost=0.08, table_overhead=0.25)
    generated = GeneratedDispatchStrategy(scan_cost=0.08, generated_overhead=0.15)
    rows = []
    for total in TRANSITION_SWEEP:
        module = make_module(total)
        rows.append(
            {
                "transitions": total,
                "hard-coded": hard.select(module).cost,
                "table-driven": table.select(module).cost,
                "generated": generated.select(module).cost,
            }
        )
    return rows


def reproduce_dispatch_crossover():
    record = ExperimentRecord(
        experiment_id="E4",
        title="Transition selection: hard-coded vs table-driven vs generated",
        paper_claim="table-driven is significantly better once a module has more than "
        "~4 transitions; generated specialized selection is never worse than the table",
    )
    costs = {}
    for row in dispatch_cost_sweep():
        total = row["transitions"]
        hard_cost = row["hard-coded"]
        table_cost = row["table-driven"]
        generated_cost = row["generated"]
        costs[total] = (hard_cost, table_cost, generated_cost)
        winner = min(
            (("hard-coded", hard_cost), ("table", table_cost), ("generated", generated_cost)),
            key=lambda item: item[1],
        )[0]
        record.add_row(
            transitions=total,
            hard_coded_cost=round(hard_cost, 3),
            table_driven_cost=round(table_cost, 3),
            generated_cost=round(generated_cost, 3),
            winner=winner,
        )
    print_experiment(record)
    return costs


class TestTransitionDispatch:
    def test_crossover_near_four_transitions(self, benchmark):
        costs = benchmark.pedantic(reproduce_dispatch_crossover, rounds=1, iterations=1)
        # Few transitions: hard-coded is at least as good as the table.
        hard_small, table_small, _ = costs[2]
        assert hard_small <= table_small
        # Beyond the paper's threshold the table wins, and the gap widens.
        for total in (6, 8, 12, 16):
            hard_cost, table_cost, _ = costs[total]
            assert table_cost < hard_cost
        gap_8 = costs[8][0] - costs[8][1]
        gap_16 = costs[16][0] - costs[16][1]
        assert gap_16 > gap_8
        # The generated strategy is at least as fast as table-driven at every
        # point of the sweep (same rows, cheaper specialized indexing).
        for total, (_, table_cost, generated_cost) in costs.items():
            assert generated_cost <= table_cost

    def test_wallclock_selection_large_module(self, benchmark):
        """Real (wall-clock) selection time on a 16-transition module, table-driven."""
        module = make_module(16)
        table = TableDrivenDispatch()
        result = benchmark(lambda: table.select(module))
        assert result.examined <= 4  # only the current state's row is scanned

    def test_wallclock_selection_hardcoded(self, benchmark):
        module = make_module(16)
        hard = HardCodedDispatch()
        result = benchmark(lambda: hard.select(module))
        assert result.examined == 16  # the full transition list is scanned

    def test_wallclock_selection_generated(self, benchmark):
        """Generated selection on the same module: specialized row code."""
        module = make_module(16)
        generated = GeneratedDispatchStrategy()
        compile_module_class(type(module))  # compile outside the timed loop
        result = benchmark(lambda: generated.select(module))
        assert result.examined <= 4  # never examines more than the table row
