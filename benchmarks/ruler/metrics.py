"""The ruler's metric catalogue and the small statistics it reports with.

One table names every metric the benchmark prints: unit, direction, the
regression bound of the end-to-end ones, and the workloads it is defined on.
``BENCHMARK.json`` (the driver's contract) lists the subset defined on *every*
workload — the driver requires each listed metric from each workload — and
``test_ruler.py`` pins the two against each other.  ``compare.py`` reads the
bounds from here.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

MESH = ("mesh_relaxed", "mesh_strict")
SERVE = ("serve_calls", "serve_bulk")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: share of the baseline median an end-to-end metric may worsen by before
    #: compare.py calls it a regression; None = not judged (every per-layer
    #: metric, and an end-to-end one too noisy to gate).
    bound: Optional[float] = None
    #: workloads the metric is defined on; None = all six.
    workloads: Optional[Tuple[str, ...]] = None
    #: counts that must repeat exactly across runs of one seed.
    exact: bool = False
    #: workloads on which an end-to-end metric is printed but not judged: it
    #: deviated by more than 0.10 between runs of the same code there.
    ungated_on: Tuple[str, ...] = ()

    def applies_to(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


# Bounds come from data (README, "How the bounds were set"): two back-to-back
# sets of five runs of the seed code per workload and two ten-seed sets, each
# bound max(0.05, 2 x the largest relative deviation of a run from its set's
# median, 3 x the largest interquartile spread of a set), rounded up to 0.01.
# The two rows that deviated by more than 0.10 between runs of the same code
# on serve_bulk are printed there but not judged.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.16),
    Metric("firings_per_s", "1/s", "higher", 0.09),
    Metric("run_wall_ms", "ms", "lower", 0.09),
    Metric("peak_rss_mb", "MiB", "lower", 0.05),
    Metric("mesh_overhead_ms", "ms", "lower", 0.11, MESH),
    Metric("sessions_per_s", "1/s", "higher", 0.06, SERVE),
    Metric("step_p50_ms", "ms", "lower", 0.07, SERVE),
    Metric("step_p95_ms", "ms", "lower", 0.05, SERVE, ungated_on=("serve_bulk",)),
    Metric("create_p50_ms", "ms", "lower", 0.05, ("serve_calls",)),
    Metric("firings_reply_p50_ms", "ms", "lower", None, ("serve_bulk",)),
    # Any increase is a regression (compare.py special-cases a zero baseline).
    Metric("failed_share", "ratio", "lower", 0.0),
)


def _layer(prefix: str, *entries: Tuple[str, str, str], exact: Sequence[str] = ()) -> List[Metric]:
    return [
        Metric(f"{prefix}.{name}", unit, better, exact=name in exact)
        for name, unit, better in entries
    ]


PER_LAYER: Tuple[Metric, ...] = tuple(
    _layer(
        "frontend",
        ("parse_ms", "ms", "lower"),
        ("compile_source_ms", "ms", "lower"),
        ("compile_template_ms", "ms", "lower"),
        ("instantiate_ms", "ms", "lower"),
        ("source_bytes", "bytes", "lower"),
        exact=("source_bytes",),
    )
    + _layer(
        "codegen",
        ("compile_specification_ms", "ms", "lower"),
        ("generated_source_bytes", "bytes", "lower"),
        exact=("generated_source_bytes",),
    )
    + _layer(
        "planner",
        ("compile_plan_program_ms", "ms", "lower"),
        ("plan_round_us", "us", "lower"),
        ("rebuilds", "count", "lower"),
        ("reuse_ratio", "ratio", "higher"),
        ("code_cache_hit_ratio", "ratio", "higher"),
        exact=("rebuilds",),
    )
    + _layer(
        "scheduler",
        ("plan_round_us.table-driven", "us", "lower"),
        ("plan_round_us.generated", "us", "lower"),
    )
    + _layer(
        "executor",
        ("construct_ms", "ms", "lower"),
        ("run_ms", "ms", "lower"),
        ("fire_us_per_firing", "us", "lower"),
        ("round_us", "us", "lower"),
        ("rounds", "count", "lower"),
        ("firings", "count", "higher"),
        ("deadline_jumps", "count", "lower"),
        exact=("rounds", "firings", "deadline_jumps"),
    )
    + _layer(
        "trace",
        ("canonical_bytes_ms", "ms", "lower"),
        ("sha256_match", "count", "higher"),
        exact=("sha256_match",),
    )
    + _layer(
        "backend",
        ("execute_ms", "ms", "lower"),
        ("loop_ms", "ms", "lower"),
        ("spawn_teardown_ms", "ms", "lower"),
        ("loop_us_per_round", "us", "lower"),
        ("coord_overhead_us_per_round", "us", "lower"),
        ("barrier_rounds", "count", "lower"),
        ("lookahead_rounds", "count", "higher"),
        ("slowdown_vs_inproc", "ratio", "lower"),
        exact=("barrier_rounds", "lookahead_rounds"),
    )
    + _layer(
        "worker",
        ("busy_s_max", "s", "lower"),
        ("sync_s_max", "s", "lower"),
        ("busy_share", "ratio", "higher"),
    )
    + _layer(
        "transport",
        ("mp-queue.batch_rtt_us", "us", "lower"),
        ("tcp.batch_rtt_us", "us", "lower"),
        ("messages", "count", "lower"),
        ("batch_size_mean", "count", "higher"),
        exact=("messages",),
    )
    + _layer(
        "registry",
        ("miss_compile_ms", "ms", "lower"),
        ("hit_us", "us", "lower"),
        ("instantiate_ms", "ms", "lower"),
        ("compile_count", "count", "lower"),
        exact=("compile_count",),
    )
    + _layer(
        "engine",
        ("create_session_ms", "ms", "lower"),
        ("step_p50_ms", "ms", "lower"),
        ("step_us_per_firing", "us", "lower"),
        ("stream_firings_ms", "ms", "lower"),
        ("close_session_ms", "ms", "lower"),
        ("server_step_ms_mean", "ms", "lower"),
    )
    + _layer(
        "api",
        ("healthz_p50_ms", "ms", "lower"),
        ("step_p50_ms", "ms", "lower"),
        ("http_overhead_ms", "ms", "lower"),
        ("fresh_connection_p50_ms", "ms", "lower"),
        ("firings_reply_p50_ms", "ms", "lower"),
        ("firings_reply_bytes_mean", "bytes", "lower"),
        ("requests", "count", "lower"),
        ("non2xx", "count", "lower"),
        exact=("non2xx",),
    )
    + _layer(
        "obs",
        ("metrics_render_ms", "ms", "lower"),
        ("traced_overhead_ratio", "ratio", "higher"),
    )
)

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}

#: the end-to-end metrics defined on every workload and never 0 — the set the
#: driver's contract can carry (``failed_share`` travels as attempted/failed).
CONTRACT_END_TO_END: Tuple[Metric, ...] = tuple(
    m for m in END_TO_END if m.workloads is None and m.name != "failed_share"
)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_tail(n: int) -> Optional[int]:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for q in (99, 95, 90):
        if n * (100 - q) / 100.0 >= 10:
            return q
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0
