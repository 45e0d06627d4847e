"""Compare two sets of ruler runs: ``compare.py A/results.json B/results.json``.

One row per workload x end-to-end metric: both medians with their quartiles,
the change of B against A (positive = worse), the metric's bound and a
verdict —

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  the run-to-run spread (interquartile distance / median) of
                  either set is wider than the bound, so a change of that size
                  could not be seen — unless every run of B beats every run of
                  A (``better``) or loses to it (``worse``);
* ``better``      B's median is better by more than the spread of both sets
                  and by more than what two back-to-back sets of the same code
                  differ by (3 %); single runs: by more than the bound;
* ``same``        none of the above;
* ``ungated``     printed, not judged: the catalogue lists the metric as too
                  noisy to gate on that workload.

``failed_share`` is judged on the mean over a set's runs and is ``worse`` on
any increase; an untraced pass that crashed or timed out recorded no metrics
and reads as ``failed_share`` 1.  A workload, or a gated metric, that A has
and B lacks is ``worse`` too (``missing``).  Counts marked exact in the
catalogue must be identical between the two sets for the same seed.  Exit
code 1 on any ``worse`` or any exact-count mismatch.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import metrics as catalogue

#: medians of two back-to-back sets of the same code differed by up to 2.4 %
#: (README, "How the bounds were set"); an improvement has to clear that.
SAME_CODE_DRIFT = 0.03


def load(path: str):
    """``(values, exact)``: ``values[workload][metric]`` is the list of
    readings over the set's runs; ``exact[(workload, seed, metric)]`` the set
    of values the exact counts took."""
    with open(path) as handle:
        document = json.load(handle)
    values: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    exact: Dict[Tuple[str, int, str], set] = defaultdict(set)
    for run in document["runs"]:
        if not run.get("trace") and "failed_share" not in run["metrics"]:
            # The pass crashed or timed out: its one attempted op failed.
            values[run["workload"]]["failed_share"].append(1.0)
        for name, item in run["metrics"].items():
            metric = catalogue.BY_NAME.get(name)
            if metric is None:
                continue
            if metric in catalogue.END_TO_END:
                values[run["workload"]][name].append(item["value"])
            if metric.exact:
                exact[(run["workload"], run["seed"], name)].add(item["value"])
    return values, exact


def worsening(metric: catalogue.Metric, base: float, new: float) -> float:
    """Relative change of ``new`` against ``base``, positive = worse."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if metric.better == "lower" else -change


def verdict(metric: catalogue.Metric, a: Sequence[float], b: Sequence[float]) -> Tuple[str, float]:
    if metric.name == "failed_share":
        # The mean: one failed run in a set of five leaves the median at 0.
        change = worsening(metric, statistics.fmean(a), statistics.fmean(b))
        return ("worse" if change > 0 else "better" if change < 0 else "same"), change
    change = worsening(metric, catalogue.median(a), catalogue.median(b))
    lower = metric.better == "lower"
    repeated = len(a) > 1 and len(b) > 1
    b_beats_a = repeated and (max(b) < min(a) if lower else min(b) > max(a))
    a_beats_b = repeated and (max(a) < min(b) if lower else min(a) > max(b))
    noise = max(catalogue.spread(a), catalogue.spread(b))
    if noise > metric.bound:
        return ("better" if b_beats_a else "worse" if a_beats_b else "unresolved"), change
    if change > metric.bound:
        return "worse", change
    # Single runs carry no spread: fall back to the bound.
    if -change > (max(noise, SAME_CODE_DRIFT) if repeated else metric.bound):
        return "better", change
    return "same", change


def _cell(values: Sequence[float]) -> str:
    q1, q2, q3 = catalogue.quartiles(values)
    return f"{q2:.5g} [{q1:.5g}..{q3:.5g}] n={len(values)}"


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    (a_values, a_exact), (b_values, b_exact) = load(argv[0]), load(argv[1])
    bad = 0
    print(f"{'workload':14s} {'metric':22s} {'A median [q1..q3]':38s} {'B median [q1..q3]':38s} {'change':>8s} {'bound':>6s} verdict")
    for workload in sorted(a_values):
        for metric in catalogue.END_TO_END:
            a, b = a_values[workload].get(metric.name), b_values.get(workload, {}).get(metric.name)
            if not a:
                continue
            gated = metric.bound is not None and workload not in metric.ungated_on
            if not b:
                # Every pass of B crashed before reporting it (or B never ran the workload).
                bad += gated
                print(f"{workload:14s} {metric.name:22s} {_cell(a):38s} {'missing':38s} {'':>8s} {'':>6s} {'worse' if gated else 'ungated'}")
                continue
            if not gated:
                print(f"{workload:14s} {metric.name:22s} {_cell(a):38s} {_cell(b):38s} {'':>8s} {'':>6s} ungated")
                continue
            word, change = verdict(metric, a, b)
            bad += word == "worse"
            print(f"{workload:14s} {metric.name:22s} {_cell(a):38s} {_cell(b):38s} {change:>+8.3f} {metric.bound:>6.2f} {word}")
    for key in sorted(set(a_exact) & set(b_exact)):
        if len(a_exact[key] | b_exact[key]) != 1:
            bad += 1
            print(f"exact count differs: {key[0]} seed={key[1]} {key[2]}: A={sorted(a_exact[key])} B={sorted(b_exact[key])}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
