"""The ruler: one command, six workloads, every metric by name.

    python3 benchmarks/ruler/run.py                       # all workloads, both passes
    python3 benchmarks/ruler/run.py --workload mesh_strict --seed 3 --seconds 10 --trace 0
    python3 benchmarks/ruler/run.py --trace 0 --repeat 5 --out A   # a set for compare.py
    python3 benchmarks/ruler/run.py --quick               # one short op per workload

Each pass of each workload runs in its own subprocess (``child.py``), the
leader of a session of its own; set-up is repeated in ``SETUPS`` fresh
subprocesses and ``setup_s`` is their median.
Every metric is printed with its unit and sample count, the result document is
written to ``<out>/results.json``, and the exit code is non-zero if any output
failed verification or anything outlived a pass.

With one workload and one ``--trace`` value the last line of stdout is the
driver's contract object (``BENCHMARK.json``): ``correct``, ``attempted``,
``failed`` and the end-to-end (``--trace 0``) or per-layer (``--trace 1``)
metrics defined on every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]

import hygiene  # noqa: E402
import metrics as catalogue  # noqa: E402
import workloads  # noqa: E402

#: a pass that has not answered by then is killed and counted as failed.
CHILD_TIMEOUT_S = 170.0
DEFAULT_SECONDS = 10
#: set-ups per untraced pass; the last one goes on to measure.
SETUPS = 5


def spawn_child(args: argparse.Namespace, workload: str, trace: int, phase: str) -> Dict[str, object]:
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--phase", phase,
        "--out", str(args.out),
        "--spawned-at", repr(time.monotonic()),
    ]
    if args.quick:
        command.append("--quick")
    if args.corrupt_oracle:
        command.append("--corrupt-oracle")
    # A session of its own: on a timeout the whole pass dies, not child.py
    # alone, and what a pass left behind is found after re-parenting too.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=REPO_ROOT, start_new_session=True
    )
    timed_out = False
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        survivors = hygiene.kill_session(process.pid, grace_s=3.0 if process.poll() is not None else 0.0)
    if timed_out:
        process.communicate()  # reaps the killed child
        return {"crashed": f"{workload} {phase} pass did not finish within {CHILD_TIMEOUT_S}s", "survivors": survivors}
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        document = {"crashed": f"{workload} {phase} pass exited {process.returncode}: {stderr.strip()[-2000:]}"}
    else:
        document = json.loads(lines[-1])
    document["survivors"] = survivors
    return document


def run_pass(args: argparse.Namespace, workload: str, trace: int) -> Dict[str, object]:
    """One pass; an untraced full-size one sets up ``SETUPS`` times (the last
    set-up goes on to measure; the traced pass reports no ``setup_s``)."""
    setups: List[float] = []
    survivors: List[str] = []
    phases = ["setup"] * (0 if args.quick or trace else SETUPS - 1) + ["run"]
    for phase in phases:
        document = spawn_child(args, workload, trace, phase)
        survivors += document.pop("survivors")
        if "crashed" in document:
            return {
                "workload": workload, "seed": args.seed, "trace": trace, "correct": False,
                "attempted": 1, "failed": 1, "errors": [document["crashed"]], "leaks": survivors, "metrics": {},
            }
        setups.append(document.pop("setup_s"))
    if not trace:
        document["metrics"]["setup_s"] = {"value": catalogue.median(setups), "unit": "s", "n": len(setups)}
        document["setup_samples"] = setups
    if survivors:
        document["leaks"] += survivors
        document["correct"] = False
    return document


def print_pass(document: Dict[str, object]) -> None:
    workload, trace = document["workload"], document["trace"]
    print(f"== {workload} seed={document['seed']} {'traced' if trace else 'untraced'} pass: "
          f"attempted={document['attempted']} failed={document['failed']}")
    for name, item in document["metrics"].items():
        print(f"{workload:14s} {name:42s} {item['value']:>14.6g} {item['unit']:6s} n={item['n']}")
    for layer, share in sorted(document.get("self_time_shares", {}).items(), key=lambda kv: -kv[1]):
        print(f"{workload:14s} self_time_share.{layer:26s} {share:>14.4f} ratio")
    for problem in document["errors"] + document["leaks"]:
        print(f"{workload:14s} PROBLEM: {problem}")


def contract_line(document: Dict[str, object], clean: bool) -> str:
    wanted = catalogue.PER_LAYER if document["trace"] else catalogue.CONTRACT_END_TO_END
    measured = document["metrics"]
    return json.dumps(
        {
            "correct": clean and bool(document["correct"]) and all(m.name in measured for m in wanted),
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": {
                m.name: {"value": measured[m.name]["value"], "unit": m.unit}
                for m in wanted
                if m.name in measured
            },
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measured window of the untraced pass")
    parser.add_argument("--trace", default="both", choices=("0", "1", "both"))
    parser.add_argument("--out", default=str(HERE / "out"), help="directory for results.json and span files")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload and pass (a set for compare.py)")
    parser.add_argument("--quick", action="store_true", help="shrunken inputs, one op per workload")
    parser.add_argument("--corrupt-oracle", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {REPO_ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = {"fingerprint": hygiene.fingerprint(args.seed), "runs": []}
    for _ in range(args.repeat):
        for name in names:
            for trace in traces:
                document = run_pass(args, name, trace)
                print_pass(document)
                results["runs"].append(document)
    results["fingerprint"]["loadavg_end"] = list(os.getloadavg())
    found = hygiene.leaks(grace_s=0.5)
    for problem in found:
        print(f"PROBLEM: {problem}")
    (out / "results.json").write_text(json.dumps(results, indent=1))
    print(f"results: {out / 'results.json'}")

    runs = results["runs"]
    correct = all(run["correct"] for run in runs) and not found
    if len(runs) == 1:
        print(contract_line(runs[0], clean=not found))
    else:
        print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in runs), "failed": sum(r["failed"] for r in runs)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
