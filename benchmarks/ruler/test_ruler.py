"""Tests of the ruler itself.  Run explicitly (tier-1 ``testpaths`` stays ``tests``)::

    python -m pytest benchmarks/ruler/test_ruler.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import hygiene  # noqa: E402
import metrics as catalogue  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
ROW = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)$")


def run_ruler(*arguments: str, cwd: Path = REPO_ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *arguments], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("ruler-quick")
    started = time.monotonic()
    done = run_ruler("--quick", "--out", str(out))
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    rows = [match.groups() for match in map(ROW.match, done.stdout.splitlines()) if match]
    return {"rows": rows, "elapsed": elapsed, "results": json.loads((out / "results.json").read_text()), "out": out}


class TestContractFile:
    def test_benchmark_json_lists_the_catalogue(self):
        document = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        assert set(document) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        assert document["paths"] == ["benchmarks/ruler"]
        assert [w["name"] for w in document["workloads"]] == list(workloads.NAMES)
        assert all(w["why"] == workloads.WHY[w["name"]] and len(w["why"]) <= 200 for w in document["workloads"])
        assert document["end_to_end"] == [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in catalogue.CONTRACT_END_TO_END
        ]
        assert document["per_layer"] == [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in catalogue.PER_LAYER
        ]

    def test_names_units_and_bounds_are_within_the_contract(self):
        names = [m.name for m in catalogue.END_TO_END + catalogue.PER_LAYER] + list(workloads.NAMES)
        assert len(names) == len(set(names))
        assert all(NAME.fullmatch(name) for name in names)
        assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m.unit) for m in catalogue.BY_NAME.values())
        assert all(0 < m.bound <= 0.25 for m in catalogue.CONTRACT_END_TO_END)
        assert "setup_s" in {m.name for m in catalogue.CONTRACT_END_TO_END}
        assert len(catalogue.PER_LAYER) <= 128


class TestQuickRun:
    def test_every_metric_once_per_listed_workload_with_its_unit(self, quick):
        printed = {}
        for workload, name, _value, unit, _n in quick["rows"]:
            if name in catalogue.BY_NAME:
                assert (workload, name) not in printed, f"{name} printed twice for {workload}"
                printed[(workload, name)] = unit
        for workload in workloads.NAMES:
            for metric in catalogue.END_TO_END + catalogue.PER_LAYER:
                if metric.applies_to(workload):
                    assert printed.get((workload, metric.name)) == metric.unit, (workload, metric.name)
                else:
                    assert (workload, metric.name) not in printed, "absent, not 0"

    def test_setup_and_overhead_ratio_for_all_six(self, quick):
        for workload in workloads.NAMES:
            names = {name for w, name, *_ in quick["rows"] if w == workload}
            assert {"setup_s", "obs.traced_overhead_ratio", "failed_share"} <= names

    def test_outputs_verified_and_nothing_left_behind(self, quick):
        runs = quick["results"]["runs"]
        assert len(runs) == 2 * len(workloads.NAMES)
        assert all(run["correct"] and run["failed"] == 0 and not run["leaks"] for run in runs)
        assert {"nproc", "python", "loadavg_start", "loadavg_end", "git_commit", "seed"} <= set(quick["results"]["fingerprint"])

    def test_traced_pass_writes_a_chrome_trace_per_workload(self, quick):
        for workload in workloads.NAMES:
            document = json.loads((quick["out"] / f"spans-{workload}-seed1.json").read_text())
            assert document["traceEvents"] and {"name", "cat", "ph", "ts", "dur", "args"} <= set(document["traceEvents"][0])

    def test_quick_is_quick(self, quick):
        assert quick["elapsed"] < 30.0


class TestContractMode:
    @pytest.mark.parametrize("trace, wanted", [("0", catalogue.CONTRACT_END_TO_END), ("1", catalogue.PER_LAYER)])
    def test_last_line_is_the_contract_object(self, tmp_path, trace, wanted):
        done = run_ruler(
            "--workload", "mesh_strict", "--seed", "7", "--seconds", "1", "--trace", trace,
            "--quick", "--out", str(tmp_path),
        )
        assert done.returncode == 0, done.stdout + done.stderr
        document = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(document) == {"correct", "attempted", "failed", "metrics"}
        assert document["correct"] is True and document["attempted"] >= 1 and document["failed"] == 0
        assert list(document["metrics"]) == [m.name for m in wanted]
        assert all(set(item) == {"value", "unit"} for item in document["metrics"].values())

    @pytest.mark.parametrize("workload", ["inproc_static", "serve_calls"])
    def test_a_corrupted_oracle_fails_the_run(self, tmp_path, workload):
        done = run_ruler(
            "--workload", workload, "--trace", "0", "--quick", "--corrupt-oracle", "--out", str(tmp_path)
        )
        assert done.returncode != 0
        document = json.loads(done.stdout.strip().splitlines()[-1])
        assert document["correct"] is False and document["failed"] > 0
        run = json.loads((tmp_path / "results.json").read_text())["runs"][0]
        assert run["metrics"]["failed_share"]["value"] > 0

    def test_without_the_program_it_exits_non_zero_and_prints_no_result(self, tmp_path):
        shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(HERE, tmp_path / "benchmarks" / "ruler", ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = run_ruler(
            "--workload", "inproc_static", "--seed", "1", "--seconds", "1", "--trace", "0",
            cwd=tmp_path, script=tmp_path / "benchmarks" / "ruler" / "run.py",
        )
        assert done.returncode != 0 and done.stdout.strip() == ""


class TestGenerator:
    def test_a_pattern_matching_two_sites_is_refused(self):
        text = "calls_wanted := 1;\ncalls_wanted := 10;\n"
        with pytest.raises(ValueError, match="matched 2 sites"):
            workloads.substitute_once(text, r"calls_wanted := 1", "calls_wanted := 5")

    def test_same_seed_same_text_other_seed_other_text(self):
        for name in workloads.NAMES:
            assert workloads.build(name, 3) == workloads.build(name, 3)
        assert workloads.build("inproc_static", 3).texts != workloads.build("inproc_static", 4).texts
        assert workloads.build("serve_calls", 3).order != workloads.build("serve_calls", 4).order

    def test_the_seed_moves_work_around_not_up_or_down(self):
        expected = {workloads.build("inproc_static", seed).expected_firings for seed in range(8)}
        assert expected == {(workloads.osi_firings(workloads.STATIC_TO_SEND),)}
        assert workloads.osi_firings((24,)) == 18 + 9 * 24
        assert workloads.xmovie_firings(200) == 804

    def test_generated_text_carries_the_drawn_values_exactly_once(self):
        text = workloads.mcam_text(151, 149)
        assert text.count("calls_wanted := 151 ;") == 1 and text.count("calls_wanted := 149 ;") == 1
        assert "frames_total := 199;" in workloads.xmovie_text(199)
        assert workloads.osi_text((5, 6, 7)).count("modvar s_app_c") == 3


class TestCompare:
    METRIC = catalogue.BY_NAME["run_wall_ms"]  # lower is better, bound 0.09

    def test_verdicts(self):
        base = [100.0, 101.0, 99.0, 100.5, 99.5]
        assert compare.verdict(self.METRIC, base, [v * 1.005 for v in base])[0] == "same"
        assert compare.verdict(self.METRIC, base, [v * 1.2 for v in base])[0] == "worse"
        assert compare.verdict(self.METRIC, base, [v * 0.9 for v in base])[0] == "better"
        noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
        assert compare.verdict(self.METRIC, noisy, [v * 1.05 for v in noisy])[0] == "unresolved"
        assert compare.verdict(self.METRIC, noisy, [v * 0.5 for v in noisy])[0] == "better"

    def test_any_increase_of_failed_share_is_worse(self):
        failed = catalogue.BY_NAME["failed_share"]
        assert compare.verdict(failed, [0.0, 0.0], [0.0, 0.0])[0] == "same"
        assert compare.verdict(failed, [0.0, 0.0], [0.01, 0.01])[0] == "worse"

    def test_exit_code_and_exact_counts(self, tmp_path, capsys):
        def write(name, wall, rounds):
            run = {"workload": "inproc_static", "seed": 1, "trace": 0, "metrics": {
                "run_wall_ms": {"value": wall, "unit": "ms", "n": 9},
                "failed_share": {"value": 0.0, "unit": "ratio", "n": 9},
                "executor.rounds": {"value": rounds, "unit": "count", "n": 1},
            }}
            path = tmp_path / name
            path.write_text(json.dumps({"runs": [run, run]}))
            return str(path)

        assert compare.main([write("a.json", 50.0, 72), write("b.json", 50.1, 72)]) == 0
        assert compare.main([write("a.json", 50.0, 72), write("c.json", 70.0, 72)]) == 1
        assert compare.main([write("a.json", 50.0, 72), write("d.json", 50.0, 73)]) == 1
        assert "exact count differs" in capsys.readouterr().out

    def test_a_crashed_pass_is_a_regression(self, tmp_path, capsys):
        good = {"workload": "mesh_strict", "seed": 1, "trace": 0, "correct": True, "metrics": {
            "run_wall_ms": {"value": 680.0, "unit": "ms", "n": 14},
            "failed_share": {"value": 0.0, "unit": "ratio", "n": 14},
        }}
        # What run.py records for a pass that crashed or timed out.
        crashed = {"workload": "mesh_strict", "seed": 1, "trace": 0, "correct": False,
                   "attempted": 1, "failed": 1, "errors": ["exited 1"], "leaks": [], "metrics": {}}

        def write(name, runs):
            path = tmp_path / name
            path.write_text(json.dumps({"runs": runs}))
            return str(path)

        a = write("a.json", [good] * 5)
        assert compare.main([a, a]) == 0
        # One crash in five only shrinks the other samples: failed_share must show it.
        assert compare.main([a, write("one.json", [good] * 4 + [crashed])]) == 1
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[-1] for row in rows if " failed_share " in row][-1] == "worse"
        # Every pass crashed: the workload's other rows are missing, not skipped.
        assert compare.main([a, write("all.json", [crashed] * 5)]) == 1
        assert any(" run_wall_ms " in row and "missing" in row and row.endswith("worse") for row in capsys.readouterr().out.splitlines())
        # B never ran the workload at all.
        assert compare.main([a, write("none.json", [])]) == 1


class TestHygiene:
    def test_a_process_that_outlives_its_pass_is_found_in_its_session_and_killed(self):
        # The "pass" starts a grandchild and exits: re-parented, invisible to a scan of direct children.
        leader = subprocess.Popen(
            [sys.executable, "-c", "import subprocess, sys; subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])"],
            start_new_session=True,
        )
        leader.wait(30)
        survivors = hygiene.kill_session(leader.pid, grace_s=0.2)
        assert len(survivors) == 1 and "time.sleep(60)" in survivors[0]
        assert hygiene.kill_session(leader.pid, grace_s=2.0) == []

    def test_a_pass_that_times_out_takes_its_server_with_it(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 2.5)  # the server is up, the window still open
        monkeypatch.setattr(run, "SETUPS", 1)
        assert run.main(["--workload", "serve_bulk", "--trace", "0", "--out", str(tmp_path)]) == 1
        document = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert document["correct"] is False and document["failed"] == 1
        crashed = json.loads((tmp_path / "results.json").read_text())["runs"][0]
        assert "did not finish" in crashed["errors"][0]
        assert any("repro.serve" in leak and "was killed" in leak for leak in crashed["leaks"])
        assert not [line for _pid, _fields, line in hygiene._processes() if "repro.serve" in line]


class TestSpans:
    def test_self_time_is_the_span_minus_its_children(self):
        recorder = SpanRecorder()
        with recorder.span("execute", "executor", op=1) as parent:
            pass
        parent.end = parent.start + 1.0
        loop = recorder.aggregate(parent, "round loop", "executor.loop", 0.8)
        recorder.aggregate(loop, "plan", "planner", 0.5)
        seconds = recorder.self_seconds()
        assert seconds["executor"] == pytest.approx(0.2)
        assert seconds["executor.loop"] == pytest.approx(0.3)
        assert seconds["planner"] == pytest.approx(0.5)
        assert recorder.self_shares()["planner"] == pytest.approx(0.5)
        assert loop.op == 1 and loop.aggregate
