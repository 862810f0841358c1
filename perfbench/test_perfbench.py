"""Tests of the benchmark itself, not of tabparse.

    python3 -m pytest perfbench

Smoke runs of every workload pass their checks and report exactly the
metrics BENCHMARK.json names; a deliberately wrong output fails a check;
the named fault of `lists` is counted as a failed operation; and without
the sources the command fails without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts this checkout's src/ first on sys.path)
import workloads  # noqa: E402
from tabparse import forest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section):
    return {m["name"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_its_checks(workload):
    result, details, _ = run.measure(workload, seed=7, seconds=0, trace=False, smoke=True)
    assert result["correct"], details["problems"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result, _, tracer = run.measure("sweep", seed=7, seconds=0, trace=True, smoke=True)
    assert result["correct"]
    assert set(result["metrics"]) == _names("per_layer")
    assert {s[0] for s in tracer.spans} >= {"setup", "job", "forest.extract"}


def test_workloads_match_the_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_count_off_by_one_fails_a_check(monkeypatch):
    real = forest.count_trees

    def off_by_one(f):
        counted = real(f)
        if counted.infinite:
            return counted
        return forest.TreeCount(counted.value + 1, False)

    monkeypatch.setattr(forest, "count_trees", off_by_one)
    result, details, _ = run.measure("ambiguous", seed=7, seconds=0, trace=False, smoke=True)
    assert not result["correct"]
    assert any("expected" in p for p in details["problems"])


def test_wrong_tree_fails_a_check(monkeypatch):
    real = forest.extract_trees

    def reversed_children(f, k):
        return [t._replace(children=t.children[::-1]) for t in real(f, k)]

    monkeypatch.setattr(forest, "extract_trees", reversed_children)
    result, details, _ = run.measure("lists", seed=7, seconds=0, trace=False, smoke=True)
    assert not result["correct"]
    assert any("comb" in p or "yield" in p for p in details["problems"])


def test_left_list_extraction_fault_is_a_failed_operation():
    case = workloads.lists(7)[0]
    (prepared,) = run.setup([case], run.Tracer(False))
    toks = ("a",) * workloads.LEFT_FAULT_LENGTH
    tracer = run.Tracer(False)
    for alg in ("earley", "topdown"):
        outcome, _, parse_s, failed = run.run_job(alg, prepared.machines[alg], toks, 3, tracer, 0)
        assert failed and parse_s is None and outcome["verdict"]


def test_growth_exponent_recovers_a_cube():
    points = [(s, n, c * n**3) for s, c in (("x", 1e-6), ("y", 5e-6)) for n in (10, 20, 40, 80)]
    assert run._growth_exponent(points) == pytest.approx(3.0)


def test_command_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lists", "--seed", "3",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_without_sources_the_command_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lists", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
