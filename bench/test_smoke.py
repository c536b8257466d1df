"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest -q bench/test_smoke.py

It checks that every metric named in BENCHMARK.json is printed with its
unit on every workload, that a wrong expected verdict is counted as a
failure (so the output checks are not vacuous), that counts and CLI report
digests repeat across runs with the same seed, and that the benchmark
refuses to run without the program next to it.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
_RUNS: dict = {}


def run_bench(workload: str, trace: int, attempt: int = 1, cwd: Path = ROOT):
    """Run the benchmark tiny and short; cache by arguments."""
    key = (workload, trace, attempt, cwd)
    if key not in _RUNS:
        proc = subprocess.run(
            [sys.executable, str(cwd / SPEC["command"][1]), "--workload", workload,
             "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
            cwd=cwd, capture_output=True, text=True, timeout=170)
        _RUNS[key] = proc
    return _RUNS[key]


def result_of(proc) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, section):
    lines, result = result_of(run_bench(workload, trace))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    printed = {line.split()[0]: line.split() for line in lines[:-1] if len(line.split()) >= 3}
    for metric in SPEC[section]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert printed[name][2] == unit, f"{name} not printed with its unit"
    if trace == 0:
        assert printed["failed_frac"][1:3] == ["0", "ratio"]


def test_wrong_expected_verdict_is_counted_as_failed():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    try:
        import run
        import workloads
        from dilations import hull
    finally:
        del sys.path[:2]
    gens, _ = hull.permutation_generators(workloads.HULL_D)
    T = workloads._member(gens, True, random.Random(0))
    right = workloads._hull_job(T, False, "member")
    wrong = workloads._hull_job(T, False, "non-member")
    _, failed, _ = run.run_block([right, wrong])
    assert failed == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_runs_with_one_seed(workload):
    _, first = result_of(run_bench(workload, 1))
    _, second = result_of(run_bench(workload, 1, attempt=2))
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] not in ("s", "ratio")]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_cli_reports_repeat_across_runs_with_one_seed():
    digests = []
    for trace in (0, 1):
        lines, _ = result_of(run_bench("family-cli", trace))
        digests += [line for line in lines if line.startswith("report digest:")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
