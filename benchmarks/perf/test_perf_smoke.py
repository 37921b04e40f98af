"""Smoke test of the perf benchmark: ``--size tiny`` end to end, schema validated.

Not part of tier-1 (``testpaths`` is ``tests/``); run it with
``python -m pytest benchmarks/perf/test_perf_smoke.py``.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
BENCH = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def run(*args, check=True):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=REPO,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    if check:
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc


def test_benchmark_json_meets_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["benchmarks/perf"] and BENCH["command"][-1].startswith("benchmarks/perf/")
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8 and 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = [w["name"] for w in BENCH["workloads"]] + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert (REPO / "BENCHMARK.json").stat().st_size <= 64 * 1024


def result_line(stdout: str) -> dict:
    res = json.loads(stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    return res


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_prints_every_metric(workload, tmp_path):
    pins = json.loads((HERE / "pins.json").read_text())["input_sha256"]["tiny"][workload]["1"]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
        proc = run(*args)
        res = result_line(proc.stdout)
        want = {m["name"]: m["unit"] for m in BENCH[section]}
        assert set(res["metrics"]) == set(want)
        for name, m in res["metrics"].items():
            assert set(m) == {"value", "unit"} and m["unit"] == want[name]
            assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
            if section == "end_to_end":
                assert m["value"] > 0, name
        assert pins in proc.stdout and "matches pin" in proc.stdout
    trace_file = HERE / "out" / f"trace-{workload}-seed1.json"
    events = json.loads(trace_file.read_text())["traceEvents"]
    assert events and all({"name", "ph", "ts", "dur", "pid", "tid"} <= set(e) for e in events)
    assert {e["tid"] for e in events} == {1, 2}  # benchmark-side spans and harvested repro.obs spans


def test_same_seed_same_inputs_and_ledger_compares_clean(tmp_path):
    ledger = tmp_path / "ledger.json"
    proc = run("--workload", "ingest-skewed", "--size", "tiny", "--seconds", "1", "--sets", "2", "--out", str(ledger))
    assert "repeatability over 2 sets" in proc.stdout
    runs = json.loads(ledger.read_text())["runs"]
    assert len(runs) == 2 and runs[0]["digest"] == runs[1]["digest"]
    cmp = subprocess.run([sys.executable, str(HERE / "compare.py"), str(ledger), str(ledger)],
                         stdout=subprocess.PIPE, text=True, timeout=60)
    assert cmp.returncode == 0 and "0 end-to-end regressed" in cmp.stdout and "(identical)" in cmp.stdout


def test_no_result_without_the_library(tmp_path):
    """In a directory holding only BENCHMARK.json and this package the run must fail, printing no result."""
    import shutil

    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/perf/run.py", "--workload", "ingest-skewed", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout
