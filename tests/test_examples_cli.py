"""Smoke tests: every example script and every ``repro.bench`` arm runs to completion."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = {**os.environ, "REPRO_SCALE": "0.1", "PYTHONPATH": os.path.join(ROOT, "src")}


def run(args, timeout=300):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=ENV,
        capture_output=True, text=True, timeout=timeout,
    )


class TestExamples:
    @pytest.mark.parametrize(
        "script,needle",
        [
            ("examples/quickstart.py", "reopened from PM"),
            ("examples/cellular_hotspots.py", "collector restarted"),
            ("examples/crash_recovery_demo.py", "acknowledged edges intact"),
            ("examples/crash_recovery_demo.py", "ranges not byte-exact to a fault-free twin"),
            ("examples/framework_comparison.py", "five systems"),
        ],
    )
    def test_example_runs(self, script, needle):
        res = run([script])
        assert res.returncode == 0, res.stderr[-2000:]
        assert needle in res.stdout


#: every arm of ``python -m repro.bench`` at tiny scale: argv -> a needle
#: of its report.  Gates are always enforced, so a pass means they held.
ARM_SMOKE = {
    "insert": (["--dataset", "citpatents", "--scale", "0.1"], "insert throughput"),
    "analysis": (["--dataset", "citpatents", "--kernel", "bfs", "--scale", "0.1"], "vs CSR"),
    "ablation": (["--scale", "0.02", "--batch-size", "1"], "no_el_ul_dp"),
    "recovery": (["--dataset", "citpatents", "--scale", "0.1"], "crash recovery"),
    "profile": (["insert", "--scale", "0.02"], "batch_round"),
    "profile recovery": (["--scale", "0.02"], "rebuild_log_cursors"),
    "profile analysis": (["--scale", "0.02"], "view_materialize"),
    "profile rebalance": (["--scale", "0.02"], "write_window"),
}


@pytest.mark.parametrize("arm", ARM_SMOKE)
def test_arm_runs_in_process(arm, capsys):
    from repro.bench.__main__ import main

    argv, needle = ARM_SMOKE[arm]
    assert main(arm.split() + argv) == 0
    assert needle in capsys.readouterr().out


def test_every_arm_has_a_smoke_row():
    from repro.bench.__main__ import ARMS

    assert {a.split()[0] for a in ARM_SMOKE} == set(ARMS)


class TestCLI:
    def test_help(self):
        res = run(["-m", "repro.bench", "--help"])
        assert res.returncode == 0, res.stderr[-2000:]
        assert "usage" in res.stdout and "recovery" in res.stdout

    def test_bad_dataset_rejected(self):
        res = run(["-m", "repro.bench", "insert", "--dataset", "nope"])
        assert res.returncode != 0
