"""Self-tests of the benchmark.

Run from the repository root (takes about three minutes):

    python3 -m pytest perfbench/test_perfbench.py

Two traced runs of each workload must give identical counts: these are the
figures a later change may cite as counts rather than as speed-ups.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("couette_sweep", "family_sweep", "oracle_solve")
# every "<span>.calls" (scipy.splu.calls and scipy.spsolve.calls among them)
# and the counters read from arguments and return values
EXACT = (".calls", "boundary_layers.march_steps", "linearized.lu_fill_nnz",
         "nonlinear.picard.iterations")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    runs = [result("--workload", workload, "--seconds", "0", "--trace", "1")
            for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if k.endswith(EXACT)} for r in runs]
    assert counts[0] == counts[1]
    for r in runs:
        assert r["correct"] and r["failed"] == 0
        assert set(r["metrics"]) == declared("per_layer")
        # named spans cover at least 90% of the traced run
        assert r["metrics"]["trace.named_frac"]["value"] >= 0.90


def test_end_to_end_metrics_match_definition():
    r = result("--workload", "family_sweep", "--seconds", "0", "--trace", "0")
    # at least two samples of the five-point sweep
    assert r["correct"] and r["attempted"] >= 10 and r["failed"] == 0
    assert set(r["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in r["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "family_sweep", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_probe_weights_time_by_speed():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import child
    probe = child.SpeedProbe()
    probe.WINDOW = 1
    # two 0.1 s ticks: the host ran at half the reference speed until the
    # first and at the reference speed after it
    probe.ticks = [(1.0, 1.1, 2 * probe.REF_S), (3.0, 3.1, probe.REF_S)]
    assert probe.wall_seconds(0.0, 4.0) == pytest.approx(3.8)
    assert probe.ref_seconds(0.0, 4.0) == pytest.approx(0.5 + 1.9 + 0.9)
    assert probe.ref_seconds(2.0, 3.5) == pytest.approx(1.0 + 0.4)
