"""Benchmark contract: every workload runs clean and its layer spans still fire.

A refactor that stops a library call from resolving through the module
attribute the benchmark's tracer patches would read 0 on that layer without
failing anything else; these runs catch that in a few seconds.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SPANS = {
    "train": ["train.dp.ratios_ms_per_step", "train.process.forward_sample_ms_per_step"],
    "sample": ["sample.var.scorer.score_ms_per_walker_step",
               "sample.fixed.scorer.score_ms_per_walker_step",
               "sample.var.sampler.gap_probs_ms_per_walker_step"],
    "count-sweep": ["count-sweep.dp.count_us_per_pair", "count-sweep.dp.grid_us_per_pair"],
    "ratios-long": ["ratios-long.dp.exact_attempt_ms.L256", "ratios-long.dp.log_ms.L2048"],
}

# share of exact attempts that fit uint64: an engine change that moves pairs
# between domains shows here (ratios-long overflows at 1024 and 2048 only)
EXACT_OK = {"train": 1.0, "ratios-long": 0.5}


@pytest.mark.parametrize("workload", sorted(SPANS))
def test_workload_runs_and_traces_its_layers(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", "1", "--spawned-at", str(time.monotonic())],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["failed"] == 0, record["check_notes"]
    for name in SPANS[workload]:
        assert record["per_layer"][name] > 0, name
    if workload in EXACT_OK:
        assert record["per_layer"][f"{workload}.dp.exact_ok_frac"] == EXACT_OK[workload]
