"""delins benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ./src.  The
workload runs in fresh single-threaded worker processes (worker.py) with
the BLAS and OpenMP thread counts pinned to 1: SETUP_REPEATS of them only
set up, and one sets up and then measures.  setup_s is the median set-up
time over all of them at the reference machine speed: right before each
worker, a bare interpreter that imports numpy is started and timed, and the
worker's set-up time is scaled by REF_STARTUP_S over that time.  Process
start-up slowed and sped up with the machine by as much as the set-up did,
while a compute kernel did not track it.  setup_wall_s is the plain
wall-clock median.

Output: a line with the machine and environment, a line with the
workload's own named metrics, and as the last line one JSON object
{"correct", "attempted", "failed", "metrics"} whose metrics are the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1).  A per-layer metric of another workload reads 0: none of its
work ran.  The full record, and with --trace 1 the spans, are written under
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("train", "sample", "count-sweep", "ratios-long")
SETUP_REPEATS = 6
DEADLINE_S = 170.0  # the whole run, set-up processes included
REF_STARTUP = ["-c", "import numpy"]
REF_STARTUP_S = 0.19  # its time at the reference machine speed
PINNED_ENV = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_worker(args, extra: list[str], deadline: float) -> dict:
    """Start one worker, wait for it, return its last-line record.

    The record gains "startup_speed": REF_STARTUP_S over the time a bare
    interpreter running REF_STARTUP took right before the worker.
    """
    env = {**os.environ, **PINNED_ENV, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    t0 = time.monotonic()
    subprocess.run([sys.executable, *REF_STARTUP], env=env, check=True,
                   timeout=max(deadline - t0, 1.0))
    startup_speed = REF_STARTUP_S / (time.monotonic() - t0)
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(spawned_at), *extra]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(deadline - spawned_at, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return {**json.loads(proc.stdout.strip().splitlines()[-1]), "startup_speed": startup_speed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "delins" / "dp.py").is_file():
        return fail("no src/delins here; run from the root of a delins checkout")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return fail(f"cannot read BENCHMARK.json: {e}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setups = [run_worker(args, ["--setup-only"], deadline) for _ in range(SETUP_REPEATS)]
        extra = ["--spans-out", str(out_dir / f"{stem}.spans.jsonl")] if args.trace else []
        rec = run_worker(args, extra, deadline)
    except (RuntimeError, subprocess.SubprocessError, ValueError, IndexError, KeyError) as e:
        return fail(f"workload {args.workload} did not complete: {e}")
    setups.append(rec)
    wall = [r["setup_s"] for r in setups]

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": rec["numpy"], "git_commit": git_commit(root),
        "pinned_threads": PINNED_ENV["OMP_NUM_THREADS"],
        "unit_of_work": rec["unit"], "calls": rec["calls"], "ops": rec["ops"],
        "setup_wall_s_samples": wall,
        "startup_speed_samples": [r["startup_speed"] for r in setups],
    }
    values = {"setup_s": statistics.median(r["setup_s"] * r["startup_speed"] for r in setups),
              **rec["end_to_end"]}
    named = {**rec["named"], "setup_s": {"value": values["setup_s"], "unit": "s"},
             "setup_wall_s": {"value": statistics.median(wall), "unit": "s"}}
    if args.trace:
        values = rec["per_layer"]
    names = {m["name"] for m in declared}
    if set(values) - names:
        return fail(f"metrics not declared in BENCHMARK.json: {sorted(set(values) - names)}")
    if not args.trace and names - set(values):
        return fail(f"end-to-end metrics not measured: {sorted(names - set(values))}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    result = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"env": env, "workload_metrics": named, "check_notes": rec["check_notes"],
                    "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"env": env}))
    print(json.dumps({"workload_metrics": named}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
