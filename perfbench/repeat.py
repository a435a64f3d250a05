"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workloads train,sample --seeds 1-10 \
        --seconds 20 [--trace-seed 1] [--out perfbench/baseline.json]

Runs run.py once per (workload, seed), one run at a time, from the
repository root.  For every end-to-end and named metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median.  --trace-seed adds
one traced run per workload for the per-layer numbers.  --out writes
everything, machine details included, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()}")
    env, named, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-3:])
    return env["env"], named["workload_metrics"], result


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="train,sample,count-sweep,ratios-long")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    report = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for w in args.workloads.split(","):
        t0 = time.monotonic()
        series: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            env, named, result = run(w, seed, args.seconds, 0)
            if not result["correct"]:
                raise RuntimeError(f"{w} seed {seed}: outputs failed their checks")
            for name, m in {**result["metrics"], **named}.items():
                series.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        entry = {
            "env": {k: env[k] for k in ("nproc", "cpu_model", "python", "numpy", "git_commit")},
            "metrics": {n: {**summary(v), "unit": units[n]} for n, v in series.items()},
            "wall_s": time.monotonic() - t0,
        }
        if args.trace_seed is not None:
            _, _, traced = run(w, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {n: m for n, m in traced["metrics"].items() if m["value"]}
        report["workloads"][w] = entry
        print(f"== {w}: {len(args.seeds)} seeds in {entry['wall_s']:.0f} s")
        for n, s in entry["metrics"].items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {n:28s} median {s['median']:<12.6g} {s['unit']:6s} spread {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
