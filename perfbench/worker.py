"""One benchmark workload in its own process: set up, measure, check, report.

    python3 perfbench/worker.py --workload train --seed 1 --seconds 10 \
        --trace 0 --spawned-at <time.monotonic() of the parent at spawn>

run.py starts this; it is not meant to be run by hand.  Every workload is a
closed loop: this single thread issues the next library call only after the
previous one returned.  Outputs are checked outside the timed region.  The
last line of stdout is one JSON record.

With --trace 0 all of --seconds is measured untraced.  With --trace 1 the
first half is untraced (the reference for the tracing overhead and for the
workload's own metrics) and the second half records spans around calls into
the library's modules (see tracer.py).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from delins import dp, oracle, sampler, scorer  # noqa: E402
from delins.seqcore import Sequence  # noqa: E402
from tracer import ATTRS, END, NAME, OP, PARENT, START, Tracer  # noqa: E402


@dataclass
class Call:
    """One closed-loop library call (or a fixed block of them)."""

    elapsed: float          # seconds inside the library
    units: int              # work done, in the workload's unit
    op_ms: list[float]      # latency of each operation in the call
    payload: object = None  # outputs; checked after timing, then dropped
    summary: dict = field(default_factory=dict)  # what the metrics need of them, kept
    speed: float = 1.0      # machine speed right after the call (see machine_speed)


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(note)


# units of each workload's own named metrics (run.py prints them on the second line
# and adds setup_s and setup_wall_s)
NAMED_UNITS = {
    "peak_rss_mib": "MiB", "failed_frac": "frac", "machine_speed": "x",
    "train_steps_per_s": "1/s", "train_step_ms_p50": "ms", "train_step_ms_p99": "ms",
    "train_steps_measured": "count", "sample_var_tokens_per_s": "1/s",
    "sample_fixed_tokens_per_s": "1/s", "sample_fixed_short_frac": "frac",
    "sweep_pairs_per_s": "1/s", "ratios_cells_per_s": "1/s",
}


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _quantile(xs, q: float) -> float:
    return float(np.quantile(np.asarray(xs), q)) if xs else 0.0


def _ref_rate(calls: list[Call]) -> float:
    """Total work over total time at the reference machine speed."""
    return _rate(calls, seconds=lambda c: c.elapsed * c.speed)


def _rate(calls: list[Call], units=lambda c: c.units, seconds=lambda c: c.elapsed) -> float:
    """Total work over total time."""
    return sum(map(units, calls)) / sum(map(seconds, calls))


# ---------------------------------------------------------------------------
# machine speed
#
# On the machine the benchmark was built on, each CPU switched every few
# seconds between two speeds about 1.8x apart, from outside the container
# (full CPU time, no steal time).  So after every call the worker times a
# fixed reference kernel that calls nothing from the library, and the gated
# throughput counts each call's time at the reference speed: elapsed * speed,
# where speed is the kernel's reference time over its time now.  A library
# change cannot change the kernel, so its effect shows in full while the
# machine's changes cancel.  Each workload names the kernel whose mix of
# Python and numpy work is like its own.


def _kernel_small() -> float:
    """A Python loop with tiny numpy row updates, like the short-pair DP and the sampler."""
    t0 = perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    row = np.zeros(16)
    for _ in range(1500):
        row[1:] = row[:-1] + 1.0
        row.any()
    return perf_counter() - t0


def _kernel_large() -> float:
    """A row-by-row log-add sweep over a fresh 13 MB table, like the long-pair DP."""
    t0 = perf_counter()
    table = np.zeros((200, 8200))
    for j in range(1, 200):
        prev = table[j - 1]
        table[j, 1:] = np.logaddexp(prev[1:], np.where(prev[:-1] > 1.0, prev[:-1], -1e6))
    return perf_counter() - t0


# kernel -> (function, its time in seconds at the reference speed)
KERNELS = {"small": (_kernel_small, 0.009), "large": (_kernel_large, 0.05)}


def machine_speed(kernel: str) -> float:
    """The kernel's reference time over its time now: 1 at the reference speed."""
    fn, ref = KERNELS[kernel]
    return ref / fn()


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A workload: set up from a seed in __init__, then call, check, finish."""

    kernel: str  # the machine-speed reference kernel (see KERNELS)

    def finish(self, checks: Checks) -> None:
        """Run-level checks, after the last call."""


class Train(Workload):
    """scorer.train, dise mode, c10 corpus, batch 32, adam, lr 0.05.

    Training runs in calls of CHUNK_EPOCHS epochs (16 steps each), params
    carried from call to call; a step is timed between on_step callbacks.
    """

    CHUNK_EPOCHS = 8
    unit = "step"
    kernel = "small"

    def __init__(self, seed: int):
        self.seed = seed
        self.corpus = inputs.c10_corpus(inputs.rng_for(seed, 0))
        self.params = scorer.ScorerParams.init(len(self.corpus.vocab), "dise")
        self.calls = 0
        self.losses: list[float] = []
        scorer.train(self.params, self.corpus, self._config(1))  # warm-up, result dropped

    def _config(self, epochs: int) -> dict:
        return {"epochs": epochs, "batch": 32, "lr": 0.05, "optimizer": "adam",
                "seed": self.seed * 100_003 + self.calls}

    def call(self, tracer: Tracer | None) -> Call:
        marks: list[float] = []

        def on_step(_metrics):
            marks.append(perf_counter())
            if tracer is not None:
                tracer.end()
                tracer.op_id += 1
                tracer.begin("scorer.train_step")

        self.calls += 1
        cfg = self._config(self.CHUNK_EPOCHS)
        if tracer is not None:
            tracer.op_id += 1
            tracer.begin("scorer.train_step")
        t0 = perf_counter()
        self.params, metrics = scorer.train(self.params, self.corpus, cfg, on_step)
        t1 = perf_counter()
        if tracer is not None:
            tracer.end()[ATTRS] = {"tail": True}  # train() returning, not a step
        step_ms = np.diff([t0] + marks) * 1000.0
        return Call(t1 - t0, len(metrics), step_ms.tolist(), [m["loss"] for m in metrics])

    def check(self, call: Call, checks: Checks) -> None:
        for loss in call.payload:
            checks.add(math.isfinite(loss), f"non-finite loss {loss}")
        self.losses.extend(call.payload)

    def finish(self, checks: Checks) -> None:
        window = min(100, len(self.losses) // 4)
        first = float(np.mean(self.losses[:window]))
        last = float(np.mean(self.losses[-window:]))
        checks.add(last < first, f"loss did not fall: first {first}, last {last}")

    def tracing(self, tracer: Tracer) -> None:
        tracer.patch(scorer, "forward_sample", "process.forward_sample")
        tracer.patch(dp, "batched_n_ratios_auto", attrs_of=lambda a, k: {
            "cells": inputs.cells(a[0]), "table_bytes": inputs.table_bytes(a[0])})
        tracer.patch(dp, "batched_n_ratios", attrs_of=_domain_attrs)

    def named(self, calls: list[Call]) -> dict:
        steps = [ms for c in calls for ms in c.op_ms]
        return {
            "train_steps_per_s": _rate(calls),
            "train_step_ms_p50": _median(steps),
            "train_step_ms_p99": _quantile(steps, 0.99),
            "train_steps_measured": len(steps),
        }

    def per_layer(self, tracer: Tracer) -> dict:
        steps = [i for i, s in enumerate(tracer.spans)
                 if s[NAME] == "scorer.train_step" and not s[ATTRS]]
        in_step = set(steps)
        dur = {"dp": 0.0, "process": 0.0}
        cells = table = 0
        for s in tracer.spans:
            if s[PARENT] in in_step:
                layer = s[NAME].split(".", 1)[0]
                dur[layer] += s[END] - s[START]
                if s[NAME] == "dp.batched_n_ratios_auto":
                    cells += s[ATTRS]["cells"]
                    table += s[ATTRS]["table_bytes"]
        n = len(steps)
        step_s = sum(tracer.spans[i][END] - tracer.spans[i][START] for i in steps)
        return {
            "train.dp.ratios_ms_per_step": 1000.0 * dur["dp"] / n,
            "train.dp.cells_per_step.computed": cells / n,
            "train.dp.table_bytes_per_step.computed": table / n,
            "train.dp.exact_ok_frac": _exact_ok_frac(tracer),
            "train.process.forward_sample_ms_per_step": 1000.0 * dur["process"] / n,
            "train.scorer.self_ms_per_step": 1000.0 * (step_s - dur["dp"] - dur["process"]) / n,
            "train.step_ms_traced": 1000.0 * step_s / n,
        }


class Sample(Workload):
    """sampler.batch_generate with scorer.score, one var and one fixed half per call."""

    WALKERS = 32
    STEPS = 64
    unit = "token"
    kernel = "small"

    def __init__(self, seed: int):
        self.seed = seed
        dise = scorer.load(HERE / "ckpt" / "dise.ckpt")
        dice = scorer.load(HERE / "ckpt" / "dice.ckpt")
        self.halves = {
            "var": (dise, {"steps": self.STEPS, "top_p": 1.0, "mode": "variable"}),
            "fixed": (dice, {"steps": self.STEPS, "top_p": 0.9, "mode": "fixed", "k": dice.k}),
        }
        self.calls = 0
        self.stats = {h: {"walkers": 0, "tokens": 0, "gap_steps": 0,
                          "clamp": 0, "cancel": 0, "short": 0} for h in self.halves}
        for params, cfg in self.halves.values():  # warm-up
            sampler.batch_generate(scorer.score, params, sampler.SamplerConfig(**cfg, seed=seed), 2)

    def call(self, tracer: Tracer | None) -> Call:
        self.calls += 1
        out = {}
        elapsed = 0.0
        for h, (half, (params, cfg)) in enumerate(self.halves.items()):
            config = sampler.SamplerConfig(**cfg, seed=(self.seed << 24) + 2 * self.calls + h)
            score_fn, generate = scorer.score, sampler.batch_generate
            if tracer is not None:
                tracer.op_id = 2 * self.calls + h
                score_fn = tracer.wrap("scorer.score", scorer.score)
                generate = tracer.wrap("sampler.batch_generate", generate)
            t0 = perf_counter()
            traces, _summary = generate(score_fn, params, config, self.WALKERS)
            dt = perf_counter() - t0
            elapsed += dt
            out[half] = (traces, dt, params)
        summary = {half: (sum(tr.final.content_len for tr in traces), dt)
                   for half, (traces, dt, _) in out.items()}
        tokens = sum(t for t, _ in summary.values())
        return Call(elapsed, tokens, [elapsed * 1000.0], out, summary)

    def check(self, call: Call, checks: Checks) -> None:
        for half, (traces, _, params) in call.payload.items():
            st = self.stats[half]
            st["walkers"] += len(traces)
            for tr in traces:
                x = tr.final
                ok = (isinstance(x, Sequence) and x.ids[0] == 0
                      and all(0 < v < params.vocab_size for v in x.content))
                if half == "fixed":
                    ok = ok and x.content_len <= params.k
                    st["short"] += x.content_len < params.k
                checks.add(ok, f"{half} sample {x.ids} invalid")
                st["tokens"] += x.content_len
                st["gap_steps"] += tr.stats.gap_steps
                st["clamp"] += tr.stats.clamp_events
                st["cancel"] += tr.stats.cancelled

    def tracing(self, tracer: Tracer) -> None:
        for attr in ("generate", "reverse_step", "gap_insertion_probabilities"):
            tracer.patch(sampler, attr)

    def named(self, calls: list[Call]) -> dict:
        fixed = self.stats["fixed"]
        return {
            "sample_var_tokens_per_s": _rate(calls, lambda c: c.summary["var"][0], lambda c: c.summary["var"][1]),
            "sample_fixed_tokens_per_s": _rate(calls, lambda c: c.summary["fixed"][0], lambda c: c.summary["fixed"][1]),
            "sample_fixed_short_frac": fixed["short"] / fixed["walkers"],
        }

    def per_layer(self, tracer: Tracer) -> dict:
        halves = list(self.halves)
        walker_steps = {h: 0 for h in halves}
        score = {h: 0.0 for h in halves}
        probs = {h: 0.0 for h in halves}
        for s in tracer.spans:
            h = halves[s[OP] % 2]
            if s[NAME] == "sampler.batch_generate":
                walker_steps[h] += self.WALKERS * self.STEPS
            elif s[NAME] == "scorer.score":
                score[h] += s[END] - s[START]
            elif s[NAME] == "sampler.gap_insertion_probabilities":
                probs[h] += s[END] - s[START]
        out = {}
        for h in halves:
            own = tracer.self_time_by_layer(lambda s, h=h: halves[s[OP] % 2] == h)
            n = walker_steps[h]
            st = self.stats[h]
            proposals = st["tokens"] + st["cancel"]
            out.update({
                f"sample.{h}.scorer.score_ms_per_walker_step": 1000.0 * score[h] / n,
                f"sample.{h}.sampler.self_ms_per_walker_step": 1000.0 * own.get("sampler", 0.0) / n,
                f"sample.{h}.sampler.gap_probs_ms_per_walker_step": 1000.0 * probs[h] / n,
                f"sample.{h}.sampler.gap_steps_per_walker": st["gap_steps"] / st["walkers"],
                f"sample.{h}.sampler.insert_frac": st["tokens"] / st["gap_steps"],
                f"sample.{h}.sampler.clamp_frac": st["clamp"] / st["gap_steps"],
                f"sample.{h}.sampler.cancel_frac": st["cancel"] / proposals if proposals else 0.0,
            })
        out["sample.fixed.sampler.short_frac"] = self.stats["fixed"]["short"] / self.stats["fixed"]["walkers"]
        return out


class CountSweep(Workload):
    """Acceptance c01 traffic: enumerate, grid and count every subsequence of every x_0.

    x_0 runs over all strings of 0..SWEEP_MAX_LEN letters from a 3-letter
    alphabet in a seeded order; one call handles BLOCK of them.
    """

    BLOCK = 64
    unit = "pair"
    kernel = "small"

    def __init__(self, seed: int):
        self.x0s = inputs.sweep_x0s(inputs.rng_for(seed, 2))
        self.next = 0
        for x_0 in self.x0s[:8]:  # warm-up
            self._op(x_0, None)

    @staticmethod
    def _op(x_0: Sequence, tracer: Tracer | None):
        enum = oracle.subsequence_enumeration(x_0)
        if tracer is not None:
            tracer.begin("seqcore.Sequence")
        subs = [Sequence(ids) for ids in enum]
        if tracer is not None:
            tracer.end()
        grids = dp.batched_insertion_counts([(s, x_0) for s in subs], inputs.SWEEP_VOCAB)
        counts = [dp.subsequence_count(s, x_0) for s in subs]
        return enum, subs, grids, counts

    def call(self, tracer: Tracer | None) -> Call:
        block = [self.x0s[(self.next + i) % len(self.x0s)] for i in range(self.BLOCK)]
        self.next += self.BLOCK
        outs, op_ms = [], []
        for x_0 in block:
            if tracer is not None:
                tracer.op_id += 1
                tracer.begin("bench.sweep_x0")
            t0 = perf_counter()
            outs.append(self._op(x_0, tracer))
            op_ms.append((perf_counter() - t0) * 1000.0)
            if tracer is not None:
                tracer.end()
        units = sum(len(o[1]) for o in outs)
        return Call(sum(op_ms) / 1000.0, units, op_ms, outs)

    def check(self, call: Call, checks: Checks) -> None:
        for enum, subs, grids, counts in call.payload:
            for x_t, grid, count in zip(subs, grids, counts):
                ids = x_t.ids
                ok = int(count) == enum[ids] and grid.shape == (len(ids), inputs.SWEEP_VOCAB)
                for i in range(len(ids)):
                    head, tail = ids[: i + 1], ids[i + 1:]
                    for v in range(inputs.SWEEP_VOCAB):
                        ok = ok and int(grid[i, v]) == enum.get(head + (v,) + tail, 0)
                checks.add(ok, f"pair {ids} mismatches enumeration")

    def tracing(self, tracer: Tracer) -> None:
        pair_attrs = lambda a, k: {"cells": inputs.cells([(a[0], a[1])])}  # noqa: E731
        tracer.patch(oracle, "subsequence_enumeration")
        tracer.patch(dp, "batched_insertion_counts", attrs_of=lambda a, k: {
            "cells": inputs.cells(a[0]), "pairs": len(a[0])})
        tracer.patch(dp, "subsequence_count", attrs_of=pair_attrs)

    def named(self, calls: list[Call]) -> dict:
        return {"sweep_pairs_per_s": _rate(calls)}

    def per_layer(self, tracer: Tracer) -> dict:
        t = {"oracle.subsequence_enumeration": 0.0, "dp.batched_insertion_counts": 0.0,
             "dp.subsequence_count": 0.0, "seqcore.Sequence": 0.0}
        calls = {k: 0 for k in t}
        pairs = cells = 0
        for s in tracer.spans:
            if s[NAME] in t:
                t[s[NAME]] += s[END] - s[START]
                calls[s[NAME]] += 1
                if s[NAME].startswith("dp."):
                    cells += s[ATTRS]["cells"]
                if s[NAME] == "dp.batched_insertion_counts":
                    pairs += s[ATTRS]["pairs"]
        us = 1e6 / pairs
        return {
            "count-sweep.oracle.enumerate_us_per_pair": us * t["oracle.subsequence_enumeration"],
            "count-sweep.seqcore.build_us_per_pair": us * t["seqcore.Sequence"],
            "count-sweep.dp.grid_us_per_pair": us * t["dp.batched_insertion_counts"],
            "count-sweep.dp.count_us_per_pair": us * t["dp.subsequence_count"],
            "count-sweep.dp.grid_calls": calls["dp.batched_insertion_counts"],
            "count-sweep.dp.count_calls": calls["dp.subsequence_count"],
            "count-sweep.dp.cells.computed": cells,
        }


class RatiosLong(Workload):
    """dp.batched_n_ratios_auto on batches of 4 long pairs; one call cycles all lengths."""

    unit = "cell"
    kernel = "large"

    def __init__(self, seed: int):
        self.batches = inputs.long_batches(inputs.rng_for(seed, 3))
        self.cells = {n: inputs.cells(b) for n, b in self.batches.items()}
        self.per_pair_ms = {n: [] for n in self.batches}
        warm = self.batches[inputs.LONG_LENGTHS[0]]  # exact succeeds here
        dp.batched_n_ratios_auto(warm, inputs.LONG_VOCAB)
        dp.batched_n_ratios(warm, inputs.LONG_VOCAB, "log")

    def call(self, tracer: Tracer | None) -> Call:
        auto = dp.batched_n_ratios_auto
        elapsed, out = 0.0, {}
        if tracer is not None:
            tracer.op_id += 1
        for n, batch in self.batches.items():
            if tracer is not None:
                auto = tracer.wrap("dp.batched_n_ratios_auto", dp.batched_n_ratios_auto,
                                   lambda a, k, n=n: {"L": n})
            t0 = perf_counter()
            mats = auto(batch, inputs.LONG_VOCAB)
            dt = perf_counter() - t0
            elapsed += dt
            self.per_pair_ms[n].append(1000.0 * dt / len(batch))
            out[n] = mats
        if tracer is not None:
            # time the log domain on the batches where auto never ran it
            ran_log = {s[ATTRS]["L"] for s in tracer.spans
                       if s[OP] == tracer.op_id and s[NAME] == "dp.batched_n_ratios"
                       and s[ATTRS]["domain"] == "log"}
            for n, batch in self.batches.items():
                if n not in ran_log:
                    dp.batched_n_ratios(batch, inputs.LONG_VOCAB, "log")
        return Call(elapsed, sum(self.cells.values()), [1000.0 * elapsed], out)

    def check(self, call: Call, checks: Checks) -> None:
        for n, mats in call.payload.items():
            for (x_t, x_0), mat in zip(self.batches[n], mats):
                want = x_0.content_len - x_t.content_len
                ok = bool(np.all(np.isfinite(mat.ratios))) and abs(mat.grand_sum - want) <= 1e-6 * want
                checks.add(ok, f"L={n}: grand sum {mat.grand_sum} != {want}")

    def tracing(self, tracer: Tracer) -> None:
        tracer.patch(dp, "batched_n_ratios", attrs_of=_domain_attrs)

    def named(self, calls: list[Call]) -> dict:
        return {"ratios_cells_per_s": _rate(calls)}

    def per_layer(self, tracer: Tracer) -> dict:
        out = {}
        def batch_ms(n: int, domain: str) -> float:
            return 1000.0 * _median([s[END] - s[START] for s in tracer.spans
                                     if s[NAME] == "dp.batched_n_ratios"
                                     and s[ATTRS]["L"] == n and s[ATTRS]["domain"] == domain])

        for n, batch in self.batches.items():
            tracemalloc.start()
            dp.batched_n_ratios_auto(batch, inputs.LONG_VOCAB)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            out.update({
                f"ratios-long.dp.ms_per_pair.L{n}": _median(self.per_pair_ms[n]),
                f"ratios-long.dp.exact_attempt_ms.L{n}": batch_ms(n, "exact"),
                f"ratios-long.dp.log_ms.L{n}": batch_ms(n, "log"),
                f"ratios-long.dp.peak_traced_mib.L{n}": peak / 2**20,
                f"ratios-long.dp.table_bytes.L{n}.computed": inputs.table_bytes(batch),
            })
        out["ratios-long.dp.exact_ok_frac"] = _exact_ok_frac(tracer)
        return out


def _domain_attrs(args, kwargs) -> dict:
    domain = args[2] if len(args) > 2 else kwargs.get("domain", "exact")
    return {"domain": domain, "L": args[0][0][1].content_len}


def _exact_ok_frac(tracer: Tracer) -> float:
    exact = [s for s in tracer.spans
             if s[NAME] == "dp.batched_n_ratios" and s[ATTRS]["domain"] == "exact"]
    return sum("error" not in s[ATTRS] for s in exact) / len(exact)


WORKLOADS = {"train": Train, "sample": Sample, "count-sweep": CountSweep, "ratios-long": RatiosLong}


# ---------------------------------------------------------------------------
# harness


def measure(w, seconds: float, checks: Checks, tracer: Tracer | None = None) -> list[Call]:
    """Closed loop: issue calls until `seconds` of library time are measured."""
    calls: list[Call] = []
    busy = 0.0
    while busy < seconds:
        call = w.call(tracer)
        busy += call.elapsed
        call.speed = machine_speed(w.kernel)
        w.check(call, checks)
        call.payload = None
        calls.append(call)
    return calls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    if not Path(dp.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"delins imported from {dp.__file__}, not from this checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    record = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    checks = Checks()
    per_layer = {}
    if args.trace:
        calls = measure(w, args.seconds / 2, checks)
        tracer = Tracer()
        w.tracing(tracer)
        try:
            traced = measure(w, args.seconds / 2, checks, tracer)
        finally:
            tracer.unpatch()
        per_layer = w.per_layer(tracer)
        per_layer[f"{args.workload}.tracing_overhead_frac"] = _ref_rate(calls) / _ref_rate(traced) - 1.0
        if args.spans_out:
            tracer.write(args.spans_out)
    else:
        calls = measure(w, args.seconds, checks)
    w.finish(checks)

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record.update({
        "end_to_end": {
            "peak_rss_mib": peak_rss_mib,
            "work_per_ref_s": _ref_rate(calls),
        },
        "named": {name: {"value": v, "unit": NAMED_UNITS[name]} for name, v in {
            "peak_rss_mib": peak_rss_mib,
            "failed_frac": checks.failed / checks.attempted,
            "machine_speed": _median([c.speed for c in calls]),
            **w.named(calls),
        }.items()},
        "per_layer": per_layer,
        "unit": w.unit,
        "calls": len(calls),
        "ops": sum(len(c.op_ms) for c in calls),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "check_notes": checks.notes,
        "numpy": np.__version__,
    })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
