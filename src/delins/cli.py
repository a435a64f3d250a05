"""Command-line front end: count, train, sample, verify, bench.

Settings resolve as flag > config file > documented default.  The config
file is INI-style with one section per subcommand ([train], [sample], ...),
keys spelled like the long flags with underscores.  Runs that produce
metrics emit JSON-lines, starting with a record that echoes the fully
resolved configuration; --metrics redirects the stream to a file.

Exit codes: 0 success, 1 usage or configuration problem, 2 verification
failure, 3 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time

import numpy as np

from . import dp, verify
from . import scorer as scorer_mod
from .errors import (
    ConfigError,
    DelinsError,
    InvalidSteps,
    ShapeMismatch,
    UnknownSymbol,
    VersionMismatch,
)
from .sampler import SamplerConfig, batch_generate
from .seqcore import Sequence, Vocab, detokenize, load_corpus, scan_vocab, tokenize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this project reserves 2 for verify."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _bool(raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {raw!r}")


def _resolve(args, section: str, spec: dict) -> dict:
    """flag > config file > default, with config values cast per spec."""
    file_vals: dict[str, str] = {}
    config_path = getattr(args, "config", None)
    if config_path:
        cp = configparser.ConfigParser()
        try:
            if not cp.read(config_path):
                raise ConfigError(f"cannot read config file {config_path}")
            if cp.has_section(section):
                file_vals = dict(cp.items(section))
        except configparser.Error as exc:
            detail = "; ".join(str(exc).splitlines())
            raise ConfigError(f"config file {config_path}: {detail}") from None
    out = {}
    for key, (default, cast) in spec.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            out[key] = flag_val
        elif key in file_vals:
            try:
                out[key] = cast(file_vals[key])
            except ValueError:
                raise ConfigError(
                    f"config [{section}] {key} = {file_vals[key]!r} is not {cast.__name__}"
                ) from None
        else:
            out[key] = default
    return out


def _resolve_seed(seed):
    """A missing seed is drawn from entropy; the caller logs the value."""
    if seed is not None:
        return int(seed), False
    return int.from_bytes(os.urandom(8), "big") >> 1, True


class _Metrics:
    """JSON-lines sink, stdout by default."""

    def __init__(self, path):
        self.path = path
        self.fh = sys.stdout if path in (None, "-") else open(path, "w")

    def emit(self, record: dict) -> None:
        self.fh.write(json.dumps(record, sort_keys=True) + "\n")
        self.fh.flush()

    def close(self) -> None:
        if self.fh is not sys.stdout:
            self.fh.close()


# ---------------------------------------------------------------------------
# count


def _g6_of_exp(log_n: float) -> str:
    """e**log_n in '.6g' style, for log_n beyond float64: mantissa from log_n."""
    exp10 = math.floor(log_n / math.log(10))
    digits = f"{math.exp(log_n - exp10 * math.log(10)):.6g}"
    if digits == "10":
        digits, exp10 = "1", exp10 + 1
    return f"{digits}e+{exp10}"


def cmd_count(args) -> int:
    cfg = _resolve(args, "count", {
        "domain": ("auto", str),
        "tokenizer": ("char", str),
        "grid": (False, _bool),
    })
    symbols = []
    for text in (args.seq, args.sub):
        for ch in (text if cfg["tokenizer"] == "char" else text.split()):
            if ch not in symbols:
                symbols.append(ch)
    vocab = Vocab.build(symbols)
    sub = tokenize(args.sub, vocab, cfg["tokenizer"])
    seq = tokenize(args.seq, vocab, cfg["tokenizer"])
    domain = cfg["domain"]
    if domain not in ("auto", "exact", "log"):
        raise ConfigError(f"unknown domain {domain!r}")
    try:
        count = dp.linear_count(sub, seq, domain)
    except OverflowError:  # math.exp: the count is beyond float64
        print(_g6_of_exp(dp.subsequence_count(sub, seq, "log")))
    else:
        print(f"{count:.6g}" if isinstance(count, float) else str(count))
    if cfg["grid"]:
        grid = dp.linear_insertion_counts(sub, seq, len(vocab), domain)
        for i, row in enumerate(grid.tolist()):
            print(json.dumps({"gap": i, "counts": row}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def _read_lines(path) -> list[tuple[int, str]]:
    with open(path, encoding="utf-8") as fh:
        return [(i, text) for i, line in enumerate(fh, 1) if (text := line.rstrip("\n"))]


def cmd_train(args) -> int:
    cfg = _resolve(args, "train", {
        "corpus": (None, str),
        "mode": ("dise", str),
        "k": (None, int),
        "epochs": (1, int),
        "batch": (32, int),
        "lr": (0.05, float),
        "optimizer": ("adam", str),
        "tokenizer": ("char", str),
        "max_len": (None, int),
        "checkpoint_out": ("model.ckpt", str),
        "resume": (None, str),
        "seed": (None, int),
        "metrics": (None, str),
        "timing": (True, _bool),
        "dry_run": (False, _bool),
    })
    if not cfg["corpus"]:
        raise ConfigError("train needs --corpus")
    if cfg["mode"] not in ("dise", "dice"):
        raise ConfigError(f"unknown loss mode {cfg['mode']!r}")
    seed, drawn = _resolve_seed(cfg["seed"])
    cfg["seed"] = seed

    vocab = scan_vocab(cfg["corpus"], cfg["tokenizer"])
    corpus = load_corpus(cfg["corpus"], vocab, cfg["tokenizer"], cfg["max_len"])
    if not corpus.sequences:
        raise ConfigError(f"corpus {cfg['corpus']} has no usable lines")

    if cfg["mode"] == "dice":
        if cfg["k"] is None:
            cfg["k"] = corpus.sequences[0].content_len
        for (lineno, _), x in zip(_read_lines(cfg["corpus"]), corpus.sequences):
            if x.content_len != cfg["k"]:
                raise ConfigError(
                    f"line {lineno}: length {x.content_len} != k={cfg['k']}"
                    " (fixed-length mode needs a uniform corpus)"
                )
    else:
        cfg["k"] = None

    if cfg["resume"]:
        params = scorer_mod.load(cfg["resume"])
        if params.vocab_size != len(vocab):
            raise ConfigError(
                f"checkpoint vocab size {params.vocab_size} != corpus vocab {len(vocab)}"
            )
        if params.mode != cfg["mode"]:
            raise ConfigError(f"checkpoint mode {params.mode!r} != requested {cfg['mode']!r}")
        if cfg["mode"] == "dice" and params.k != cfg["k"]:
            raise ConfigError(f"checkpoint k={params.k} != corpus k={cfg['k']}")
    else:
        params = scorer_mod.ScorerParams.init(len(vocab), cfg["mode"], k=cfg["k"])

    metrics = _Metrics(None if cfg["dry_run"] else cfg["metrics"])
    try:
        metrics.emit({"config": {**cfg, "command": "train", "seed_drawn": drawn}})
        if cfg["dry_run"]:
            metrics.emit({"dry_run": True, "sequences": len(corpus), "vocab": len(vocab)})
            return EXIT_OK

        last = time.perf_counter()

        def on_step(m: dict) -> None:
            nonlocal last
            now = time.perf_counter()
            rec = dict(m)
            if cfg["timing"]:
                rec["wall_ms"] = round((now - last) * 1000.0, 3)
            last = now
            metrics.emit(rec)

        trained, _ = scorer_mod.train(
            params,
            corpus,
            {
                "epochs": cfg["epochs"],
                "batch": cfg["batch"],
                "lr": cfg["lr"],
                "optimizer": cfg["optimizer"],
                "seed": seed,
            },
            on_step=on_step,
        )
        scorer_mod.save(trained, cfg["checkpoint_out"])
        vocab.save(cfg["checkpoint_out"] + ".vocab")
        metrics.emit({"checkpoint": cfg["checkpoint_out"], "done": True})
    finally:
        metrics.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args) -> int:
    cfg = _resolve(args, "sample", {
        "checkpoint": (None, str),
        "vocab": (None, str),
        "steps": (64, int),
        "grid": ("uniform", str),
        "top_p": (1.0, float),
        "count": (16, int),
        "prompt": (None, str),
        "sampler_mode": (None, str),
        "k": (None, int),
        "tokenizer": ("char", str),
        "seed": (None, int),
        "out": (None, str),
        "trace": (None, str),
    })
    if not cfg["checkpoint"]:
        raise ConfigError("sample needs --checkpoint")
    params = scorer_mod.load(cfg["checkpoint"])
    vocab_path = cfg["vocab"] or cfg["checkpoint"] + ".vocab"
    vocab = Vocab.load(vocab_path)
    if len(vocab) != params.vocab_size:
        raise ConfigError(
            f"vocab {vocab_path} has {len(vocab)} symbols, checkpoint expects {params.vocab_size}"
        )
    seed, drawn = _resolve_seed(cfg["seed"])
    cfg["seed"] = seed
    if cfg["sampler_mode"] is None:
        cfg["sampler_mode"] = "fixed" if params.mode == "dice" else "variable"
    if cfg["sampler_mode"] == "fixed" and cfg["k"] is None:
        cfg["k"] = params.k
    if cfg["sampler_mode"] != "fixed":
        cfg["k"] = None

    out = _Metrics(cfg["out"])
    try:
        out.emit({"config": {**cfg, "command": "sample", "seed_drawn": drawn}})
        if cfg["count"] == 0:
            out.emit({"summary": {"count": 0, "mean_length": None, "length_cdf": []}})
            return EXIT_OK
        prompt = None
        if cfg["prompt"] is not None:
            prompt = tokenize(cfg["prompt"], vocab, cfg["tokenizer"])
        sampler_cfg = SamplerConfig(
            steps=cfg["steps"],
            grid=cfg["grid"],
            top_p=cfg["top_p"],
            mode=cfg["sampler_mode"],
            k=cfg["k"],
            seed=seed,
        )
        traces, summary = batch_generate(
            scorer_mod.score, params, sampler_cfg, cfg["count"], prompt
        )
        for tr in traces:
            out.emit({
                "text": detokenize(tr.final, vocab, cfg["tokenizer"]),
                "length": tr.final.content_len,
                "steps": cfg["steps"],
                "seed": seed,
            })
        out.emit({"summary": summary})
        if cfg["trace"]:
            with open(cfg["trace"], "w") as fh:
                for i, tr in enumerate(traces):
                    fh.write(json.dumps({
                        "sample": i,
                        "trace": [
                            [t, detokenize(x, vocab, cfg["tokenizer"])]
                            for t, x in tr.snapshots
                        ],
                    }, sort_keys=True) + "\n")
    finally:
        out.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    cfg = _resolve(args, "verify", {"level": ("quick", str)})
    results = verify.run(cfg["level"])
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status} {r.name} ({r.seconds:.2f}s): {r.detail}")
        failed += 0 if r.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed [{cfg['level']}]")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    cfg = _resolve(args, "bench", {
        "lengths": ("256,512,1024,2048", str),
        "batch": (4, int),
        "reps": (3, int),
        "vocab_size": (16, int),
        "seed": (0, int),
        "metrics": (None, str),
    })
    lengths = [int(tok) for tok in str(cfg["lengths"]).replace(" ", "").split(",") if tok]
    if len(set(lengths)) < 2:
        raise ConfigError("bench needs at least 2 distinct lengths to fit an exponent")
    if cfg["batch"] < 1 or cfg["reps"] < 1:
        raise ConfigError("batch and reps must be >= 1")
    rng = np.random.default_rng(cfg["seed"])
    metrics = _Metrics(cfg["metrics"])
    try:
        metrics.emit({"config": {**cfg, "lengths": lengths, "command": "bench"}})
        means = []
        for n in lengths:
            pairs = []
            for _ in range(cfg["batch"]):
                content = tuple(int(v) for v in rng.integers(1, cfg["vocab_size"], size=n))
                keep = sorted(rng.choice(n, size=n // 2, replace=False).tolist())
                x_0 = Sequence((0,) + content)
                x_t = Sequence((0,) + tuple(content[i] for i in keep))
                pairs.append((x_t, x_0))
            times_ms = []
            for _ in range(cfg["reps"]):
                start = time.perf_counter()
                dp.batched_n_ratios(pairs, cfg["vocab_size"], domain="log")
                times_ms.append((time.perf_counter() - start) * 1000.0 / cfg["batch"])
            mean = float(np.mean(times_ms))
            means.append(mean)
            metrics.emit({
                "length": n,
                "cells": sum((len(x_t) + 1) * (len(x_0) + 1) for x_t, x_0 in pairs),
                "mean_ms": round(mean, 4),
                "var_ms": round(float(np.var(times_ms)), 6),
                "reps_ms": [round(v, 4) for v in times_ms],
            })
        slope = float(np.polyfit(np.log(lengths), np.log(means), 1)[0])
        metrics.emit({"exponent": round(slope, 4)})
    finally:
        metrics.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="delins", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file; flags override it")

    drawn_seed_help = "rng seed (default: drawn from entropy and logged)"

    p = sub.add_parser("count", help="count subsequence embeddings")
    p.add_argument("sub", help="candidate subsequence (may be empty)")
    p.add_argument("seq", help="full sequence")
    p.add_argument("--domain", choices=["auto", "exact", "log"], help="arithmetic domain (default auto)")
    p.add_argument("--tokenizer", choices=["char", "whitespace"], help="token splitting (default char)")
    p.add_argument("--grid", action="store_true", default=None, help="also print the insertion-count grid")
    common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("train", help="train an insertion scorer on a text corpus")
    p.add_argument("--corpus", help="path to the training text, one sequence per line")
    p.add_argument("--mode", choices=["dise", "dice"], help="loss mode (default dise)")
    p.add_argument("--k", type=int, help="fixed content length (dice; default: first line's length)")
    p.add_argument("--epochs", type=int, help="passes over the corpus (default 1)")
    p.add_argument("--batch", type=int, help="minibatch size (default 32)")
    p.add_argument("--lr", type=float, help="learning rate (default 0.05)")
    p.add_argument("--optimizer", choices=["sgd", "adam"], help="optimizer (default adam)")
    p.add_argument("--tokenizer", choices=["char", "whitespace"], help="token splitting (default char)")
    p.add_argument("--max-len", type=int, dest="max_len", help="truncate sequences to this many tokens")
    p.add_argument("--checkpoint-out", dest="checkpoint_out", help="checkpoint path (default model.ckpt)")
    p.add_argument("--resume", help="checkpoint to continue from (parameters only)")
    p.add_argument("--metrics", help="JSON-lines metrics path (default stdout)")
    p.add_argument("--timing", action=argparse.BooleanOptionalAction, default=None,
                   help="include wall_ms per step (default on; disable for byte-stable streams)")
    p.add_argument("--dry-run", action="store_true", default=None, dest="dry_run",
                   help="validate the configuration and corpus, write nothing")
    p.add_argument("--seed", type=int, help=drawn_seed_help)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="generate sequences from a checkpoint")
    p.add_argument("--checkpoint", help="scorer checkpoint path")
    p.add_argument("--vocab", help="vocab path (default: <checkpoint>.vocab)")
    p.add_argument("--steps", type=int, help="reverse steps (default 64)")
    p.add_argument("--grid", choices=["uniform", "cosine"], help="timestep grid (default uniform)")
    p.add_argument("--top-p", type=float, dest="top_p", help="nucleus threshold in (0,1] (default 1.0)")
    p.add_argument("--count", type=int, help="number of samples (default 16)")
    p.add_argument("--prompt", help="text every sample must start with")
    p.add_argument("--sampler-mode", choices=["variable", "fixed"], dest="sampler_mode",
                   help="length handling (default: fixed for dice checkpoints, else variable)")
    p.add_argument("--k", type=int, help="target content length for fixed mode (default: checkpoint k)")
    p.add_argument("--tokenizer", choices=["char", "whitespace"], help="token joining (default char)")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--trace", help="also dump per-sample snapshot traces to this path")
    p.add_argument("--seed", type=int, help=drawn_seed_help)
    common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run self-checks against the exact oracles")
    p.add_argument("--level", choices=["quick", "full"], help="suite size (default quick)")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time the ratio engine and fit a scaling exponent")
    p.add_argument("--lengths", help="comma-separated sequence lengths (default 256,512,1024,2048)")
    p.add_argument("--batch", type=int, help="pairs per invocation (default 4)")
    p.add_argument("--reps", type=int, help="timed repetitions per length (default 3)")
    p.add_argument("--vocab-size", type=int, dest="vocab_size", help="bench vocabulary size (default 16)")
    p.add_argument("--metrics", help="JSON-lines output path (default stdout)")
    p.add_argument("--seed", type=int, help="rng seed for the bench pairs (default 0)")
    common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, VersionMismatch, InvalidSteps, ShapeMismatch, UnknownSymbol) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except DelinsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
