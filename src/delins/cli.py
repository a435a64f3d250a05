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
import contextlib
import errno
import json
import math
import os
import sys
import time

import numpy as np

from . import dp, verify
from . import scorer as scorer_mod
from .errors import (
    BeyondFloat64,
    ConfigError,
    DelinsError,
    InvalidSteps,
    ShapeMismatch,
    UnknownSymbol,
    VersionMismatch,
)
from .sampler import GRID_KINDS, MODES as SAMPLER_MODES, SamplerConfig, batch_generate, check_prompt
from .sampler import _physical_memory  # the one source; tests patch this name to shrink the CLI's guards
from .seqcore import Sequence, Vocab, _split, detokenize, load_corpus, scan_vocab, text_lines, tokenize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this project reserves 2 for verify.

    A usage error is one stderr line, as every other error is; --help shows the usage.
    """

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _bool(raw: str) -> bool:
    try:  # the eight spellings the INI layer reads as booleans
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _nonnegative(raw: str) -> int:
    if (val := int(raw)) < 0:
        raise ValueError(f"negative: {raw!r}")
    return val


_TOKENIZERS = ("char", "whitespace")
_DRAWN_SEED = "rng seed (default: drawn from entropy and logged)"

# Every setting of each subcommand, declared once: name -> (cast, default, help).
# A cast is int, _nonnegative, float, str, _bool or a tuple of allowed strings.
# The table makes the flags (max_len is --max-len) and casts, checks and defaults
# config values.  Help shows a literal default; a None default is absent or
# computed, and its help says which.  A boolean that defaults on gets a --no- form.
SETTINGS = {
    "count": {
        "domain": (("auto", "exact", "log"), "auto", "arithmetic domain"),
        "tokenizer": (_TOKENIZERS, "char", "token splitting"),
        "grid": (_bool, False, "also print the insertion-count grid"),
    },
    "train": {
        "corpus": (str, None, "path to the training text, one sequence per line"),
        "mode": (scorer_mod.MODES, "dise", "loss mode"),
        "k": (int, None, "fixed content length (dice; default: first line's length)"),
        "epochs": (int, 1, "passes over the corpus"),
        "batch": (int, 32, "minibatch size"),
        "lr": (float, 0.05, "learning rate"),
        "optimizer": (tuple(scorer_mod.OPTIMIZERS), "adam", "optimizer"),
        "tokenizer": (_TOKENIZERS, "char", "token splitting"),
        "max_len": (int, None, "truncate sequences to this many tokens"),
        "checkpoint_out": (str, "model.ckpt", "checkpoint path"),
        "resume": (str, None, "checkpoint to continue from (parameters only)"),
        "metrics": (str, None, "JSON-lines metrics path (default stdout)"),
        "timing": (_bool, True, "include wall_ms per step, off for byte-stable streams"),
        "dry_run": (_bool, False, "validate the configuration and corpus, write nothing"),
        "seed": (_nonnegative, None, _DRAWN_SEED),
    },
    "sample": {
        "checkpoint": (str, None, "scorer checkpoint path"),
        "vocab": (str, None, "vocab path (default: <checkpoint>.vocab)"),
        "steps": (int, 64, "reverse steps"),
        "grid": (GRID_KINDS, "uniform", "timestep grid"),
        "top_p": (float, 1.0, "nucleus threshold in (0,1]"),
        "count": (int, 16, "number of samples"),
        "prompt": (str, None, "text every sample must start with"),
        "sampler_mode": (SAMPLER_MODES, None,
                         "length handling (default: fixed for dice checkpoints, else variable)"),
        "k": (int, None, "target content length for fixed mode (default: checkpoint k)"),
        "tokenizer": (_TOKENIZERS, "char", "token joining"),
        "out": (str, None, "output path (default stdout)"),
        "trace": (str, None, "also dump per-sample snapshot traces to this path"),
        "seed": (_nonnegative, None, _DRAWN_SEED),
    },
    "verify": {
        "level": (("quick", "full"), "quick", "suite size"),
    },
    "bench": {
        "lengths": (str, "256,512,1024,2048", "comma-separated sequence lengths"),
        "batch": (int, 4, "pairs per invocation"),
        "reps": (int, 3, "timed repetitions per length"),
        "vocab_size": (int, 16, "bench vocabulary size"),
        "metrics": (str, None, "JSON-lines output path (default stdout)"),
        "seed": (_nonnegative, 0, "rng seed for the bench pairs"),
    },
}


def _from_file(section: str, key: str, raw: str, cast):
    """A config-file value, cast and checked as its flag would be."""
    if isinstance(cast, tuple):
        if raw in cast:
            return raw
        want = "one of " + ", ".join(cast)
    else:
        try:
            return cast(raw)
        except ValueError:
            want = cast.__name__.lstrip("_")  # _bool reads as bool
    raise ConfigError(f"config [{section}] {key} = {raw!r} is not {want}")


def _resolve(args, section: str) -> dict:
    """flag > config file > default, for every setting of the section."""
    file_vals: dict[str, str] = {}
    config_path = getattr(args, "config", None)
    if config_path:
        cp = configparser.ConfigParser()
        try:
            if not cp.read(config_path, encoding="utf-8"):
                raise ConfigError(f"cannot read config file {config_path}")
            if cp.has_section(section):
                file_vals = dict(cp.items(section))
        except (configparser.Error, UnicodeDecodeError) as exc:
            detail = "; ".join(str(exc).splitlines())
            raise ConfigError(f"config file {config_path}: {detail}") from None
    out = {}
    for key, (cast, default, _) in SETTINGS[section].items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            out[key] = flag_val
        elif key in file_vals:
            out[key] = _from_file(section, key, file_vals[key], cast)
        else:
            out[key] = default
    return out


def _resolve_seed(seed):
    """A missing seed is drawn from entropy; the caller logs the value."""
    if seed is not None:
        return int(seed), False
    return int.from_bytes(os.urandom(8), "big") >> 1, True


def _check_output(path: str) -> None:
    """Raise, creating nothing, the OSError that writing a file at path would end in.

    A file written after the work (a checkpoint, a trace, a sample stream) is
    checked before it, so a path that cannot be written ends the run with one line.
    """
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOENT
    elif not os.access(folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


class _Metrics(contextlib.AbstractContextManager):
    """JSON-lines sink, stdout for no path or "-"; leaving its with block closes a file."""

    def __init__(self, path):
        self.fh = sys.stdout if path in (None, "-") else open(path, "w")

    def __exit__(self, *exc) -> None:
        if self.fh is not sys.stdout:
            self.fh.close()

    def emit(self, record: dict) -> None:
        self.fh.write(json.dumps(record, sort_keys=True) + "\n")
        self.fh.flush()


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
    cfg = _resolve(args, "count")
    vocab = Vocab.build(_split(args.seq, cfg["tokenizer"]) + _split(args.sub, cfg["tokenizer"]))
    sub = tokenize(args.sub, vocab, cfg["tokenizer"])
    seq = tokenize(args.seq, vocab, cfg["tokenizer"])
    domain = cfg["domain"]
    try:
        count = dp.linear_count(sub, seq, domain)
    except BeyondFloat64 as exc:
        print(_g6_of_exp(exc.log_count))
    else:
        print(f"{count:.6g}" if isinstance(count, float) else str(count))
    if cfg["grid"]:
        grid = dp.linear_insertion_counts(sub, seq, len(vocab), domain)
        for i, row in enumerate(grid.tolist()):
            print(json.dumps({"gap": i, "counts": row}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    cfg = _resolve(args, "train")
    if not cfg["corpus"]:
        raise ConfigError("train needs --corpus")
    train_cfg = {key: cfg[key] for key in ("epochs", "batch", "lr", "optimizer")}
    scorer_mod.train_settings(train_cfg)
    seed, drawn = _resolve_seed(cfg["seed"])
    cfg["seed"] = seed

    lines = text_lines(cfg["corpus"])  # read once: the vocab, the corpus and dice's line numbers
    vocab = scan_vocab(lines, cfg["tokenizer"])
    corpus = load_corpus(lines, vocab, cfg["tokenizer"], cfg["max_len"])
    if not corpus.sequences:
        raise ConfigError(f"corpus {cfg['corpus']} has no usable lines")

    if cfg["mode"] == "dice":
        if cfg["k"] is None:
            cfg["k"] = corpus.sequences[0].content_len
        linenos = [i for i, line in enumerate(lines, 1) if line.rstrip("\n")]
        for lineno, x in zip(linenos, corpus.sequences):
            if x.content_len != cfg["k"]:
                raise ConfigError(
                    f"line {lineno}: length {x.content_len} != k={cfg['k']}"
                    " (fixed-length mode needs a uniform corpus)"
                )
    elif cfg["k"] is not None:  # ScorerParams refuses a dise k, but its init drops one
        raise ConfigError("k is a dice-mode field")

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

    for path in (cfg["checkpoint_out"], cfg["checkpoint_out"] + ".vocab"):
        _check_output(path)
    with _Metrics(None if cfg["dry_run"] else cfg["metrics"]) as metrics:
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
            params, corpus, {**train_cfg, "seed": seed}, on_step=on_step
        )
        scorer_mod.save(trained, cfg["checkpoint_out"])
        vocab.save(cfg["checkpoint_out"] + ".vocab")
        metrics.emit({"checkpoint": cfg["checkpoint_out"], "done": True})
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample


# a time-grid point: its float64, then its list slot and float object once the walk lists it
_GRID_POINT_BYTES = 8 + 8 + 24
# a walker's least share: its seed sequence and generator take about 0.9 KiB (tracemalloc, 1000
# to 16000 walkers), a one-step walk about 1.7 KiB at its peak
_WALKER_BYTES = 1024
# what the walk keeps of each walker at each leap: its int64 size and its ids, bos at least, in a
# byte at least
_LEAP_BYTES = 8 + 1


def cmd_sample(args) -> int:
    cfg = _resolve(args, "sample")
    if not cfg["checkpoint"]:
        raise ConfigError("sample needs --checkpoint")
    params = scorer_mod.load(cfg["checkpoint"])
    vocab_path = cfg["vocab"] or cfg["checkpoint"] + ".vocab"
    vocab = Vocab.load(vocab_path)
    if len(vocab) != params.vocab_size:
        raise ConfigError(
            f"vocab {vocab_path} has {len(vocab)} symbols, checkpoint expects {params.vocab_size}"
        )
    if params.mode == "dice" and cfg["k"] not in (None, params.k):
        raise ConfigError(f"checkpoint k={params.k} != requested k={cfg['k']}")
    seed, drawn = _resolve_seed(cfg["seed"])
    cfg["seed"] = seed
    if cfg["sampler_mode"] is None:
        cfg["sampler_mode"] = "fixed" if params.mode == "dice" else "variable"
    if params.mode == "dice" and cfg["sampler_mode"] == "variable":  # one leap's gates can overshoot k
        raise ConfigError(f"a dice checkpoint scores only states of at most k={params.k} content tokens; "
                          "sample it in fixed mode")
    if cfg["sampler_mode"] == "fixed" and cfg["k"] is None:
        cfg["k"] = params.k

    # checked before the config echo, so a bad setting writes nothing
    if cfg["count"] < 0:
        raise ConfigError(f"count must be >= 0, got {cfg['count']}")
    sampler_cfg = SamplerConfig(steps=cfg["steps"], grid=cfg["grid"], top_p=cfg["top_p"],
                                mode=cfg["sampler_mode"], k=cfg["k"], seed=seed)
    prompt = None if cfg["prompt"] is None else tokenize(cfg["prompt"], vocab, cfg["tokenizer"])
    check_prompt(sampler_cfg, prompt)
    if (grid := (cfg["steps"] + 1) * _GRID_POINT_BYTES) > (memory := _physical_memory()):
        raise ConfigError(f"steps {cfg['steps']} need a {grid / 2**30:.4g} GiB time grid; "
                          f"this machine has {memory / 2**30:.4g} GiB")
    if (walkers := cfg["count"] * _WALKER_BYTES) > memory:
        raise ConfigError(f"count {cfg['count']} needs at least {walkers / 2**30:.4g} GiB for its walkers; "
                          f"this machine has {memory / 2**30:.4g} GiB")
    if (history := cfg["count"] * cfg["steps"] * _LEAP_BYTES) > memory:
        raise ConfigError(f"count {cfg['count']} over {cfg['steps']} steps keeps at least "
                          f"{history / 2**30:.4g} GiB of walk history; this machine has {memory / 2**30:.4g} GiB")
    for path in (cfg["out"], cfg["trace"]):
        if path not in (None, "-"):
            _check_output(path)
    # the walk runs before the stream opens, so a walk that raises writes nothing
    traces, summary = [], {"count": 0, "mean_length": None, "length_cdf": []}
    if cfg["count"]:
        traces, summary = batch_generate(scorer_mod.score, params, sampler_cfg, cfg["count"], prompt)
    with _Metrics(cfg["out"]) as out:
        out.emit({"config": {**cfg, "command": "sample", "seed_drawn": drawn}})
        for tr in traces:
            out.emit({
                "text": detokenize(tr.final, vocab, cfg["tokenizer"]),
                "length": tr.final.content_len,
                "steps": cfg["steps"],
                "seed": seed,
            })
        out.emit({"summary": summary})
    if cfg["trace"]:  # one record a sample: --count 0 leaves an empty file
        with _Metrics(cfg["trace"]) as trace:
            for i, tr in enumerate(traces):
                trace.emit({
                    "sample": i,
                    "trace": [[t, detokenize(x, vocab, cfg["tokenizer"])] for t, x in tr.snapshots],
                })
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    cfg = _resolve(args, "verify")
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
    cfg = _resolve(args, "bench")
    tokens = [tok for tok in cfg["lengths"].replace(" ", "").split(",") if tok]
    if not all(tok.isdecimal() and int(tok) > 0 for tok in tokens):
        raise ConfigError(f"bench lengths must be positive integers, got {cfg['lengths']!r}")
    lengths = [int(tok) for tok in tokens]
    if len(set(lengths)) < 2:
        raise ConfigError("bench needs at least 2 distinct lengths to fit an exponent")
    if cfg["batch"] < 1 or cfg["reps"] < 1:
        raise ConfigError("batch and reps must be >= 1")
    if cfg["vocab_size"] < 2:
        raise ConfigError(f"vocab_size must be >= 2 (bos and one symbol), got {cfg['vocab_size']}")
    memory = _physical_memory()
    for n in lengths:  # x_0 is bos and n tokens, x_t bos and n // 2 of them
        rows, cells = dp.lockstep_table_shape([n // 2 + 1], n + 1)  # one pair's lanes; cells add up
        if (table := rows * cells * cfg["batch"] * 8) > memory:
            raise ConfigError(f"bench length {n} at batch {cfg['batch']} needs a {table / 2**30:.4g} GiB "
                              f"table; this machine has {memory / 2**30:.4g} GiB")
    rng = np.random.default_rng(cfg["seed"])
    with _Metrics(cfg["metrics"]) as metrics:
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
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="delins", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, summary in (
        ("count", cmd_count, "count subsequence embeddings"),
        ("train", cmd_train, "train an insertion scorer on a text corpus"),
        ("sample", cmd_sample, "generate sequences from a checkpoint"),
        ("verify", cmd_verify, "run self-checks against the exact oracles"),
        ("bench", cmd_bench, "time the ratio engine and fit a scaling exponent"),
    ):
        p = sub.add_parser(name, help=summary)
        if name == "count":
            p.add_argument("sub", help="candidate subsequence (may be empty)")
            p.add_argument("seq", help="full sequence")
        for key, (cast, default, text) in SETTINGS[name].items():
            flag = "--" + key.replace("_", "-")
            if default is not None and default is not False:
                text += f" (default {'on' if default is True else default})"
            if cast is _bool:
                action = argparse.BooleanOptionalAction if default else "store_true"
                p.add_argument(flag, action=action, default=None, help=text)
            elif isinstance(cast, tuple):
                p.add_argument(flag, choices=cast, help=text)
            else:
                p.add_argument(flag, type=cast, help=text)
        p.add_argument("--config", help="INI config file; flags override it")
        p.set_defaults(func=func)
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
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RUNTIME
    except DelinsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
