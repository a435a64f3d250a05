"""Reverse-process generation by tau-leaping.

Starting from [bos] at t = 1 (or from a prompt), each step walks the time
grid downward and lets every gap of the current sequence independently
insert at most one token: gap i fires token v with probability
w(t) * s[i, v] * dt, where s is the model's insertion-score matrix and
w(t) = sigma(t) * survival / (1 - survival), which is 1/t under the fixed
log-linear schedule of process (the one training uses).  Because all gaps
fire simultaneously and each inserts at most once, applying the insertions
is order-free.

A batch of walkers leaps together: one score call returns every walker's
gaps as one stacked (gaps, V) array, one call computes every gap's
probabilities, and each walker draws its uniforms from its own stream.
Walker i of a batch is therefore the lone walk on the same stream, whatever
the batch size.

Guards on top of the raw leap:

* when a gap's total insertion mass w * dt * sum_v s[i, v] exceeds 1, the
  over-vocabulary part is renormalized to a proper categorical with no
  no-op mass (counted and reported as a clamp event);
* nucleus filtering (top_p) reshapes only the conditional token choice at
  a gap, never the odds of inserting at all;
* the bos column of any score matrix is ignored: the begin marker is not
  insertable, and the exact scores are genuinely zero there anyway;
* prompted generation masks every gap strictly inside the prompt, so the
  prompt stays a verbatim prefix;
* fixed-length mode caps the number of accepted insertions at the
  remaining capacity, keeping the proposals with the largest sampled-token
  mass (ties to the lower gap index).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidSteps, InvalidTimes, ShapeMismatch
from .objective import loss_weight
from .seqcore import Sequence

GRID_KINDS = ("uniform", "cosine")
MODES = ("variable", "fixed")


@dataclass(frozen=True)
class SamplerConfig:
    steps: int
    grid: str = "uniform"
    top_p: float = 1.0
    mode: str = "variable"
    k: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.steps < 1:
            raise InvalidSteps(f"steps must be >= 1, got {self.steps}")
        if self.grid not in GRID_KINDS:
            raise ConfigError(f"unknown grid {self.grid!r}")
        if not (0.0 < self.top_p <= 1.0):
            raise ConfigError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown sampler mode {self.mode!r}")
        if self.mode == "fixed" and (self.k is None or self.k < 0):
            raise ConfigError("fixed mode needs a target content length k")
        if self.mode == "variable" and self.k is not None:
            raise ConfigError("k only applies to fixed mode")


@dataclass
class StepStats:
    gap_steps: int = 0       # gaps seen across all steps
    clamp_events: int = 0    # gaps whose insertion mass hit the cap
    cancelled: int = 0       # proposals dropped by fixed-length capacity


@dataclass
class GenerationTrace:
    snapshots: list[tuple[float, Sequence]]
    final: Sequence
    stats: StepStats = field(default_factory=StepStats)


def timestep_grid(n: int, kind: str = "uniform") -> np.ndarray:
    """Descending times t_N = 1 > ... > t_0 = 0, n steps, n + 1 points."""
    if n < 1:
        raise InvalidSteps(f"need at least one step, got {n}")
    if kind == "uniform":
        return np.linspace(1.0, 0.0, n + 1)
    if kind == "cosine":
        ts = np.cos(0.5 * math.pi * np.arange(n + 1) / n)
        ts[0] = 1.0   # cos(0) is exact anyway
        ts[-1] = 0.0  # cos(pi/2) is only ~6e-17
        return ts
    raise ConfigError(f"unknown grid {kind!r}")


def _nucleus_rows(cond: np.ndarray, top_p: float) -> np.ndarray:
    """Per-row nucleus filter on conditional distributions (rows sum to 1).

    Keeps the smallest probability-ordered prefix reaching top_p (at least
    one cell), renormalized; stable sort makes tie handling deterministic.
    The normaliser is the kept cells' sum in rank order, which numpy adds
    sequentially below 8 cells (the running sum) and pairwise from 8 on
    (summed row by row), so each row comes out as if filtered alone.
    """
    n, V = cond.shape
    total = cond.sum(axis=1)
    order = np.argsort(-cond, axis=1, kind="stable")
    ranked = np.take_along_axis(cond, order, axis=1)
    cum = np.cumsum(ranked, axis=1)
    keep = np.minimum((cum < top_p * total[:, None]).sum(axis=1) + 1, V)
    norm = cum[np.arange(n), keep - 1]
    for i in np.flatnonzero(keep >= 8):
        norm[i] = ranked[i, : keep[i]].sum()
    live = total > 0.0
    kept = (np.arange(V) < keep[:, None]) & live[:, None]
    out = np.zeros_like(cond)
    scaled = ranked / np.where(live, norm, 1.0)[:, None]
    np.put_along_axis(out, order, np.where(kept, scaled, 0.0), axis=1)
    return out


def gap_insertion_probabilities(
    scores, t: float, dt: float, top_p: float = 1.0, gap_mask=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-gap insertion probability and conditional token distribution.

    Returns (p_insert, conditional, clamped): gap i inserts with
    probability p_insert[i], and inserts token v with conditional
    probability conditional[i, v]; clamped[i] marks a gap whose raw
    insertion mass exceeded 1 and was capped.  gap_mask, when given, marks
    the gaps allowed to insert.  Rows are independent, so the gaps of many
    walkers may be stacked into one call.
    """
    s = np.array(scores, dtype=np.float64)
    if s.ndim != 2:
        raise ShapeMismatch(f"score matrix must be 2-d, got shape {s.shape}")
    s[:, 0] = 0.0  # the begin marker is never inserted
    if gap_mask is not None:
        s[~np.asarray(gap_mask, dtype=bool)] = 0.0
    w = loss_weight(t)
    row = s.sum(axis=1)
    raw = w * dt * row
    clamped = raw > 1.0
    p_insert = np.minimum(raw, 1.0)
    cond = np.zeros_like(s)
    live = row > 0.0
    cond[live] = s[live] / row[live, None]
    if top_p < 1.0:
        cond = _nucleus_rows(cond, top_p)
    return p_insert, cond, clamped


def _leap(xs, t, dt, scores, top_p, rngs, gap_mask, capacity, stats) -> list[Sequence]:
    """One tau-leap for a batch of walkers; every gap inserts at most one token.

    rngs[w], capacity[w] and stats[w] belong to walker xs[w]; scores and
    gap_mask cover the walkers' gaps stacked in order.  Each walker draws
    two uniforms per gap from its own stream, gates first, whatever fires,
    so no walker's leap depends on another's or on earlier outcomes.
    """
    if not (0.0 < dt <= t):
        raise InvalidTimes(f"need 0 < dt <= t, got dt={dt}, t={t}")
    sizes = [len(x) for x in xs]
    starts = np.concatenate(([0], np.cumsum(sizes)))
    if len(scores) != starts[-1]:
        raise ShapeMismatch(f"{len(scores)} score rows for {starts[-1]} gaps")
    p_insert, cond, clamped = gap_insertion_probabilities(scores, t, dt, top_p, gap_mask)
    u_gate = np.empty(len(p_insert))
    u_token = np.empty(len(p_insert))
    for rng, a, b in zip(rngs, starts[:-1].tolist(), starts[1:].tolist()):
        u_gate[a:b] = rng.random(b - a)
        u_token[a:b] = rng.random(b - a)
    fired = np.flatnonzero(u_gate < p_insert)
    cum = np.cumsum(cond[fired], axis=1)
    # searchsorted(cum, u * total, side="right"), for every fired gap at once
    tokens = (cum <= (u_token[fired] * cum[:, -1])[:, None]).sum(axis=1)
    tokens = np.minimum(tokens, cond.shape[1] - 1)
    bounds = np.searchsorted(fired, starts)  # walker w fired fired[bounds[w]:bounds[w + 1]]
    added = np.diff(bounds)
    if capacity is not None:
        accept = np.ones(len(fired), dtype=bool)
        for w in np.flatnonzero(added > capacity).tolist():
            lo, hi = bounds[w], bounds[w + 1]
            mass = p_insert[fired[lo:hi]] * cond[fired[lo:hi], tokens[lo:hi]]
            # the largest sampled-token masses stay, ties to the lower gap
            accept[lo + np.argsort(-mass, kind="stable")[capacity[w]:]] = False
            stats[w].cancelled += int(hi - lo - capacity[w])
        fired, tokens = fired[accept], tokens[accept]
        added = np.minimum(added, capacity)
    clamps = np.add.reduceat(clamped, starts[:-1], dtype=np.int64)
    flat = np.fromiter(itertools.chain.from_iterable(xs), dtype=np.int64, count=int(starts[-1]))
    grown = np.insert(flat, fired + 1, tokens).tolist()
    ends = np.cumsum(added + sizes).tolist()
    out = []
    for x, st, n, c, end, a in zip(xs, stats, sizes, clamps.tolist(), ends, added.tolist()):
        st.gap_steps += n
        st.clamp_events += c
        out.append(Sequence(tuple(grown[end - n - a : end])) if a else x)
    return out


def reverse_step(
    x_t: Sequence,
    t: float,
    dt: float,
    scores,
    top_p: float,
    rng,
    *,
    gap_mask=None,
    capacity: int | None = None,
    stats: StepStats | None = None,
) -> Sequence:
    """One tau-leap: all gaps of x_t independently insert at most one token."""
    return _leap(
        [x_t], t, dt, scores, top_p, [rng], gap_mask,
        None if capacity is None else np.array([capacity]),
        [stats if stats is not None else StepStats()],
    )[0]


def _walk(
    score_fn, params, config: SamplerConfig, prompt: Sequence | None, rngs
) -> list[GenerationTrace]:
    """Walk one walker per rng from t = 1 to 0, scoring and leaping together."""
    x = prompt if prompt is not None else Sequence((0,))
    inside = len(x) - 1  # gaps strictly inside the prompt
    times = timestep_grid(config.steps, config.grid)
    xs = [x] * len(rngs)
    stats = [StepStats() for _ in rngs]
    snapshots = [[(1.0, x)] for _ in rngs]
    for k in range(config.steps):
        t, t_next = float(times[k]), float(times[k + 1])
        scores = score_fn(params, xs, t)
        sizes = np.array([len(x) for x in xs])
        mask = None
        if inside:
            gap = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            mask = gap >= inside
        capacity = None
        if config.mode == "fixed":
            capacity = np.maximum(config.k - (sizes - 1), 0)
        xs = _leap(xs, t, t - t_next, scores, config.top_p, rngs, mask, capacity, stats)
        for snap, x in zip(snapshots, xs):
            snap.append((t_next, x))
    return [GenerationTrace(snap, x, st) for snap, x, st in zip(snapshots, xs, stats)]


def generate(score_fn, params, config: SamplerConfig, prompt: Sequence | None = None, rng=None):
    """Walk the grid from t = 1 to 0, scoring and leaping at each step.

    score_fn(params, xs, t) must return the insertion-score matrices of the
    states xs stacked in order, shape (sum of |x|, V), as scorer.score does;
    each leap makes one call.  Returns the full GenerationTrace.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return _walk(score_fn, params, config, prompt, [rng])[0]


def batch_generate(
    score_fn, params, config: SamplerConfig, count: int, prompt: Sequence | None = None
):
    """Independent samples with spawned rng streams, plus a summary.

    Sample i walks on child stream i of SeedSequence(config.seed), so it
    equals generate() on that stream and does not depend on count.  The
    summary holds the length CDF and the run's StepStats totals; fixed mode
    adds short, the number of samples with fewer than k tokens.  score_fn
    is called as in generate, once per leap with every walker's state.
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    children = np.random.SeedSequence(config.seed).spawn(count)
    rngs = [np.random.default_rng(child) for child in children]
    traces = _walk(score_fn, params, config, prompt, rngs)
    lengths = [tr.final.content_len for tr in traces]
    uniq, counts = np.unique(lengths, return_counts=True)
    cdf = zip(uniq.tolist(), np.cumsum(counts).tolist())
    summary = {
        "count": count,
        "mean_length": float(np.mean(lengths)),
        "length_cdf": [[l, c / count] for l, c in cdf],
    }
    for name in ("gap_steps", "clamp_events", "cancelled"):
        summary[name] = sum(getattr(tr.stats, name) for tr in traces)
    if config.mode == "fixed":
        summary["short"] = sum(1 for l in lengths if l < config.k)
    return traces, summary
