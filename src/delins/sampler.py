"""Reverse-process generation by tau-leaping.

Starting from [bos] at t = 1 (or from a prompt), each step walks the time
grid downward and lets every gap of the current sequence independently
insert at most one token: gap i fires token v with probability
w(t) * s[i, v] * dt, where s is the model's insertion-score matrix and
w(t) = sigma(t) * survival / (1 - survival), which is 1/t under the fixed
log-linear schedule of process (the one training uses).  Because all gaps
fire simultaneously and each inserts at most once, applying the insertions
is order-free.

A batch of walkers leaps together and stays packed to the end, as the score
call gets them: one seqcore.Batch, whose stacked (gaps, V) scores one call
turns into every gap's insertion probability.  A leap reads 2 doubles a gap
from each walker's own stream, its gates and then its tokens, as one
rng.random(2 * |x|) draw would give them; the walk takes them from a block
per walker drawn ahead from that stream, and a walker refills only when its
block cannot cover a leap.  So walker i of a batch is the lone walk on the
same stream, whatever the batch size.  Only fired gaps get their conditional
token distribution and pick a token.  A leap never removes a token, so the walk
keeps where each put its new ids, and makes Sequences at its end or on a read.

Guards on top of the raw leap:

* when a gap's total insertion mass w * dt * sum_v s[i, v] exceeds 1, the
  over-vocabulary part is renormalized to a proper categorical with no
  no-op mass (counted and reported as a clamp event);
* nucleus filtering (top_p) reshapes only the conditional token choice at
  a gap that fires, never the odds of inserting at all;
* the bos column of any score matrix is ignored: the begin marker is not
  insertable, and the exact scores are genuinely zero there anyway;
* prompted generation masks every gap strictly inside the prompt, so the
  prompt stays a verbatim prefix;
* fixed-length mode refuses a prompt longer than k and caps the number of
  accepted insertions at the remaining capacity, keeping the proposals with
  the largest sampled-token mass (ties to the lower gap index).
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass
from decimal import Decimal
from functools import cache

import numpy as np

from .errors import ConfigError, InvalidSteps, InvalidTimes, NonFinite, ShapeMismatch
from .objective import loss_weight
from .seqcore import BOS_ID, Batch, Sequence

GRID_KINDS = ("uniform", "cosine")
MODES = ("variable", "fixed")
# past one leap's need, a batch's blocks of doubles drawn ahead hold at most this
_DRAW_BLOCK_BYTES = 4 * 1024 * 1024
_MAX_STEPS = np.iinfo(np.intp).max // 8 - 1  # the most whose grid of float64 points fits one array
# a leap's peak in (gaps, V) float64 arrays: the score call's, its scores and their masked copy;
# at V = 13 a leap peaked at 328 B a gap above what the walk kept (tracemalloc), 3.2 of them
_LEAP_SCORE_ARRAYS = 4
# a time-grid point: its float64, then its list slot and float object once the walk lists it
_GRID_POINT_BYTES = 8 + 8 + 24
# a walker's least share: its seed sequence and generator take about 0.9 KiB (tracemalloc, 1000
# to 16000 walkers), a one-step walk about 1.7 KiB at its peak
_WALKER_BYTES = 1024


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
        if self.steps > _MAX_STEPS:
            raise InvalidSteps(f"steps must be <= {_MAX_STEPS}, for a grid that fits one array, "
                               f"got {self.steps}")
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


class GenerationTrace:
    """One walk: its (t, Sequence) state at each grid time (snapshots), its last state and counts.

    Times at which it did not insert share a state object.  snapshots may be a function that
    makes the list, called on first read; the list is kept."""

    def __init__(self, snapshots, final: Sequence, stats: StepStats):
        self._snapshots, self.final, self.stats = snapshots, final, stats

    @property
    def snapshots(self) -> list[tuple[float, Sequence]]:
        if callable(self._snapshots):
            self._snapshots = self._snapshots()
        return self._snapshots


def timestep_grid(n: int, kind: str = "uniform") -> np.ndarray:
    """Descending times t_N = 1 > ... > t_0 = 0, n steps, n + 1 points."""
    if n < 1:
        raise InvalidSteps(f"need at least one step, got {n}")
    if kind == "uniform":
        return np.linspace(1.0, 0.0, n + 1)
    if kind == "cosine":
        ts = np.cos(0.5 * math.pi * np.arange(n + 1) / n)
        ts[-1] = 0.0  # cos(pi/2) is only ~6e-17; cos(0) is exactly 1
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
    rows, V = np.arange(len(cond)), cond.shape[1]
    total = cond.sum(axis=1)
    order = np.argsort(-cond, axis=1, kind="stable")
    ranked = cond[rows[:, None], order]
    cum = np.cumsum(ranked, axis=1)
    keep = np.minimum((cum < top_p * total[:, None]).sum(axis=1) + 1, V)
    norm = cum[rows, keep - 1]
    for i in np.flatnonzero(keep >= 8):
        norm[i] = ranked[i, : keep[i]].sum()
    live = total > 0.0
    kept = (np.arange(V) < keep[:, None]) & live[:, None]
    out = np.zeros_like(cond)
    out[rows[:, None], order] = np.where(kept, ranked / np.where(live, norm, 1.0)[:, None], 0.0)
    return out


def gap_insertion_probabilities(scores, t: float, dt: float,
                                gap_mask=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-gap insertion probability, the scores it comes from, and the clamp marks.

    Returns (p_insert, masked, clamped): gap i inserts with probability
    p_insert[i]; masked is the score matrix with the bos column and every gap
    outside gap_mask (when given) zeroed, and conditional_rows(masked, rows)
    gives the token distributions of the asked gaps; clamped[i] marks a gap
    whose raw insertion mass exceeded 1 and was capped.  A gap mass that is
    not finite raises NonFinite.  Rows are independent, so the gaps of many
    walkers may be stacked into one call.
    """
    s = np.array(scores, dtype=np.float64)
    if s.ndim != 2:
        raise ShapeMismatch(f"score matrix must be 2-d, got shape {s.shape}")
    s[:, 0] = 0.0  # the begin marker is never inserted
    if gap_mask is not None:
        s[~np.asarray(gap_mask, dtype=bool)] = 0.0
    row = s.sum(axis=1)
    if not np.isfinite(row).all():
        bad = row[~np.isfinite(row)][0]
        raise NonFinite(f"a gap's insertion scores sum to {bad} at t={t}; the scores are not finite")
    raw = loss_weight(t) * dt * row
    return np.minimum(raw, 1.0), s, raw > 1.0


def conditional_rows(masked: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Token distributions of the asked gaps: each masked row over its sum; a zero row stays zero."""
    s = masked[rows]
    total = s.sum(axis=1, keepdims=True)
    return np.divide(s, total, out=np.zeros(s.shape), where=total > 0.0)


class _Blocks:
    """Each walker's doubles, drawn ahead from its own stream into its row of rows.

    Walker w reads rows[w, pos[w]:end[w]], its block, in stream order.  A
    walker whose block cannot cover a leap refills it, keeping the unread
    tail, to 2 * size doubles for each leap left, but to no more than its
    share of _DRAW_BLOCK_BYTES unless the leap alone needs more.  Sizes never
    shrink, so the walk reads every double drawn, and each stream ends where
    one draw per leap would leave it.  A row is never wider than the largest
    leap's need or the share, so past that need the batch holds at most the
    budget.
    """

    def __init__(self, rngs):
        self.rngs = rngs
        self.rows = np.empty((len(rngs), 0))
        self.starts = np.zeros(len(rngs), dtype=np.int64)  # where each row starts in the flat blocks
        self.pos = np.zeros(len(rngs), dtype=np.int64)
        self.end = np.zeros(len(rngs), dtype=np.int64)
        self.share = max(1, _DRAW_BLOCK_BYTES // (8 * len(rngs)))

    def take(self, sizes: np.ndarray, leaps_left: int) -> tuple[np.ndarray, np.ndarray]:
        """The blocks, flat, and where each walker's 2 * sizes[w] doubles of this leap start."""
        need = 2 * sizes
        for w in np.flatnonzero(self.end - self.pos < need).tolist():
            self._refill(w, int(need[w]), leaps_left)
        heads = self.pos + self.starts
        self.pos += need
        return self.rows.reshape(-1), heads

    def _refill(self, w: int, need: int, leaps_left: int) -> None:
        pos, end = int(self.pos[w]), int(self.end[w])
        hold = max(need, min(need * leaps_left, self.share))
        width = self.rows.shape[1]
        if hold > width:  # to the new block, or to twice the old width up to the share
            wider = np.empty((len(self.rows), max(hold, min(2 * width, self.share))))
            wider[:, :width] = self.rows
            self.rows = wider
            self.starts = np.arange(len(wider)) * wider.shape[1]
        row = self.rows[w]
        if pos + hold > len(row):  # the block would overrun its row: its unread tail moves to the front
            row[: end - pos] = row[pos:end]
            pos, end = 0, end - pos
        self.rngs[w].random(out=row[end : pos + hold])
        self.pos[w], self.end[w] = pos, pos + hold


def _leap(ids, sizes, t, dt, scores, top_p, draws, heads, gap_mask, capacity, stats):
    """One tau-leap for walkers packed as one id array; every gap inserts at most one token.

    Walker w holds the sizes[w] ids after the earlier walkers'.  It reads draws[heads[w]:heads[w] +
    2 * sizes[w]], its gates and then its tokens, whatever fires, so no walker's leap depends on
    another's or on earlier outcomes.  capacity[w] and stats[:, w] (gap steps, clamps, cancellations,
    added in place) are its own; scores and gap_mask cover the gaps in the same order.  Returns the
    grown ids and sizes in the same layout, and where in the grown ids the new ones landed.
    """
    if not (0.0 < dt <= t):
        raise InvalidTimes(f"need 0 < dt <= t, got dt={dt}, t={t}")
    if len(scores) != len(ids):
        raise ShapeMismatch(f"{len(scores)} score rows for {len(ids)} gaps")
    p_insert, masked, clamped = gap_insertion_probabilities(scores, t, dt, gap_mask)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    gate = heads - starts  # gap g of walker w: its gate is draws[g + gate[w]], its token sizes[w] on
    fired = np.flatnonzero(draws[np.arange(len(ids)) + np.repeat(gate, sizes)] < p_insert)
    walker = np.searchsorted(ends, fired, side="right")  # the walker each fired gap belongs to
    u_token = draws[fired + gate[walker] + sizes[walker]]
    cond = conditional_rows(masked, fired)  # a fired gap's row sum is positive
    picked = _nucleus_rows(cond, top_p) if top_p < 1.0 else cond
    cum = np.cumsum(picked, axis=1)
    # searchsorted(cum, u * total, side="right"), for every fired gap at once
    tokens = np.minimum((cum <= (u_token * cum[:, -1])[:, None]).sum(axis=1), masked.shape[1] - 1)
    added = np.bincount(walker, minlength=len(sizes))
    if capacity is not None and (over := np.flatnonzero(added > capacity)).size:
        bounds = np.cumsum(added) - added  # walker w fired fired[bounds[w]:bounds[w] + added[w]]
        accept = np.ones(len(fired), dtype=bool)
        for w in over.tolist():
            lo, hi = bounds[w], bounds[w] + added[w]
            mass = p_insert[fired[lo:hi]] * picked[np.arange(lo, hi), tokens[lo:hi]]
            # the largest sampled-token masses stay, ties to the lower gap
            accept[lo + np.argsort(-mass, kind="stable")[capacity[w]:]] = False
        fired, tokens = fired[accept], tokens[accept]
        stats[2, over] += added[over] - capacity[over]
        added = np.minimum(added, capacity)
    stats[0] += sizes
    stats[1] += np.add.reduceat(clamped, starts, dtype=np.int64)
    # a fired gap's left token goes in twice, then the new token replaces the second copy
    grown, new = np.repeat(ids, np.bincount(fired, minlength=len(ids)) + 1), fired + np.arange(1, len(fired) + 1)
    grown[new] = tokens
    return grown, sizes + added, new


def reverse_step(x_t: Sequence, t: float, dt: float, scores, top_p: float, rng, *, gap_mask=None,
                 capacity: int | None = None, stats: StepStats | None = None) -> Sequence:
    """One tau-leap: all gaps of x_t independently insert at most one token.

    Draws rng.random(2 * |x_t|): the gates, then the tokens.
    """
    st, n = stats if stats is not None else StepStats(), len(x_t)
    counts = np.array([[st.gap_steps], [st.clamp_events], [st.cancelled]])
    ids, sizes, _ = _leap(np.array(x_t.ids, dtype=np.int64), np.array([n]), t, dt, scores, top_p,
                       rng.random(2 * n), np.zeros(1, dtype=np.int64), gap_mask,
                       None if capacity is None else np.array([capacity]), counts)
    st.gap_steps, st.clamp_events, st.cancelled = counts[:, 0].tolist()
    return x_t if sizes[0] == n else Sequence(tuple(ids.tolist()))


def _physical_memory() -> int:
    """This machine's physical memory in bytes, the most a run may ask for at once."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_walk(config: SamplerConfig, params, count: int, prompt: Sequence | None = None) -> None:
    """Raise ConfigError, before anything is drawn, for a walk of count walkers that cannot run.

    A dice model walks in fixed mode only: it scores only states of at most k content tokens, and one
    leap's gates can overshoot k.  The time grid and the walkers live to the walk's end."""
    if getattr(params, "mode", None) == "dice" and config.mode == "variable":
        raise ConfigError(f"a dice checkpoint scores only states of at most k={params.k} content tokens; "
                          "sample it in fixed mode")
    if config.mode == "fixed" and prompt is not None and prompt.content_len > config.k:
        raise ConfigError(f"prompt has {prompt.content_len} content tokens, more than k={config.k}")
    need = (config.steps + 1) * _GRID_POINT_BYTES + count * _WALKER_BYTES
    if need > (memory := _physical_memory()):
        # a need past float64 (count about 10**305 and up) divides as a decimal, to the same digits
        gib = need / 2**30 if need < 2**1023 else Decimal(need) / 2**30
        raise ConfigError(f"count {count} over {config.steps} steps needs at least {gib:.4g} GiB for "
                          f"its time grid and walkers; this machine has {memory / 2**30:.4g} GiB")


@np.errstate(over="ignore")  # a score that overflows shows as a non-finite gap mass
def _walk(score_fn, params, config: SamplerConfig, prompt: Sequence | None, rngs):
    """Walk one walker per rng from t = 1 to 0 together; returns the traces and final content lengths.

    A leap whose score-sized arrays, with what the walk keeps (its time grid, walkers, state, draw
    blocks and where leaps inserted), would exceed physical memory raises MemoryError before its
    score call: the rows are as wide as the last score's (the start's largest id + 1 before the first).
    """
    start = prompt.ids if prompt is not None else (BOS_ID,)
    inside, records = len(start) - 1, array("q")  # gaps strictly inside the prompt; records, a stack
    times = timestep_grid(config.steps, config.grid).tolist()
    ids, sizes = np.tile(np.array(start, dtype=np.int64), len(rngs)), np.full(len(rngs), len(start))
    stats, blocks, memory = np.zeros((3, len(rngs)), dtype=np.int64), _Blocks(rngs), _physical_memory()
    kept, top = len(times) * _GRID_POINT_BYTES + len(rngs) * _WALKER_BYTES, max(map(abs, start))
    for leap, (t, t_next) in enumerate(zip(times, times[1:])):  # a gap: its score arrays, its int64 id
        if (need := 8 * len(ids) * (_LEAP_SCORE_ARRAYS * (top + 1) + 1) + kept + blocks.rows.nbytes) > memory:
            raise MemoryError(f"a leap at t={t:.6g} over {len(ids)} gaps needs {need / 2**30:.4g} GiB with "
                              f"the walk's history; this machine has {memory / 2**30:.4g} GiB")
        scores = score_fn(params, Batch(ids, sizes), t)
        mask = np.arange(len(ids)) - np.repeat(np.cumsum(sizes) - sizes, sizes) >= inside if inside else None
        capacity = config.k - (sizes - 1) if config.mode == "fixed" else None
        draws, heads = blocks.take(sizes, config.steps - leap)
        ids, sizes, new = _leap(ids, sizes, t, t - t_next, scores, config.top_p, draws, heads, mask, capacity,
                                stats)
        top = max(top, len(scores[0]) - 1)  # a new token is below its score row's width
        if len(new):  # its record: where its new ids landed, their count and the leap, 8 B each
            records.extend([*new.tolist(), len(new), leap])
            kept += 8 * (len(new) + 2)
    finals = list(Batch(ids, sizes))

    @cache
    def snapshots() -> list:  # every walker's, back from the finals: a new object only where it inserted
        xs, flat, n, history = finals, ids, sizes, [finals]
        for leap in range(config.steps - 1, -1, -1):
            if records and records[-1] == leap:  # its record pops: its new ids go, who inserted is remade
                new = np.array(records[-2 - records[-2] : -2], np.int64)
                del records[-2 - len(new) :]
                gone = np.bincount(np.searchsorted(np.cumsum(n), new, side="right"), minlength=len(n))
                flat, n, xs, ends = np.delete(flat, new), n - gone, list(xs), np.cumsum(n - gone).tolist()
                for w in np.flatnonzero(gone).tolist():
                    xs[w] = Sequence(tuple(flat[ends[w] - n[w] : ends[w]].tolist()))
            history.append(xs)
        times = timestep_grid(config.steps, config.grid).tolist()  # the walk's grid, not kept past it
        return [list(zip(times, snaps[::-1])) for snaps in zip(*history)]

    return [GenerationTrace(lambda w=w: snapshots()[w], final, StepStats(*st))
            for w, (final, st) in enumerate(zip(finals, stats.T.tolist()))], sizes - 1


def generate(score_fn, params, config: SamplerConfig, prompt: Sequence | None = None, rng=None):
    """Walk the grid from t = 1 to 0, scoring and leaping at each step.

    score_fn(params, xs, t) gets the states xs as one seqcore.Batch and returns their (|x|, V)
    insertion-score matrices stacked in order, as scorer.score does, once per leap.  Returns the
    GenerationTrace; its snapshots are made on first read, from its final state and where each
    leap inserted, and kept.  A given rng ends 2 * trace.stats.gap_steps doubles on, two for every
    gap of every leap, where one rng.random(2 * |x|) call per leap would leave it; the doubles are
    drawn ahead in blocks, but never past what the walk reads.  A score that is not finite at a gap
    that may insert raises NonFinite, and a leap that would not fit physical memory MemoryError.
    check_walk raises ConfigError first for a dice model in variable mode, a fixed-mode prompt
    longer than k, or a walk whose least memory does not fit.
    """
    check_walk(config, params, 1, prompt)
    return _walk(score_fn, params, config, prompt, [rng or np.random.default_rng(config.seed)])[0][0]


def batch_generate(score_fn, params, config: SamplerConfig, count: int, prompt: Sequence | None = None):
    """Independent samples with spawned rng streams, plus a summary.

    Sample i walks on child stream i of SeedSequence(config.seed), so it
    equals generate() on that stream and does not depend on count.  The
    summary holds the length CDF and the run's StepStats totals; fixed mode
    adds short, the number of samples with fewer than k tokens.  score_fn
    is called as in generate, once per leap with every walker's state.
    A count below 1 or check_walk's refusals (see generate) raise ConfigError.
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    check_walk(config, params, count, prompt)
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(config.seed).spawn(count)]
    traces, lengths = _walk(score_fn, params, config, prompt, rngs)
    uniq, counts = np.unique(lengths, return_counts=True)
    summary = {"count": count, "mean_length": float(np.mean(lengths)),
               "length_cdf": [[l, c / count] for l, c in zip(uniq.tolist(), np.cumsum(counts).tolist())]}
    for name in ("gap_steps", "clamp_events", "cancelled"):
        summary[name] = sum(getattr(tr.stats, name) for tr in traces)
    if config.mode == "fixed":
        summary["short"] = int(np.count_nonzero(lengths < config.k))
    return traces, summary
