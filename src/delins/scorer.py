"""Toy trainable insertion-score model.

The model is a bigram-context logit table: the gap between tokens (left,
right) assigns each candidate token v the logit theta[left, right, v].  The
rightmost gap has no right neighbor and reuses the bos slot of the right
axis as an END feature (bos can never actually appear to the right of a
gap, so the slot is free).  Two output heads:

* dise mode: scores = exp(logits + time bias), strictly positive, for the
  variable-length score-entropy loss.  Time enters through a bucketed
  additive bias; the exact score does depend on t, and a step function is
  the cheapest honest approximation.
* dice mode: scores = (K - |x_t|) * softmax over all (gap, token) cells,
  normalized by construction for the fixed-length cross-entropy loss.
  No time input; the fixed-length score is time-independent.

Gradients are closed-form (the losses are convex in the logits for dice
and per-cell convex for dise), so training needs no autodiff framework.
Scores have one implementation, on the gaps of states packed with no padding.
score reads a seqcore.Batch as it is, or packs a list of states once, and
stacks their rows: one call per sampler leap.  A training batch's loss and
gradient come in two halves: what never reads the params (indices, loss
weights, target terms) is prepared once per batch, and a step computes only
what does.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dp
from .errors import (
    ConfigError,
    InvalidTimes,
    ModeMismatch,
    NonFinite,
    NormalizationViolation,
    ShapeMismatch,
    VersionMismatch,
)
from .objective import DICE_NORM_TOL, T_MIN, LossBreakdown, loss_weight, row_loss_sums, target_terms
from .process import forward_sample, time_terms
from .seqcore import Batch, Corpus, PairBatch, Sequence, atomic_open

FORMAT_NAME = "delins-scorer"
FORMAT_VERSION = 1
N_BUCKETS = 16

MODES = ("dise", "dice")
# a group of training steps makes its targets in one DP call whose lockstep table fits this.
# A bigger group pays each DP row's and each call's fixed cost once for more cells: at this
# bound an epoch of 500 lines of 4-12 tokens is one group, and steps of 32 lines of 20-66
# tokens run 1.17-1.48x faster than at 256 KiB.  Twice the bound runs such lines from 2%
# slower to 9% faster and more than doubles a group's memory (tracemalloc peak 3.5 -> 7.9 MiB
# on 30-60 tokens); four times the bound is slower than twice on each.
_GROUP_TABLE_BYTES = 2 * 1024 * 1024


@dataclass
class ScorerParams:
    mode: str
    theta: np.ndarray                 # (V, V, V): [left, right, insert]
    time_bias: np.ndarray | None = None  # (N_BUCKETS, V), dise mode only
    k: int | None = None              # target content length, dice mode only

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown scorer mode {self.mode!r}")
        V = self.theta.shape[0]
        if self.theta.shape != (V, V, V):
            raise ShapeMismatch(f"theta must be cubic, got {self.theta.shape}")
        if self.mode == "dise":
            if self.time_bias is None or self.time_bias.shape != (N_BUCKETS, V):
                raise ShapeMismatch("dise mode needs a (buckets, V) time bias")
            if self.k is not None:
                raise ConfigError("k is a dice-mode field")
        else:
            if self.time_bias is not None:
                raise ConfigError("time bias is a dise-mode field")
            if self.k is None or self.k < 1:
                raise ConfigError("dice mode needs the target content length k")

    @property
    def vocab_size(self) -> int:
        return self.theta.shape[0]

    @staticmethod
    def init(vocab_size: int, mode: str, k: int | None = None) -> "ScorerParams":
        """Zero-initialized params: dise scores start at 1, dice at uniform."""
        theta = np.zeros((vocab_size, vocab_size, vocab_size))
        tb = np.zeros((N_BUCKETS, vocab_size)) if mode == "dise" else None
        return ScorerParams(mode, theta, tb, k if mode == "dice" else None)

    def copy(self) -> "ScorerParams":
        tb = None if self.time_bias is None else self.time_bias.copy()
        return ScorerParams(self.mode, self.theta.copy(), tb, self.k)


@dataclass
class Gradient:
    theta: np.ndarray
    time_bias: np.ndarray | None


def time_bucket(ts) -> np.ndarray:
    """min(int(t * N_BUCKETS), N_BUCKETS - 1) of one time, or of every time in an array at once."""
    scaled = np.asarray(ts, dtype=np.float64) * N_BUCKETS
    if not np.isfinite(scaled).all():
        raise ValueError("time buckets need finite times")
    return np.minimum(scaled.astype(np.int64), N_BUCKETS - 1)  # the cast truncates like int()


def _segment_plan(starts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where _segment_sums puts the segments of n values that begin at starts.

    Returns where each segment's leading zero goes, and a mask of the rest.
    """
    at = starts + np.arange(len(starts))
    rest = np.ones(n + len(at), dtype=bool)
    rest[at] = False
    return at, rest


def _plan_part(plan: tuple[np.ndarray, np.ndarray], a: int, b: int, i: int, j: int) -> tuple:
    """The _segment_plan of segments a:b of plan's, which hold its values i:j."""
    at, rest = plan
    return at[a:b] - (i + a), rest[i + a : j + b]


def _segment_sums(a: np.ndarray, plan: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Sums of the consecutive segments of a, placed by plan (_segment_plan of their starts).

    Each sum is bitwise equal to its segment's .sum(): reduceat adds a first
    element to the pairwise sum of the rest, and a zero in front of each
    segment turns that into the pairwise sum .sum() takes.
    """
    at, rest = plan
    padded = np.zeros(len(rest))
    padded[rest] = a
    return np.add.reduceat(padded, at)


class _Gaps(NamedTuple):
    """The gaps of states packed with no padding, as _scores reads them; no param enters.

    rows[i] is gap i's (left, right) row of theta seen as a (V * V, V)
    table.  dise reads each gap's time bucket; dice reads the state each gap
    belongs to, each state's first gap, the _segment_plan of each state's
    cells and, per gap, k - |x_t|, the mass the model spreads over them.
    """

    rows: np.ndarray
    buckets: np.ndarray | None = None
    seg: np.ndarray | None = None
    starts: np.ndarray | None = None
    cell_plan: tuple | None = None
    mass: np.ndarray | None = None


def _rows(ids: np.ndarray, V: int) -> np.ndarray:
    """Each gap's row of theta seen as a (V * V, V) table: left * V + right.

    ids, one sequence or several packed, are the lefts; each one's right is
    the id after it, and a last gap meets the next sequence's bos, id 0: the
    END feature.
    """
    rows = ids * V
    rows[:-1] += ids[1:]  # the very last gap's right is bos too, which adds nothing
    return rows


def _gaps(params: ScorerParams, rows: np.ndarray, lens: np.ndarray, buckets=None) -> _Gaps:
    """_Gaps of the states whose gaps have these rows: state b's are the lens[b] after the earlier's."""
    if params.mode == "dise":
        return _Gaps(rows, buckets)
    seg = np.repeat(np.arange(len(lens)), lens)
    starts = np.cumsum(lens) - lens
    V = params.vocab_size
    return _Gaps(rows, None, seg, starts, _segment_plan(starts * V, len(rows) * V),
                 (params.k + 1 - lens)[seg, None])


def _gaps_part(gaps: _Gaps, V: int, a: int, b: int, i: int, j: int) -> _Gaps:
    """The _Gaps of states a:b of gaps, whose gaps are rows i:j; V is the vocab size."""
    if gaps.seg is None:
        return _Gaps(gaps.rows[i:j], gaps.buckets[i:j])
    return _Gaps(gaps.rows[i:j], None, gaps.seg[i:j] - a, gaps.starts[a:b] - i,
                 _plan_part(gaps.cell_plan, a, b, i * V, j * V), gaps.mass[i:j])


def _scores(params: ScorerParams, gaps: _Gaps) -> tuple:
    """Scores of packed gaps, with the dice softmax p (None in dise).

    A state's maximum and normalizer are its own, so its rows have the bits
    it gets scored alone.
    """
    z = np.take(params.theta.reshape(-1, params.vocab_size), gaps.rows, axis=0)
    if params.mode == "dise":
        return np.exp(z + np.take(params.time_bias, gaps.buckets, axis=0)), None
    # The bos marker can never be inserted, so the model holds that column at
    # an exact zero rather than wasting probability mass it could never shed
    # with finite logits.
    zz = z[:, 1:]
    e = np.zeros_like(z)
    e[:, 1:] = np.exp(zz - np.maximum.reduceat(zz.max(axis=1), gaps.starts)[gaps.seg, None])
    p = e / _segment_sums(e.reshape(-1), gaps.cell_plan)[gaps.seg, None]
    return gaps.mass * p, p


def score(params: ScorerParams, xs: Batch | list[Sequence], t: float | None = None) -> np.ndarray:
    """Model scores of every (gap, token) cell of the states xs at time t.

    The matrices of xs, a Batch or a list of states, come stacked: shape (sum
    of |x|, V).  dise needs a time t in (0, 1], as training draws them.
    """
    buckets = None
    if params.mode == "dise":
        if t is None:
            raise ModeMismatch("dise scores are time-dependent; pass t")
        if not 0.0 < t <= 1.0:
            raise InvalidTimes(f"need 0 < t <= 1, got t={t}")
        buckets = time_bucket(t)
    batch = Batch.of(xs)
    if params.mode == "dice" and (over := batch.sizes[batch.sizes - 1 > params.k]).size:
        raise ShapeMismatch(f"x_t has {over[0] - 1} content tokens, more than k={params.k}")
    if buckets is not None:
        buckets = np.full(len(batch.ids), buckets)
    rows = _rows(batch.ids, params.vocab_size)
    return _scores(params, _gaps(params, rows, batch.sizes, buckets))[0]


class _Prepared(NamedTuple):
    """A packed batch as its loss and gradient read it, all made before any param moves.

    gaps as _scores reads them; r the (rows, V) ratios and targets their
    objective.target_terms; w each pair's loss weight and w_cells each
    cell's; pair_plan the _segment_plan of the pairs' rows.  cells holds each
    row's indices into the flat gradient of size entries: theta's V cells of
    its (left, right) row and, in dise, then its time bucket's, so one
    bincount makes both tables.  dice: m_target is each cell's pair's target
    mass, and error names the first pair whose mass the model cannot match.
    """

    gaps: _Gaps
    r: np.ndarray
    targets: tuple
    w: np.ndarray
    w_cells: np.ndarray
    pair_plan: tuple
    cells: np.ndarray
    size: int
    m_target: np.ndarray | None
    error: str | None


def _prepare(params: ScorerParams, xts: Batch, r: np.ndarray, ts, w, cuts) -> list[_Prepared]:
    """The _Prepared of each step of a packed batch; step q holds pairs cuts[q]:cuts[q + 1].

    Pair b is (state b of xts, its rows of the ratios r, ts[b]) and w[b] is its
    loss weight, as process.time_terms(ts) gives it.  Only the params' mode,
    vocab size and k are read, never their tables.  Every array comes from one
    pass over all the rows; each step takes its slices.
    """
    mode, V = params.mode, params.vocab_size
    lens = xts.sizes
    ends = np.cumsum(lens)
    rows = _rows(xts.ids, V)
    buckets = np.repeat(time_bucket(ts), lens) if mode == "dise" else None
    gaps = _gaps(params, rows, lens, buckets)
    size = V**3 + (N_BUCKETS * V if mode == "dise" else 0)
    # gradient cells: V per (left, right), then per bucket, in the fewest bytes that hold them, as
    # cells is a group's largest prepared array (2 bytes a cell, not 8, up to V = 40)
    table = np.arange(size, dtype=np.min_scalar_type(size)).reshape(-1, V)
    m_target, errors = None, {}  # errors: pair -> why the model cannot match its targets
    if mode == "dise":
        cells = np.take(table, np.stack((rows, V * V + buckets), axis=1), axis=0).reshape(-1, 2 * V)
    else:
        cells = np.take(table, rows, axis=0)
        mass = _segment_sums(r.reshape(-1), gaps.cell_plan)
        m_model = params.k - (lens - 1)
        errors = {b: f"model is normalized for {int(m_model[b])} missing tokens, "
                     f"targets say {float(mass[b])}"
                  for b in np.flatnonzero(np.abs(m_model - mass) > DICE_NORM_TOL).tolist()}
        m_target = np.repeat(mass, lens * V).reshape(-1, V)
    at, rp, c = target_terms(mode, r)
    w_cells = np.repeat(w, lens * V).reshape(-1, V)  # a full array multiplies faster than a column
    pair_plan = _segment_plan(ends - lens, len(rows))
    firsts = np.append(0, ends)[cuts]  # each step's first row
    hits = np.searchsorted(at, firsts * V).tolist()  # and its first target
    steps = []
    for q, (i, j) in enumerate(itertools.pairwise(firsts.tolist())):
        a, b = cuts[q], cuts[q + 1]
        h = slice(hits[q], hits[q + 1])
        steps.append(_Prepared(
            _gaps_part(gaps, V, a, b, i, j), r[i:j], (at[h] - i * V, rp[h], c[h]), w[a:b],
            w_cells[i:j], _plan_part(pair_plan, a, b, i, j), cells[i:j].reshape(-1), size,
            None if m_target is None else m_target[i:j],
            next((why for pair, why in errors.items() if a <= pair < b), None),
        ))
    return steps


def _step(params: ScorerParams, prep: _Prepared) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair losses, per-gap loss sums and the summed gradient of a _Prepared batch at params.

    The gradient comes flat, as _flat lays out the params.
    dise: d/dz of the bracket is simply (s - r) because s = exp(z).
    dice: the normalizer makes this a softmax cross-entropy with total
    target mass sum(r); d/dz = sum(r) * softmax - r, independent of the
    constant K - |x_t| factor.  s and p come from _scores, as score's do.
    """
    if prep.error is not None:
        raise NormalizationViolation(prep.error)
    s, p = _scores(params, prep.gaps)
    if params.mode == "dise":
        g_z = prep.w_cells * (s - prep.r)
        g_z = np.concatenate((g_z, g_z), axis=1)  # a row's theta cells, then its time bias's
    else:
        g_z = prep.w_cells * (prep.m_target * p - prep.r)
        g_z[:, 0] = 0.0  # the bos column carries no model mass
    per_position = row_loss_sums(params.mode, s, prep.targets)
    # bincount adds each cell's rows in input order, as np.add.at does, to the same bits
    grad = np.bincount(prep.cells, g_z.reshape(-1), prep.size)
    return prep.w * _segment_sums(per_position, prep.pair_plan), per_position, grad


def _flat(params: ScorerParams) -> tuple[ScorerParams, np.ndarray]:
    """A copy of params whose tables are views of one fresh flat buffer, and that buffer.

    The buffer holds theta's V**3 values, then (dise) the time bias's.
    """
    flat = np.concatenate([a.reshape(-1) for a in (params.theta, params.time_bias) if a is not None])
    return ScorerParams(params.mode, *_tables(params, flat), params.k), flat


def _tables(params: ScorerParams, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """theta and, in dise, the time bias of a flat array laid out as _flat lays params out."""
    V = params.vocab_size
    time_bias = flat[V**3 :].reshape(N_BUCKETS, V) if params.mode == "dise" else None
    return flat[: V**3].reshape(V, V, V), time_bias


def _loss_grad_from_ratios(
    params: ScorerParams, xts: Batch | list[Sequence], ratios: np.ndarray | list[np.ndarray], ts
) -> tuple[np.ndarray, np.ndarray, Gradient]:
    """Per-pair losses, per-gap loss sums and the summed gradient of a packed batch.

    Pair b is (xts[b], its ratio grid, ts[b]); the grids come packed, as the
    rows of one (sum of |x_t|, V) array, or as a list.  All gaps are rows of
    one unpadded array, and pair b's loss has the bits
    objective.loss_from_ratios gives it.  The batch is prepared once
    (_prepare: indices, weights, target terms) and stepped once (_step: the
    terms that read the params), as training does per step.
    """
    batch = Batch.of(xts)
    r = ratios if isinstance(ratios, np.ndarray) else np.concatenate(ratios)
    (prep,) = _prepare(params, batch, r, ts, time_terms(ts)[1], [0, len(batch)])
    totals, per_position, grad = _step(params, prep)
    return totals, per_position, Gradient(*_tables(params, grad))


def loss_and_grad(
    params: ScorerParams, x_t: Sequence, x_0: Sequence, t: float
) -> tuple[LossBreakdown, Gradient]:
    """Loss of (x_t, x_0) at time t and its gradient in the params."""
    ratios = dp.n_ratios_auto(x_t, x_0, params.vocab_size).ratios
    totals, per_position, grad = _loss_grad_from_ratios(params, [x_t], ratios, [t])
    return LossBreakdown(float(totals[0]), per_position, loss_weight(t)), grad


# ---------------------------------------------------------------------------
# optimizers and the training loop

class _Sgd:
    def __init__(self, lr):
        self.lr = lr

    def step(self, a, g):
        a -= self.lr * g


class _Adam:
    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr):
        self.lr = lr
        self.m = self.v = 0.0  # the moments, arrays from the first step on
        self.t = 0

    def step(self, a, g):
        self.t += 1
        self.m *= self.b1
        self.m += (1 - self.b1) * g
        self.v *= self.b2
        self.v += (1 - self.b2) * g * g
        mhat = self.m / (1 - self.b1 ** self.t)
        vhat = self.v / (1 - self.b2 ** self.t)
        a -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


OPTIMIZERS = {"sgd": _Sgd, "adam": _Adam}


def _count(config: dict, key: str) -> int:
    """config[key] as an int: an integer or an integral float, never a bool."""
    v = config[key]
    if isinstance(v, bool) or not (isinstance(v, numbers.Integral)
                                   or isinstance(v, float) and v.is_integer()):
        raise ConfigError(f"{key} must be a whole number, got {v!r}")
    return int(v)


def train_settings(config: dict) -> tuple[int, int, float, str]:
    """(epochs, batch, lr, optimizer) of a training config, each checked."""
    for key in ("epochs", "batch", "lr", "optimizer"):
        if key not in config:
            raise ConfigError(f"training config is missing {key!r}")
    epochs = _count(config, "epochs")
    batch = _count(config, "batch")
    lr = float(config["lr"])
    opt_name = str(config["optimizer"])
    if epochs < 1 or batch < 1:
        raise ConfigError(f"epochs={epochs} and batch={batch} must be >= 1")
    if not (math.isfinite(lr) and lr >= 0):
        raise ConfigError(f"learning rate must be finite and >= 0, got {lr}")
    if opt_name not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {opt_name!r}")
    return epochs, batch, lr, opt_name


def _groups(order: np.ndarray, batch: int, lens: np.ndarray):
    """An epoch's steps, batch pairs each in order, gathered into groups of whole steps.

    Yields each group's corpus indices and the offsets its steps start at, then its
    end.  A group takes the next step while its lockstep table, sized from the
    x_0 lengths lens (they bound x_t's too), stays within _GROUP_TABLE_BYTES and
    its longest x_0 has at most dp.EXACT_SAFE_ROWS ids, so a group of several
    steps never overflows the exact domain.  It always takes one step, and a
    step with a longer x_0 is a group of its own.  Steps of 32 lines of 4-12
    tokens take about 33 KB each, so a group holds up to about 60 of them.
    """
    cuts = [*range(0, len(order), batch), len(order)]
    ordered = lens[order]
    longest = np.maximum.reduceat(ordered, cuts[:-1]).tolist()  # each step's longest x_0
    g = 0
    while g < len(longest):
        h, m = g + 1, longest[g]
        while h < len(longest):
            m_h = max(m, longest[h])
            table = math.prod(dp.lockstep_table_shape(ordered[cuts[g] : cuts[h + 1]], m_h)) * 8
            if m_h > dp.EXACT_SAFE_ROWS or table > _GROUP_TABLE_BYTES:
                break
            h, m = h + 1, m_h
        yield order[cuts[g] : cuts[h]], [c - cuts[g] for c in cuts[g : h + 1]]
        g = h


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a diverging step shows as its loss
def train(
    params: ScorerParams, corpus: Corpus, config: dict, on_step=None
) -> tuple[ScorerParams, list[dict]]:
    """Minibatch training; returns fresh params and a per-step metric list.

    Required config keys: epochs, batch, lr, optimizer ("sgd" | "adam"), as
    train_settings checks them; seed is optional.  Forward draws use
    process's fixed schedule.  Batches are drawn by reshuffling the corpus
    each epoch.  A step's targets depend on its x_0, the rng and its times,
    never on the params, so whole steps of an epoch are made in groups, as
    _groups gathers them: several steps only while they fit one lockstep
    table of _GROUP_TABLE_BYTES and cannot overflow the exact domain, so an
    epoch of 500 short lines is one group and an epoch of long lines still
    splits into several.  A group draws its doubles in one rng.random call,
    for each pair its t and then its tokens' survival doubles, as one
    forward_sample call per pair would, then makes in one schedule pass
    (time_terms) its survivals and loss weights, its x_t with one packed
    forward_sample call on the survivals and its targets with one
    dp.batched_n_ratios_auto call on both packed sides as a
    seqcore.PairBatch.  A group of several steps lands on
    exact at once; a step of long lines climbs the ladder alone.  The group
    is then prepared once (_prepare: indices, loss weights, target terms),
    and each step runs only what reads the params (_step), so every
    step has the bits _loss_grad_from_ratios gives it made alone.  theta
    and the time bias are views of one flat buffer, which the optimizer
    updates as one array from one flat gradient.  Metric dicts hold step,
    epoch, loss and domain, the DP rung the step's group took.  Everything
    runs sequentially in a fixed order, so a fixed seed reproduces the
    metric stream bit for bit.
    on_step, when given, is called with each metric dict as it is produced;
    a group's first step also carries the group's draw, DP call and
    preparation.  A step whose loss is not finite raises NonFinite, and a
    dice step whose targets' mass the model cannot match raises
    NormalizationViolation, each with no metric dict made for it.  The
    params returned share no memory with params.
    """
    if not corpus.sequences:
        raise ConfigError("empty corpus")
    epochs, batch, lr, opt_name = train_settings(config)

    if params.mode == "dice":
        lens = {s.content_len for s in corpus.sequences}
        if len(lens) != 1:
            raise ConfigError(f"dice mode needs equal-length sequences, got lengths {sorted(lens)}")
        if lens != {params.k}:
            raise ConfigError(f"corpus length {lens.pop()} != scorer k={params.k}")

    out, flat = _flat(params)  # the optimizer updates theta and the time bias as one array
    opt = OPTIMIZERS[opt_name](lr)

    rng = np.random.default_rng(config.get("seed"))
    packed = Batch.of(corpus.sequences)  # the corpus packed once; a group gathers its rows
    lens, heads = packed.sizes, np.cumsum(packed.sizes) - packed.sizes
    metrics: list[dict] = []
    step = 0
    for epoch in range(epochs):
        order = rng.permutation(len(corpus.sequences))
        for group, cuts in _groups(order, batch, lens):
            sizes = lens[group]
            ends = np.cumsum(sizes)
            starts = ends - sizes
            picks = np.repeat(heads[group] - starts, sizes) + np.arange(ends[-1])  # their ids
            x0s = Batch(packed.ids[picks], sizes)
            u = rng.random(len(x0s.ids))  # in each pair's slots: its t, then its tokens' doubles
            ts = T_MIN + (1.0 - T_MIN) * u[starts]
            survival, w = time_terms(ts)  # the group's one schedule pass
            xts = forward_sample(x0s, survival, u)
            mats = dp.batched_n_ratios_auto(PairBatch(xts, x0s), out.vocab_size)
            for a, b, prep in zip(cuts, cuts[1:], _prepare(out, xts, mats.ratios, ts, w, cuts)):
                totals, _, grad = _step(out, prep)
                n = b - a
                loss = float(totals.sum()) / n
                if not math.isfinite(loss):
                    raise NonFinite(f"step {step}: loss is {loss}; training diverged")
                opt.step(flat, grad / n)
                metrics.append({"step": step, "epoch": epoch, "loss": loss, "domain": mats.domain})
                if on_step is not None:
                    on_step(metrics[-1])
                step += 1
    return out, metrics


# ---------------------------------------------------------------------------
# checkpoint io: one JSON header line, then raw float64 payload

def save(params: ScorerParams, path) -> None:
    """Write a checkpoint: JSON header line + C-order float64 tables.

    Deliberately not an archive format: byte-identical params produce a
    byte-identical file, which zip containers (timestamps) would break.
    Params holding a non-finite value raise NonFinite, and path is left as it was.
    """
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "mode": params.mode,
        "vocab_size": params.vocab_size,
        "k": params.k,
        "buckets": N_BUCKETS if params.mode == "dise" else None,
    }
    with atomic_open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        tables = [np.ascontiguousarray(a, dtype=np.float64)
                  for a in (params.theta, params.time_bias) if a is not None]
        if bad := sum(int((~np.isfinite(a)).sum()) for a in tables):
            raise NonFinite(f"params hold {bad} non-finite values; no checkpoint written")
        for a in tables:
            f.write(a.tobytes())


def load(path) -> ScorerParams:
    with open(path, "rb") as f:
        header_line = f.readline()
        payload = f.read()
    try:
        header = json.loads(header_line)
    except (ValueError, UnicodeDecodeError):
        raise VersionMismatch("not a scorer checkpoint: missing JSON header") from None
    if not isinstance(header, dict):
        raise VersionMismatch("not a scorer checkpoint: header is not a JSON object")
    if header.get("format") != FORMAT_NAME:
        raise VersionMismatch(f"not a scorer checkpoint: format {header.get('format')!r}")
    if header.get("version") != FORMAT_VERSION:
        raise VersionMismatch(
            f"checkpoint version {header.get('version')} unsupported (want {FORMAT_VERSION})"
        )
    mode, V, k = header.get("mode"), header.get("vocab_size"), header.get("k")
    if mode not in MODES:
        raise VersionMismatch(f"checkpoint mode {mode!r} is not one of {MODES}")
    for name, v in (("vocab_size", V), ("k", k)):
        if not ((name == "k" and v is None) or (type(v) is int and v > 0)):
            raise ShapeMismatch(f"checkpoint {name} {v!r} is not a positive integer")
    n_theta = V * V * V
    n_bias = N_BUCKETS * V if mode == "dise" else 0
    if header.get("buckets") not in (None, N_BUCKETS):
        raise VersionMismatch(f"bucket count {header['buckets']} unsupported")
    expect = 8 * (n_theta + n_bias)
    if len(payload) != expect:
        raise ShapeMismatch(
            f"payload is {len(payload)} bytes, header implies {expect}"
        )
    flat = np.frombuffer(payload, dtype=np.float64)
    if not np.isfinite(flat).all():
        raise ShapeMismatch(f"payload holds {int((~np.isfinite(flat)).sum())} non-finite values")
    theta = flat[:n_theta].reshape(V, V, V).copy()
    tb = flat[n_theta:].reshape(N_BUCKETS, V).copy() if mode == "dise" else None
    return ScorerParams(mode, theta, tb, k)


def gradcheck(params: ScorerParams, x_t: Sequence, x_0: Sequence, t: float) -> float:
    """Max relative error of analytic vs central finite-difference gradients.

    The differences step by h = 1e-5.  Relative error uses an absolute floor
    of 1e-8 so near-zero coordinates do not blow the ratio up.
    """
    h = 1e-5
    ratios = dp.n_ratios_auto(x_t, x_0, params.vocab_size).ratios  # the params do not move them
    (prep,) = _prepare(params, Batch.of([x_t]), ratios, [t], time_terms([t])[1], [0, 1])
    analytic = _step(params, prep)[2]
    probe, flat = _flat(params)
    worst = 0.0
    for i, x in enumerate(flat.tolist()):
        flat[i] += h
        up = float(_step(probe, prep)[0][0])
        flat[i] -= 2 * h
        down = float(_step(probe, prep)[0][0])
        flat[i] = x
        fd = (up - down) / (2 * h)
        denom = max(abs(analytic[i]), abs(fd), 1e-8)
        worst = max(worst, abs(analytic[i] - fd) / denom)
    return worst
