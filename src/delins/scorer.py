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
stacks their rows: one call per sampler leap, and one per training batch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import dp
from .errors import (
    ConfigError,
    ModeMismatch,
    NonFinite,
    NormalizationViolation,
    ShapeMismatch,
    VersionMismatch,
)
from .objective import DICE_NORM_TOL, T_MIN, LossBreakdown, loss_weight, row_loss_sums
from .process import forward_sample, time_terms
from .seqcore import BOS_ID, Batch, Corpus, PairBatch, Sequence, atomic_open

FORMAT_NAME = "delins-scorer"
FORMAT_VERSION = 1
N_BUCKETS = 16

MODES = ("dise", "dice")
# a group of training steps makes its targets in one DP call whose lockstep table fits this
_GROUP_TABLE_BYTES = 256 * 1024


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


def _gap_contexts(ids: np.ndarray) -> np.ndarray:
    """Right contexts of the gaps of ids, one sequence or several packed; ids are the lefts."""
    rights = np.empty_like(ids)
    rights[:-1] = ids[1:]  # a last gap meets the next sequence's bos: the END feature
    rights[-1:] = BOS_ID
    return rights


def _segment_sums(a: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sums of the segments a[starts[b]:starts[b + 1]], each bitwise equal to its .sum().

    reduceat adds a first element to the pairwise sum of the rest; a zero in
    front of each segment turns that into the pairwise sum .sum() takes.
    """
    at = starts + np.arange(len(starts))  # where each segment's zero goes
    padded, rest = np.zeros(len(a) + len(at)), np.ones(len(a) + len(at), dtype=bool)
    rest[at] = False
    padded[rest] = a
    return np.add.reduceat(padded, at)


def _scores(params: ScorerParams, lefts: np.ndarray, lens: np.ndarray, ts) -> tuple:
    """Scores of states packed as one id array, with the dice softmax or dise buckets.

    State b holds lens[b] of the ids lefts, at time ts[b].  Returns (s, p,
    buckets): p is None in dise and buckets, each row's time bucket, None in
    dice.  A state's maximum and normalizer are its own, so its rows have the
    bits it gets scored alone.
    """
    seg = np.repeat(np.arange(len(lens)), lens)  # the state each row belongs to
    z = params.theta[lefts, _gap_contexts(lefts), :]
    if params.mode == "dise":
        buckets = time_bucket(ts)[seg]
        return np.exp(z + params.time_bias[buckets]), None, buckets
    # The bos marker can never be inserted, so the model holds that column at
    # an exact zero rather than wasting probability mass it could never shed
    # with finite logits.
    starts = np.cumsum(lens) - lens
    zz = z[:, 1:]
    e = np.zeros_like(z)
    e[:, 1:] = np.exp(zz - np.maximum.reduceat(zz.max(axis=1), starts)[seg, None])
    p = e / _segment_sums(e.reshape(-1), starts * params.vocab_size)[seg, None]
    return (params.k - (lens - 1))[seg, None] * p, p, None


def score(params: ScorerParams, xs: Batch | list[Sequence], t: float | None = None) -> np.ndarray:
    """Model scores of every (gap, token) cell of the states xs at time t.

    The matrices of xs, a Batch or a list of states, come stacked: shape (sum of |x|, V).
    """
    if params.mode == "dise" and t is None:
        raise ModeMismatch("dise scores are time-dependent; pass t")
    batch = Batch.of(xs)
    if params.mode == "dice" and (over := batch.sizes[batch.sizes - 1 > params.k]).size:
        raise ShapeMismatch(f"x_t has {over[0] - 1} content tokens, more than k={params.k}")
    return _scores(params, batch.ids, batch.sizes, [t] * len(batch))[0]


def _loss_grad_from_ratios(
    params: ScorerParams, xts: Batch | list[Sequence], ratios: np.ndarray | list[np.ndarray], ts
) -> tuple[np.ndarray, np.ndarray, Gradient]:
    """Per-pair losses, per-gap loss sums and the summed gradient of a packed batch.

    Pair b is (xts[b], its ratio grid, ts[b]); the grids come packed, as the rows
    of one (sum of |x_t|, V) array, or as a list.  All gaps are rows of one
    unpadded array, and pair b's loss has the bits objective.loss_from_ratios gives it.

    dise: d/dz of the bracket is simply (s - r) because s = exp(z).
    dice: the normalizer makes this a softmax cross-entropy with total
    target mass sum(r); d/dz = sum(r) * softmax - r, independent of the
    constant K - |x_t| factor.  s and p come from _scores, as score's do.
    """
    batch = Batch.of(xts)
    lefts, lens = batch.ids, batch.sizes
    starts = np.cumsum(lens) - lens
    seg = np.repeat(np.arange(len(lens)), lens)  # the pair each row belongs to
    w = time_terms(ts)[1]
    r = ratios if isinstance(ratios, np.ndarray) else np.concatenate(ratios)
    V = params.vocab_size
    if params.mode == "dice":
        m_model = params.k - (lens - 1)
        m_target = _segment_sums(r.reshape(-1), starts * V)
        bad = np.flatnonzero(np.abs(m_model - m_target) > DICE_NORM_TOL)
        if bad.size:
            raise NormalizationViolation(f"model is normalized for {int(m_model[bad[0]])} "
                                         f"missing tokens, targets say {float(m_target[bad[0]])}")
    s, p, buckets = _scores(params, lefts, lens, ts)
    if params.mode == "dise":
        g_z = w[seg, None] * (s - r)
    else:
        g_z = w[seg, None] * (m_target[seg, None] * p - r)
        g_z[:, 0] = 0.0  # the bos column carries no model mass
    per_position = row_loss_sums(params.mode, s, r)

    # bincount adds each cell's rows in input order, as np.add.at does, to the same bits
    cells = (lefts * V + _gap_contexts(lefts))[:, None] * V + np.arange(V)
    gtheta = np.bincount(cells.reshape(-1), g_z.reshape(-1), V**3).reshape(V, V, V)
    gtb = None
    if params.mode == "dise":
        cells = buckets[:, None] * V + np.arange(V)
        gtb = np.bincount(cells.reshape(-1), g_z.reshape(-1), N_BUCKETS * V).reshape(N_BUCKETS, V)
    return w * _segment_sums(per_position, starts), per_position, Gradient(gtheta, gtb)


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

    def step(self, arrays, grads):
        for a, g in zip(arrays, grads):
            a -= self.lr * g


class _Adam:
    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr):
        self.lr = lr
        self.m = None
        self.v = None
        self.t = 0

    def step(self, arrays, grads):
        if self.m is None:
            self.m = [np.zeros_like(a) for a in arrays]
            self.v = [np.zeros_like(a) for a in arrays]
        self.t += 1
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            v += (1 - self.b2) * g * g
            mhat = m / (1 - self.b1 ** self.t)
            vhat = v / (1 - self.b2 ** self.t)
            a -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


OPTIMIZERS = {"sgd": _Sgd, "adam": _Adam}


def train_settings(config: dict) -> tuple[int, int, float, str]:
    """(epochs, batch, lr, optimizer) of a training config, each checked."""
    for key in ("epochs", "batch", "lr", "optimizer"):
        if key not in config:
            raise ConfigError(f"training config is missing {key!r}")
    epochs = int(config["epochs"])
    batch = int(config["batch"])
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
    step with a longer x_0 is a group of its own.
    """
    cuts = [*range(0, len(order), batch), len(order)]
    longest = np.maximum.reduceat(lens[order], cuts[:-1]).tolist()  # each step's longest x_0
    g = 0
    while g < len(longest):
        h, m = g + 1, longest[g]
        while h < len(longest):
            m_h = max(m, longest[h])
            table = math.prod(dp.lockstep_table_shape(cuts[h + 1] - cuts[g], m_h, m_h)) * 8
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
    table of _GROUP_TABLE_BYTES and cannot overflow the exact domain.  A
    group draws its doubles in one rng.random call, for each pair its t and
    then its tokens' survival doubles, as one forward_sample call per pair
    would, makes its x_t with one packed forward_sample call and its targets
    with one dp.batched_n_ratios_auto call on both packed sides as a
    seqcore.PairBatch.  A group of several steps lands on exact at once; a
    step of long lines climbs the ladder alone.  Each step then reads its
    row block of the packed ratios and makes its loss and gradient with one
    packed _loss_grad_from_ratios call, so every step has the bits it has
    when made alone.  Metric dicts hold step, epoch, loss and domain, the DP
    rung the step's group took.  Everything runs sequentially in a fixed
    order, so a fixed seed reproduces the metric stream bit for bit.
    on_step, when given, is called with each metric dict as it is produced;
    a group's first step also carries the group's draw and DP call.  A step
    whose loss is not finite raises NonFinite, with no metric dict made.
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

    out = params.copy()
    arrays = [out.theta] + ([out.time_bias] if out.time_bias is not None else [])
    opt = OPTIMIZERS[opt_name](lr)

    rng = np.random.default_rng(config.get("seed"))
    lens = np.fromiter(map(len, corpus.sequences), np.int64, len(corpus.sequences))
    metrics: list[dict] = []
    step = 0
    for epoch in range(epochs):
        order = rng.permutation(len(corpus.sequences))
        for group, cuts in _groups(order, batch, lens):
            x0s = Batch.of([corpus.sequences[i] for i in group.tolist()])
            u = rng.random(len(x0s.ids))  # in each pair's slots: its t, then its tokens' doubles
            ts = T_MIN + (1.0 - T_MIN) * u[np.cumsum(x0s.sizes) - x0s.sizes]
            xts = forward_sample(x0s, ts, u)
            mats = dp.batched_n_ratios_auto(PairBatch(xts, x0s), out.vocab_size)
            at = np.cumsum(np.append(0, xts.sizes)).tolist()
            for a, b in zip(cuts, cuts[1:]):  # a step's pairs
                rows = slice(at[a], at[b])
                step_xts = Batch(xts.ids[rows], xts.sizes[a:b])
                totals, _, grad = _loss_grad_from_ratios(out, step_xts, mats.ratios[rows], ts[a:b])
                n = b - a
                loss = float(totals.sum()) / n
                if not math.isfinite(loss):
                    raise NonFinite(f"step {step}: loss is {loss}; training diverged")
                opt.step(arrays, [g / n for g in (grad.theta, grad.time_bias) if g is not None])
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
    _, _, grad = _loss_grad_from_ratios(params, [x_t], ratios, [t])
    worst = 0.0

    def loss_with(p: ScorerParams) -> float:
        return float(_loss_grad_from_ratios(p, [x_t], ratios, [t])[0][0])

    tables = [("theta", grad.theta)] + (
        [("time_bias", grad.time_bias)] if grad.time_bias is not None else []
    )
    for name, analytic in tables:
        for pos in np.ndindex(analytic.shape):
            probe = params.copy()
            arr = probe.theta if name == "theta" else probe.time_bias
            arr[pos] += h
            up = loss_with(probe)
            arr[pos] -= 2 * h
            down = loss_with(probe)
            fd = (up - down) / (2 * h)
            denom = max(abs(analytic[pos]), abs(fd), 1e-8)
            worst = max(worst, abs(analytic[pos] - fd) / denom)
    return worst
