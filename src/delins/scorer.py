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
    NormalizationViolation,
    ShapeMismatch,
    VersionMismatch,
)
from .objective import DICE_NORM_TOL, T_MIN, LossBreakdown, loss_from_ratios, loss_weight
from .process import forward_sample
from .seqcore import Corpus, Sequence, atomic_open

FORMAT_NAME = "delins-scorer"
FORMAT_VERSION = 1
N_BUCKETS = 16
END_SLOT = 0  # right-context feature for the last gap; see module docstring

MODES = ("dise", "dice")


@dataclass(frozen=True)
class InsertionScoreMatrix:
    values: np.ndarray  # (|x_t|, V)
    mode: str


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


def time_bucket(t: float) -> int:
    return min(int(t * N_BUCKETS), N_BUCKETS - 1)


def _gap_contexts(x_t: Sequence) -> tuple[np.ndarray, np.ndarray]:
    ids = np.asarray(x_t.ids, dtype=np.int64)
    rights = np.empty_like(ids)
    rights[:-1] = ids[1:]
    rights[-1] = END_SLOT
    return ids, rights


def _logits(params: ScorerParams, x_t: Sequence, t: float | None) -> np.ndarray:
    lefts, rights = _gap_contexts(x_t)
    z = params.theta[lefts, rights, :]
    if params.mode == "dise":
        if t is None:
            raise ModeMismatch("dise scores are time-dependent; pass t")
        z = z + params.time_bias[time_bucket(t)]
    return z


def _insertable_softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over all (gap, token) cells except the bos column.

    The bos marker can never be inserted, so the model holds that column at
    an exact zero rather than wasting probability mass it could never shed
    with finite logits.
    """
    e = np.zeros_like(z)
    zz = z[:, 1:]
    e[:, 1:] = np.exp(zz - zz.max())
    return e / e.sum()


def score(params: ScorerParams, x_t: Sequence, t: float | None = None) -> InsertionScoreMatrix:
    """Model scores for every (gap, token) cell of x_t."""
    z = _logits(params, x_t, t)
    if params.mode == "dise":
        return InsertionScoreMatrix(np.exp(z), "dise")
    m = params.k - x_t.content_len
    if m < 0:
        raise ShapeMismatch(f"x_t has {x_t.content_len} content tokens, more than k={params.k}")
    if m == 0:
        return InsertionScoreMatrix(np.zeros_like(z), "dice")
    return InsertionScoreMatrix(m * _insertable_softmax(z), "dice")


def _loss_grad_from_ratios(
    params: ScorerParams, x_t: Sequence, ratios: np.ndarray, t: float
) -> tuple[LossBreakdown, Gradient]:
    """objective.loss_from_ratios plus d loss / d (theta, time bias).

    dise: d/dz of the bracket is simply (s - r) because s = exp(z).
    dice: the normalizer makes this a softmax cross-entropy with total
    target mass sum(r); d/dz = sum(r) * softmax - r, independent of the
    constant K - |x_t| factor.
    """
    w = loss_weight(t)
    z = _logits(params, x_t, t)
    if params.mode == "dise":
        s = np.exp(z)
        g_z = w * (s - ratios)
    else:
        m_model = params.k - x_t.content_len
        m_target = float(ratios.sum())
        if abs(m_model - m_target) > DICE_NORM_TOL:
            raise NormalizationViolation(
                f"model is normalized for {m_model} missing tokens, targets say {m_target}"
            )
        p = _insertable_softmax(z)
        s = m_model * p
        g_z = w * (m_target * p - ratios)
        g_z[:, 0] = 0.0  # the bos column carries no model mass
    loss = loss_from_ratios(params.mode, s, ratios, w)

    V = params.vocab_size
    gtheta = np.zeros((V, V, V))
    lefts, rights = _gap_contexts(x_t)
    np.add.at(gtheta, (lefts, rights), g_z)
    gtb = None
    if params.mode == "dise":
        gtb = np.zeros((N_BUCKETS, V))
        gtb[time_bucket(t)] = g_z.sum(axis=0)
    return loss, Gradient(gtheta, gtb)


def loss_and_grad(
    params: ScorerParams, x_t: Sequence, x_0: Sequence, t: float
) -> tuple[LossBreakdown, Gradient]:
    """Loss of (x_t, x_0) at time t and its gradient in the params."""
    ratios = dp.n_ratios_auto(x_t, x_0, params.vocab_size).ratios
    return _loss_grad_from_ratios(params, x_t, ratios, t)


# ---------------------------------------------------------------------------
# optimizers and the training loop

class _Sgd:
    def __init__(self, lr):
        self.lr = lr

    def step(self, arrays, grads):
        for a, g in zip(arrays, grads):
            a -= self.lr * g


class _Adam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
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


def train(
    params: ScorerParams, corpus: Corpus, config: dict, on_step=None
) -> tuple[ScorerParams, list[dict]]:
    """Minibatch training; returns fresh params and a per-step metric list.

    Required config keys: epochs, batch, lr, optimizer ("sgd" | "adam"); seed
    is optional.  Forward draws use process's fixed schedule.  Batches are
    drawn by reshuffling the corpus each epoch; each sequence gets an
    independent (t, x_t) draw, and the batch's targets come from one
    dp.batched_n_ratios_auto call.  Everything runs sequentially in a fixed
    order, so a fixed seed reproduces the metric stream bit for bit.
    on_step, when given, is called with each metric dict as it is produced
    (for streaming progress elsewhere).
    """
    if not corpus.sequences:
        raise ConfigError("empty corpus")
    for key in ("epochs", "batch", "lr", "optimizer"):
        if key not in config:
            raise ConfigError(f"training config is missing {key!r}")
    epochs = int(config["epochs"])
    batch = int(config["batch"])
    lr = float(config["lr"])
    opt_name = str(config["optimizer"])
    seed = config.get("seed")
    if epochs < 1 or batch < 1:
        raise ConfigError(f"epochs={epochs} and batch={batch} must be >= 1")
    if lr < 0:
        raise ConfigError("negative learning rate")

    if params.mode == "dice":
        lens = {s.content_len for s in corpus.sequences}
        if len(lens) != 1:
            raise ConfigError(f"dice mode needs equal-length sequences, got lengths {sorted(lens)}")
        if lens != {params.k}:
            raise ConfigError(f"corpus length {lens.pop()} != scorer k={params.k}")

    out = params.copy()
    arrays = [out.theta] + ([out.time_bias] if out.time_bias is not None else [])
    if opt_name == "sgd":
        opt = _Sgd(lr)
    elif opt_name == "adam":
        opt = _Adam(lr)
    else:
        raise ConfigError(f"unknown optimizer {opt_name!r}")

    rng = np.random.default_rng(seed)
    metrics: list[dict] = []
    step = 0
    for epoch in range(epochs):
        order = rng.permutation(len(corpus.sequences))
        for start in range(0, len(order), batch):
            idx = order[start : start + batch]
            draws = []
            for i in idx:
                x_0 = corpus.sequences[int(i)]
                t = T_MIN + (1.0 - T_MIN) * float(rng.random())
                x_t = forward_sample(x_0, 0.0, t, rng).x_t
                draws.append((x_t, x_0, t))
            mats = dp.batched_n_ratios_auto(
                [(x_t, x_0) for x_t, x_0, _ in draws], out.vocab_size
            )
            loss_sum = 0.0
            gsum = [np.zeros_like(a) for a in arrays]
            for (x_t, x_0, t), mat in zip(draws, mats):
                loss, grad = _loss_grad_from_ratios(out, x_t, mat.ratios, t)
                loss_sum += loss.total
                gsum[0] += grad.theta
                if grad.time_bias is not None:
                    gsum[1] += grad.time_bias
            n = len(draws)
            opt.step(arrays, [g / n for g in gsum])
            metrics.append({"step": step, "epoch": epoch, "loss": loss_sum / n})
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
        f.write(np.ascontiguousarray(params.theta, dtype=np.float64).tobytes())
        if params.time_bias is not None:
            f.write(np.ascontiguousarray(params.time_bias, dtype=np.float64).tobytes())


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
    theta = flat[:n_theta].reshape(V, V, V).copy()
    tb = flat[n_theta:].reshape(N_BUCKETS, V).copy() if mode == "dise" else None
    return ScorerParams(mode, theta, tb, k)


def gradcheck(
    params: ScorerParams, x_t: Sequence, x_0: Sequence, t: float, h: float = 1e-5
) -> float:
    """Max relative error of analytic vs central finite-difference gradients.

    Relative error uses an absolute floor of 1e-8 so near-zero coordinates
    do not blow the ratio up.
    """
    _, grad = loss_and_grad(params, x_t, x_0, t)
    worst = 0.0

    def loss_with(p: ScorerParams) -> float:
        return loss_and_grad(p, x_t, x_0, t)[0].total

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
