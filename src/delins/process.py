"""Forward deletion process.

A continuous-time Markov chain that deletes non-bos tokens independently at
rate sigma(t), under one fixed log-linear schedule that training, sampling and
the oracle all share: a token survives [0, t] with probability 1 - t.
Everything here is closed-form: the chance that one token survives the
window [s, t] is exp(-(sigma_bar(t) - sigma_bar(s))), and the chance of
landing on a particular shorter sequence is that survival probability per
kept token, times the deletion probability per lost token, times the number
of distinct ways the shorter sequence embeds into the longer one.  Lengths
in those formulas exclude the bos marker, which never deletes.

forward_sample draws x_t from x_0 over [0, t], one state from its t or packed
from survival probabilities; the closed forms take any window [s, t].
"""

from __future__ import annotations

import math

import numpy as np

from . import dp
from .errors import BeyondFloat64, InvalidTimes, NotSingleDeletion
from .seqcore import BOS_ID, Batch, Sequence

# sigma_bar(1) diverges for the log-linear schedule; clamping just below 1
# removes the singularity without visibly changing any probability.
T_MAX = 1.0 - 1e-9


def sigma(t: float) -> float:
    """Deletion rate of the log-linear schedule: 1 / (1 - t)."""
    t = min(t, T_MAX)
    return 1.0 / (1.0 - t)


def sigma_bar(t: float) -> float:
    """Integrated rate -ln(1 - t), so survival over [0, t] is exactly 1 - t."""
    t = min(t, T_MAX)
    return -math.log1p(-t)


def _check_times(s: float, t: float) -> None:
    if not (0.0 <= s < t <= 1.0):
        raise InvalidTimes(f"need 0 <= s < t <= 1, got s={s}, t={t}")


def survival_prob(s: float, t: float) -> float:
    """Probability that one non-bos token present at time s still exists at t."""
    _check_times(s, t)
    return math.exp(-(sigma_bar(t) - sigma_bar(s)))


def time_terms(ts) -> tuple[np.ndarray, np.ndarray]:
    """survival_prob(0, t) and objective.loss_weight(t) of every t in ts, as two arrays.

    Each value has the scalar function's bits: the clamp and the arithmetic are
    numpy's, rounded as Python's are, and log1p and exp run as math's, in one
    scalar pass, because numpy's differ from math's in the last bit on some times.
    """
    ts = np.asarray(ts, dtype=np.float64)
    if not (ok := (0.0 < ts) & (ts <= 1.0)).all():
        raise InvalidTimes(f"need 0 < t <= 1, got t={ts[~ok][0]}")
    t = np.minimum(ts, T_MAX)  # sigma's and sigma_bar's clamp
    p = np.array(list(map(math.exp, map(math.log1p, (-t).tolist()))))
    return p, 1.0 / (1.0 - t) * p / (1.0 - p)


def forward_sample(x_0: Sequence | Batch, t, rng) -> Sequence | Batch:
    """x_t: x_0 corrupted from time 0 to time t by independent token deletion.

    A Sequence x_0 draws its n content tokens' survival doubles with one
    rng.random(n) call, the doubles (in order) of n scalar rng.random() calls;
    at t = 1 only bos is left and nothing is drawn.  A seqcore.Batch x_0 takes
    each state's survival probability survival_prob(0, t) in t, in place of a
    time, and the doubles already drawn in rng, one per id, bos slots unread,
    and returns a Batch: each state the one its one-state draw on the same
    doubles gives, a token kept below its state's survival.
    """
    if not isinstance(x_0, Batch):
        p = survival_prob(0.0, t)  # checks t too
        if t >= 1.0:
            return Sequence((BOS_ID,))
        doubles = np.zeros(len(x_0))  # bos's slot stays 0, never read
        rng.random(out=doubles[1:])  # its tokens': the doubles of rng.random(n)
        ids = np.array(x_0.ids, dtype=np.int64)
        x_t = forward_sample(Batch(ids, np.array([len(ids)])), [p], doubles)  # the one packed draw
        return Sequence(tuple(x_t.ids.tolist()))
    heads = np.cumsum(x_0.sizes) - x_0.sizes
    keep = rng < np.repeat(t, x_0.sizes)
    keep[heads] = True  # bos never deletes
    return Batch(x_0.ids[keep], np.add.reduceat(keep, heads, dtype=np.int64))


def transition_prob(x_t: Sequence, x_s: Sequence, s: float, t: float) -> float:
    """p_{t|s}(x_t | x_s): survival^kept * deletion^lost * N(x_t, x_s).

    Token counts exclude bos on both sides.  Returns 0.0 when x_t does not
    embed into x_s at all.  A count beyond float64 joins the log terms as log N.
    """
    _check_times(s, t)
    l_s = len(x_s) - 1
    l_t = len(x_t) - 1
    if l_t > l_s:
        return 0.0
    try:
        n = float(dp.linear_count(x_t, x_s, "auto"))
    except BeyondFloat64 as exc:
        n, log_n = None, exc.log_count
    if n == 0.0:
        return 0.0
    p = survival_prob(s, t)
    q = 1.0 - p
    lost = l_s - l_t
    if lost > 0 and q == 0.0:
        return 0.0
    log_prob = l_t * (-(sigma_bar(t) - sigma_bar(s)))
    if lost > 0:
        log_prob += lost * math.log(q)
    if n is None:
        return math.exp(log_prob + log_n)
    return math.exp(log_prob) * n


def forward_rate(y: Sequence, x_t: Sequence, t: float) -> float:
    """Instantaneous rate of the jump y -> x_t (one non-bos token deleted).

    Each of the N(x_t, y) embeddings of x_t marks one deletable position of
    y, and every position deletes at rate sigma(t).
    """
    if not (0.0 <= t < 1.0):
        raise InvalidTimes(f"need 0 <= t < 1, got t={t}")
    if len(y) != len(x_t) + 1:
        raise NotSingleDeletion(
            f"lengths {len(y)} and {len(x_t)} do not differ by exactly one token"
        )
    n = dp.subsequence_count(x_t, y)
    if n == 0:
        raise NotSingleDeletion("x_t does not embed into y")
    return sigma(t) * float(n)
