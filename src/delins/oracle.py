"""Exact brute-force references over tiny enumerable instances.

Everything in this module is computed by explicit summation over a small,
fully enumerated state space: marginals of the deletion process, insertion
scores, concrete scores, and the score-entropy losses.  The other modules
are tested against these values.  Hard size bounds raise TooLarge rather
than silently approximating.

Time enters through process's fixed schedule; the loss weights are written
out here, not borrowed from objective, so the oracle stays independent.

All arithmetic is float64.  The subsequence counts feeding it are exact
integers, so the only rounding is in the final products and sums.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import dp
from .errors import (
    ConfigError,
    InvalidTimes,
    NonPositiveScore,
    NotSingleDeletion,
    TooLarge,
    ZeroDenominator,
)
from .process import forward_rate, sigma, sigma_bar, transition_prob
from .seqcore import BOS_ID, Sequence

MAX_CONTENT_LEN = 4  # per support sequence, excluding bos
MAX_TOKEN_ID = 3     # bos plus at most three content symbols
MAX_ENUM_LEN = 10    # full length bound for subsequence_enumeration


@dataclass(frozen=True)
class TinyDistribution:
    """A named data distribution with fully enumerable support."""

    support: tuple[tuple[Sequence, float], ...]

    def __post_init__(self):
        seqs = [s for s, _ in self.support]
        probs = [p for _, p in self.support]
        if not self.support:
            raise ConfigError("empty support")
        if len(set(seqs)) != len(seqs):
            raise ConfigError("support sequences must be distinct")
        if any(p <= 0 for p in probs):
            raise ConfigError("support probabilities must be positive")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ConfigError(f"support probabilities sum to {sum(probs)}, not 1")
        for s in seqs:
            if s.content_len > MAX_CONTENT_LEN:
                raise TooLarge(f"support sequence has {s.content_len} content tokens; max {MAX_CONTENT_LEN}")
            if s.ids and max(s.ids) > MAX_TOKEN_ID:
                raise TooLarge(f"token id {max(s.ids)} exceeds {MAX_TOKEN_ID}")

    @property
    def vocab_size(self) -> int:
        return max(max(s.ids) for s, _ in self.support) + 1

    @staticmethod
    def uniform(seqs) -> "TinyDistribution":
        seqs = list(seqs)
        return TinyDistribution(tuple((s, 1.0 / len(seqs)) for s in seqs))


def subsequence_enumeration(x_s: Sequence) -> dict[tuple[int, ...], int]:
    """Every distinct subsequence of x_s (bos kept) with its embedding count."""
    if len(x_s) > MAX_ENUM_LEN:
        raise TooLarge(f"|x_s| = {len(x_s)} exceeds {MAX_ENUM_LEN}")
    content = x_s.content
    out: dict[tuple[int, ...], int] = {}
    for r in range(len(content) + 1):
        for keep in itertools.combinations(range(len(content)), r):
            ids = (BOS_ID,) + tuple(content[i] for i in keep)
            out[ids] = out.get(ids, 0) + 1
    return out


def reachable_states(dist: TinyDistribution) -> list[Sequence]:
    """All states the forward process can occupy, any 0 < t < 1."""
    states: set[tuple[int, ...]] = set()
    for x_0, _ in dist.support:
        states.update(subsequence_enumeration(x_0))
    return [Sequence(ids) for ids in sorted(states, key=lambda s: (len(s), s))]


def insertion_targets(x_t: Sequence, vocab_size: int) -> list[Sequence]:
    """Distinct sequences reachable from x_t by one insertion."""
    seen: set[tuple[int, ...]] = set()
    out = []
    for i in range(len(x_t)):
        for v in range(1, vocab_size):
            y = x_t.insert_after(i, v)
            if y.ids not in seen:
                seen.add(y.ids)
                out.append(y)
    return out


def exact_marginal(dist: TinyDistribution, x: Sequence, t: float) -> float:
    """p_t(x) = sum over the support of p_0(x_0) * p_{t|0}(x | x_0)."""
    if not (0.0 < t <= 1.0):
        raise InvalidTimes(f"need 0 < t <= 1, got t={t}")
    if t == 1.0:
        # the empty state absorbs everything
        return 1.0 if len(x) == 1 else 0.0
    return float(sum(p0 * transition_prob(x, x_0, 0.0, t) for x_0, p0 in dist.support))


@functools.lru_cache(maxsize=65536)
def _insertion_matrix_cached(dist: TinyDistribution, x_t: Sequence, t: float):
    """The insertion matrix, or None where x_t is unreachable at t, so that is cached too."""
    V = dist.vocab_size
    q = 1.0 - math.exp(-sigma_bar(t))
    num = np.zeros((len(x_t), V))
    den = 0.0
    grids = dp.batched_insertion_counts([(x_t, x_0) for x_0, _ in dist.support], V)
    for (x_0, p0), counts in zip(dist.support, grids):
        w = p0 * q ** x_0.content_len
        num += w * counts.astype(np.float64)
        den += w * float(dp.subsequence_count(x_t, x_0))
    if den == 0.0:
        return None
    mat = num / den
    mat.setflags(write=False)
    return mat


def exact_insertion_matrix(dist: TinyDistribution, x_t: Sequence, t: float) -> np.ndarray:
    """All insertion scores for x_t at once, shape (|x_t|, vocab size).

    Entry (i, v) is the ratio of two support expectations, each weighted by
    (1 - survival)^content_len: expected count of the insertion result over
    expected count of x_t itself.  Read-only; cached per (dist, x_t, t).
    """
    if not (0.0 < t < 1.0):
        raise InvalidTimes(f"need 0 < t < 1, got t={t}")
    if (mat := _insertion_matrix_cached(dist, x_t, t)) is None:
        raise ZeroDenominator(f"state {x_t.ids} is unreachable at t={t}")
    return mat


def _single_insertion_parts(x_t: Sequence, y: Sequence) -> tuple[int, list[int]]:
    """(inserted token, gaps i with Ins(x_t, i, v) == y); NotSingleDeletion otherwise."""
    if len(y) != len(x_t) + 1:
        raise NotSingleDeletion("lengths do not differ by one")
    extra = list(y.content)
    for tok in x_t.content:
        try:
            extra.remove(tok)
        except ValueError:
            raise NotSingleDeletion("x_t is not contained in y") from None
    v = extra[0]
    gaps = [i for i in range(len(x_t)) if x_t.insert_after(i, v).ids == y.ids]
    if not gaps:
        raise NotSingleDeletion("y is not a single insertion into x_t")
    return v, gaps


def exact_concrete_score(dist: TinyDistribution, x_t: Sequence, y: Sequence, t: float) -> float:
    """p_t(y)/p_t(x_t), cross-checked against the insertion-score recast.

    The recast multiplies the mean insertion score over the gaps producing y
    by survival/(1 - survival); both routes must agree to 1e-12.
    """
    if not (0.0 < t < 1.0):
        raise InvalidTimes(f"need 0 < t < 1, got t={t}")
    v, gaps = _single_insertion_parts(x_t, y)
    m_x = exact_marginal(dist, x_t, t)
    if m_x == 0.0:
        raise ZeroDenominator(f"state {x_t.ids} is unreachable at t={t}")
    direct = exact_marginal(dist, y, t) / m_x

    p = math.exp(-sigma_bar(t))
    mat = exact_insertion_matrix(dist, x_t, t)
    recast = (p / (1.0 - p)) * float(np.mean(mat[gaps, v]))
    if not abs(direct - recast) <= 1e-12 * max(1.0, abs(direct)):  # NaN fails too
        raise AssertionError(f"score recast mismatch: {direct} vs {recast}")
    return direct


def concrete_provider_from_matrix(matrix_provider):
    """Adapt a per-state score matrix into per-(x_t, y) concrete scores.

    matrix_provider(x_t, t) -> (|x_t|, V) array.  The concrete score for y
    is survival/(1-survival) times the mean matrix entry over the gaps whose
    insertion yields y.
    """

    def provider(x_t: Sequence, y: Sequence, t: float) -> float:
        v, gaps = _single_insertion_parts(x_t, y)
        p = math.exp(-sigma_bar(t))
        mat = matrix_provider(x_t, t)
        return (p / (1.0 - p)) * float(np.mean(np.asarray(mat)[gaps, v]))

    return provider


def _bracket(s: float, r: float) -> float:
    """Score-entropy integrand: s - r log s + r (log r - 1); 0 at s == r."""
    if r == 0.0:
        return s
    if s <= 0.0:
        raise NonPositiveScore(f"score {s} with positive target {r}")
    return s - r * math.log(s) + r * (math.log(r) - 1.0)


def exact_dse(dist: TinyDistribution, score_provider, t: float) -> float:
    """Denoising score entropy under exact enumeration.

    score_provider(x_t, y, t) plays the model: it returns the concrete score
    for inserting one token into x_t to reach y.  The loss integrand for a
    pair is weighted by the forward rate of the deletion y -> x_t, and the
    target ratio r is the closed-form posterior ratio given x_0.
    """
    if not (0.0 < t < 1.0):
        raise InvalidTimes(f"need 0 < t < 1, got t={t}")
    p = math.exp(-sigma_bar(t))
    prefactor = p / (1.0 - p)
    V = dist.vocab_size
    total = 0.0
    for x_0, p0 in dist.support:
        for x_t in reachable_states(dist):
            w_t = transition_prob(x_t, x_0, 0.0, t)
            if w_t == 0.0:
                continue
            n_t = dp.subsequence_count(x_t, x_0)
            for y in insertion_targets(x_t, V):
                rate = forward_rate(y, x_t, t)
                r = prefactor * dp.subsequence_count(y, x_0) / n_t
                s = score_provider(x_t, y, t)
                total += p0 * w_t * rate * _bracket(s, r)
    return total


def exact_dise(dist: TinyDistribution, matrix_provider, t: float) -> float:
    """Insertion-score entropy under exact enumeration.

    matrix_provider(x_t, t) plays the model: a (|x_t|, V) matrix of
    insertion scores.  Each matrix cell is compared against the exact count
    ratio for (x_t, x_0), weighted by sigma(t) * survival/(1-survival).
    """
    if not (0.0 < t < 1.0):
        raise InvalidTimes(f"need 0 < t < 1, got t={t}")
    p = math.exp(-sigma_bar(t))
    weight = sigma(t) * p / (1.0 - p)
    V = dist.vocab_size
    total = 0.0
    for x_0, p0 in dist.support:
        for x_t in reachable_states(dist):
            w_t = transition_prob(x_t, x_0, 0.0, t)
            if w_t == 0.0:
                continue
            ratios = dp.n_ratios(x_t, x_0, V).ratios
            mat = np.asarray(matrix_provider(x_t, t))
            inner = 0.0
            for i in range(len(x_t)):
                for v in range(1, V):
                    inner += _bracket(float(mat[i, v]), float(ratios[i, v]))
            total += p0 * w_t * weight * inner
    return total
