"""Training objectives over insertion-score matrices.

Two losses share the same weighting and target ratios:

* dise_loss: score entropy for variable-length generation.  Every matrix
  cell is charged s - r log s + r (log r - 1); cells with a zero target
  contribute their raw score.  Nonnegative, zero exactly at s == r.
* dice_loss: cross entropy for fixed-length generation.  Only cells with a
  positive target contribute r (log r - log s), and the score matrix must
  sum to the number of missing tokens.  Equal to dise_loss whenever that
  normalization holds, so the two optimize the same thing on their shared
  domain.

Both return a LossBreakdown whose total is weight * sum(per_position),
with weight = sigma(t) * survival / (1 - survival) = 1/t (process's schedule).
Both validate their inputs and call loss_from_ratios, which totals
row_loss_sums, the one home of the terms; scorer's training calls it too,
with the target_terms of a step's ratios made once before its params move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dp
from .errors import (
    InvalidTimes,
    NonPositiveScore,
    NormalizationViolation,
    ShapeMismatch,
)
from .process import sigma, sigma_bar
from .seqcore import Sequence

T_MIN = 1e-3  # sampled-time floor; the weight diverges like 1/t at t -> 0

DICE_NORM_TOL = 1e-6


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    per_position: np.ndarray  # per-gap sums, unweighted
    weight: float


def loss_weight(t: float) -> float:
    """sigma(t) * survival(t) / (1 - survival(t)), which is 1/t."""
    if not (0.0 < t <= 1.0):
        raise InvalidTimes(f"need 0 < t <= 1, got t={t}")
    p = math.exp(-sigma_bar(t))
    return sigma(t) * p / (1.0 - p)


def _check_scores(scores, x_t: Sequence) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] != len(x_t):
        raise ShapeMismatch(
            f"score matrix {scores.shape} does not match {len(x_t)} gaps"
        )
    return scores


def target_terms(mode: str, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the mode's terms read of the ratios r alone: (flat indices of r > 0, r there, c there).

    c is r (log r - 1) in dise and log r in dice.  No score enters, so
    training makes them once for a step, whatever the params.
    """
    at = np.flatnonzero(r > 0.0)
    rp = np.take(r, at)
    return at, rp, rp * (np.log(rp) - 1.0) if mode == "dise" else np.log(rp)


def row_loss_sums(mode: str, s: np.ndarray, targets: tuple) -> np.ndarray:
    """Unweighted, unvalidated per-row sums of the mode's terms; rows may stack many pairs.

    targets is target_terms(mode, r) of the ratios r the rows of s are charged against.
    """
    at, rp, c = targets
    sp = np.take(s, at)
    if mode == "dise":
        terms = s.copy()
        terms.reshape(-1)[at] = sp - (rp * np.log(sp) - c)
    else:
        terms = np.zeros(s.shape)
        terms.reshape(-1)[at] = rp * (c - np.log(sp))
    return terms.sum(axis=1)


def loss_from_ratios(mode: str, s: np.ndarray, r: np.ndarray, weight: float) -> LossBreakdown:
    """The mode's loss of one pair's scores s against its ratios r, unvalidated."""
    per_position = row_loss_sums(mode, s, target_terms(mode, r))
    return LossBreakdown(weight * float(per_position.sum()), per_position, weight)


def dise_loss(scores, x_t: Sequence, x_0: Sequence, t: float) -> LossBreakdown:
    """Insertion score entropy of one (x_t, x_0) pair.

    Scores must be positive wherever the target ratio is, and never
    negative; zero scores are fine on zero-target cells (the oracle's
    matrices put exact zeros there).
    """
    s = _check_scores(scores, x_t)
    w = loss_weight(t)
    r = dp.n_ratios_auto(x_t, x_0, s.shape[1]).ratios
    if np.any(s < 0.0):
        raise NonPositiveScore("negative score")
    if np.any(s[r > 0.0] <= 0.0):
        raise NonPositiveScore("zero score at a cell with a positive target")
    return loss_from_ratios("dise", s, r, w)


def dice_loss(scores, x_t: Sequence, x_0: Sequence, t: float) -> LossBreakdown:
    """Cross entropy of one pair under fixed final length.

    The score matrix must sum to |x_0| - |x_t| (content tokens): that is
    exactly what the target ratios sum to, and the equality with dise_loss
    rests on it.
    """
    s = _check_scores(scores, x_t)
    w = loss_weight(t)
    missing = x_0.content_len - x_t.content_len
    if abs(float(s.sum()) - missing) > DICE_NORM_TOL:
        raise NormalizationViolation(
            f"scores sum to {float(s.sum())}, expected {missing}"
        )
    r = dp.n_ratios_auto(x_t, x_0, s.shape[1]).ratios
    if np.any(s[r > 0.0] <= 0.0):
        raise NonPositiveScore("zero score at a cell with a positive target")
    return loss_from_ratios("dice", s, r, w)

