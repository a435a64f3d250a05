"""Subsequence-counting dynamic programming.

N(x, y) is the number of strictly increasing index tuples embedding x into y.
This module computes, for a pair (x_t, x_0) of bos-prefixed sequences:

* prefix tables   P[i, j] = N(x_t[:i], x_0[:j])
* suffix tables   S[i, j] = N(x_t[i:], x_0[j:])
* insertion-count grids  C[i, v] = N(Ins(x_t, i, v), x_0), where Ins inserts
  token v after position i (gap i, with gap 0 sitting after the bos marker)
* ratio grids     C[i, v] / N(x_t, x_0), the training targets

in two arithmetic domains:

* "exact": unsigned 64-bit integers with checked arithmetic.  Overflow raises
  a recoverable error so the caller can rerun in the log domain.
* "log": float64 log-counts with the sentinel LOG_ZERO standing in for
  log(0).  Using a large negative constant instead of -inf keeps log-add-exp
  free of NaNs.

The recurrence updates a whole row of the table at once (vectorized over the
x_t axis) while stepping sequentially along x_0, so the table layout keeps
the x_t axis innermost/contiguous.  Both tables of a pair, and all pairs of a
batch, share one such sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotASubsequence, Overflow, ShapeMismatch, TooLarge

LOG_ZERO = -999999.0

_U64 = np.uint64
_PAD_XT = -1  # never equal to a token or to _PAD_X0
_PAD_X0 = -2

BRUTE_MAX_SUB = 12
BRUTE_MAX_SEQ = 14


def _ids(seq) -> np.ndarray:
    """Sequence | iterable of ints -> int64 array (bos included)."""
    return np.asarray(getattr(seq, "ids", seq), dtype=np.int64)


def is_log_zero(x) -> np.ndarray | bool:
    """True where a log-domain cell represents an exact zero count.

    Dead cells drift upward from LOG_ZERO by ln(2) per log-add-exp, so the
    test uses a wide margin rather than equality.
    """
    return x < LOG_ZERO * 0.5


# ---------------------------------------------------------------------------
# engine: one sweep computes forward and reversed prefix tables for a batch

def _combined_tables(xts: list[np.ndarray], x0s: list[np.ndarray], domain: str):
    """Stacked DP tables for a batch of (x_t, x_0) pairs.

    Returns T with shape (m_max+1, B, 2, n_max+1) where
      T[j, b, 0, i] = N(xt_b[:i], x0_b[:j])          (prefix lane)
      T[j, b, 1, i] = N(rev(xt_b)[:i], rev(x0_b)[:j]) (reversed lane; the
                      suffix table is a flip of this one)
    Padding rows/columns beyond a pair's true lengths hold values that never
    influence the cells within range, because pad tokens match nothing.
    """
    B = len(xts)
    n_max = max(len(x) for x in xts)
    m_max = max(len(x) for x in x0s)

    XT = np.full((B, 2, n_max), _PAD_XT, dtype=np.int64)
    X0 = np.full((B, 2, m_max), _PAD_X0, dtype=np.int64)
    for b, (xt, x0) in enumerate(zip(xts, x0s)):
        XT[b, 0, : len(xt)] = xt
        XT[b, 1, : len(xt)] = xt[::-1]
        X0[b, 0, : len(x0)] = x0
        X0[b, 1, : len(x0)] = x0[::-1]

    # eq[b, j, l, i] = (x0 token j == xt token i) in lane l
    eq = (X0[:, :, :, None] == XT[:, :, None, :]).transpose(0, 2, 1, 3)

    if domain == "exact":
        T = np.zeros((m_max + 1, B, 2, n_max + 1), dtype=_U64)
        T[:, :, :, 0] = 1
        for j in range(1, m_max + 1):
            prev = T[j - 1]
            add = np.where(eq[:, j - 1], prev[..., :-1], _U64(0))
            cur = prev[..., 1:] + add
            wrapped = cur < add
            if wrapped.any():
                b = int(np.argwhere(wrapped.any(axis=(1, 2)))[0, 0])
                raise Overflow(f"pair {b}: subsequence count exceeds uint64; use the log domain")
            T[j, :, :, 1:] = cur
        return T

    if domain == "log":
        T = np.full((m_max + 1, B, 2, n_max + 1), LOG_ZERO, dtype=np.float64)
        T[:, :, :, 0] = 0.0
        for j in range(1, m_max + 1):
            prev = T[j - 1]
            shifted = np.where(eq[:, j - 1], prev[..., :-1], LOG_ZERO)
            T[j, :, :, 1:] = np.logaddexp(prev[..., 1:], shifted)
        return T

    raise ValueError(f"unknown domain {domain!r}")


def _pair_views(T, b: int, n: int, m: int):
    """(prefix, reversed) j-major views for pair b, trimmed to true lengths."""
    P_ji = T[: m + 1, b, 0, : n + 1]  # P_ji[j, i] = N(xt[:i], x0[:j])
    R_ji = T[: m + 1, b, 1, : n + 1]
    return P_ji, R_ji


def _fuse_exact(P_ji, R_ji, x0: np.ndarray, vocab_size: int) -> np.ndarray:
    """Insertion-count grid (n, V) from the two tables, checked uint64."""
    m = len(x0)
    n = P_ji.shape[1] - 1
    A = P_ji[:-1, 1:]                      # A[j, i] = N(xt[:i+1], x0[:j])
    Bsu = R_ji[m - 1 :: -1, n - 1 :: -1]   # Bsu[j, i] = N(xt[i+1:], x0[j+1:])
    prod = A * Bsu
    nz = A != 0
    if np.any(nz & (prod // np.where(nz, A, _U64(1)) != Bsu)):
        raise Overflow("insertion-count product exceeds uint64; use the log domain")
    counts_v = np.zeros((vocab_size, n), dtype=_U64)
    for j in range(m):  # checked accumulation, one x_0 position at a time
        row = counts_v[x0[j]]
        new = row + prod[j]
        if (new < prod[j]).any():
            raise Overflow("insertion-count sum exceeds uint64; use the log domain")
        counts_v[x0[j]] = new
    return counts_v.T  # (n, V)


def _fuse_log_counts(P_ji, R_ji, x0: np.ndarray, vocab_size: int) -> np.ndarray:
    """Log-domain insertion-count grid (n, V), LOG_ZERO for empty cells."""
    m = len(x0)
    n = P_ji.shape[1] - 1
    A = P_ji[:-1, 1:]
    Bsu = R_ji[m - 1 :: -1, n - 1 :: -1]
    terms = A + Bsu  # log products; dead entries ~ 2*LOG_ZERO
    shift = float(terms.max()) if terms.size else 0.0
    if is_log_zero(shift):
        return np.full((n, vocab_size), LOG_ZERO)
    lin = np.exp(terms - shift)
    acc = np.zeros((vocab_size, n))
    np.add.at(acc, x0, lin)
    with np.errstate(divide="ignore"):
        out = np.where(acc > 0.0, np.log(acc) + shift, LOG_ZERO)
    return out.T


def _fuse_log_ratios(P_ji, R_ji, x0: np.ndarray, vocab_size: int, log_n: float) -> np.ndarray:
    """Ratio grid (n, V) = exp(prefix + suffix - log N), accumulated densely."""
    m = len(x0)
    n = P_ji.shape[1] - 1
    A = P_ji[:-1, 1:]
    Bsu = R_ji[m - 1 :: -1, n - 1 :: -1]
    lin = np.exp(A + Bsu - log_n)  # each term <= the ratio sum, never overflows
    acc = np.zeros((vocab_size, n))
    np.add.at(acc, x0, lin)
    return acc.T


def _check_vocab(arrs, vocab_size: int) -> None:
    for a in arrs:
        if len(a) and int(a.max()) >= vocab_size:
            raise ShapeMismatch(
                f"token id {int(a.max())} does not fit a vocab of size {vocab_size}"
            )


# ---------------------------------------------------------------------------
# public operations

@dataclass
class PrefixTable:
    """values[i, j] = N(x_t[:i], x_0[:j]); uint64 or log-domain float64."""

    values: np.ndarray
    domain: str

    @property
    def final(self):
        return self.values[-1, -1]


@dataclass
class SuffixTable:
    """values[i, j] = N(x_t[i:], x_0[j:]); uint64 or log-domain float64."""

    values: np.ndarray
    domain: str

    @property
    def final(self):
        return self.values[0, 0]


@dataclass
class NRatioMatrix:
    """Training targets: ratios[i, v] = N(Ins(x_t, i, v), x_0) / N(x_t, x_0).

    Row i is the gap after position i of x_t (row 0 = the bos gap); columns
    run over the full vocabulary.  The bos column is structurally zero.
    """

    ratios: np.ndarray  # (|x_t|, V) float64
    domain: str

    @property
    def grand_sum(self) -> float:
        return float(self.ratios.sum())


def brute_count(sub, seq) -> int:
    """N(sub, seq) by direct enumeration of strictly increasing index tuples.

    The reference everything else is tested against; deliberately DP-free.
    """
    s = tuple(getattr(sub, "ids", sub))
    q = tuple(getattr(seq, "ids", seq))
    if len(s) > BRUTE_MAX_SUB or len(q) > BRUTE_MAX_SEQ:
        raise TooLarge(
            f"brute_count bounds are |sub| <= {BRUTE_MAX_SUB}, |seq| <= {BRUTE_MAX_SEQ}"
        )

    def rec(si: int, lo: int) -> int:
        if si == len(s):
            return 1
        total = 0
        # highest start index that still leaves room for the rest of sub
        for j in range(lo, len(q) - (len(s) - si) + 1):
            if q[j] == s[si]:
                total += rec(si + 1, j + 1)
        return total

    return rec(0, 0)


def prefix_table(x_t, x_0, domain: str = "exact") -> PrefixTable:
    """Full prefix-count table; cell (|x_t|, |x_0|) is N(x_t, x_0)."""
    xt, x0 = _ids(x_t), _ids(x_0)
    T = _combined_tables([xt], [x0], domain)
    P_ji, _ = _pair_views(T, 0, len(xt), len(x0))
    return PrefixTable(P_ji.T.copy(), domain)


def suffix_table(x_t, x_0, domain: str = "exact") -> SuffixTable:
    """Full suffix-count table; cell (0, 0) is N(x_t, x_0)."""
    xt, x0 = _ids(x_t), _ids(x_0)
    T = _combined_tables([xt], [x0], domain)
    _, R_ji = _pair_views(T, 0, len(xt), len(x0))
    return SuffixTable(R_ji[::-1, ::-1].T.copy(), domain)


def subsequence_count(x_t, x_0, domain: str = "exact"):
    """N(x_t, x_0): int in exact mode, log-count float in log mode."""
    xt, x0 = _ids(x_t), _ids(x_0)
    T = _combined_tables([xt], [x0], domain)
    cell = T[len(x0), 0, 0, len(xt)]
    return int(cell) if domain == "exact" else float(cell)


def insertion_counts(x_t, x_0, vocab_size: int, domain: str = "exact") -> np.ndarray:
    """Grid (|x_t|, V) of N(Ins(x_t, i, v), x_0).

    Exact mode returns uint64 counts; log mode returns log-counts with
    LOG_ZERO marking empty cells.
    """
    xt, x0 = _ids(x_t), _ids(x_0)
    _check_vocab([xt, x0], vocab_size)
    T = _combined_tables([xt], [x0], domain)
    P_ji, R_ji = _pair_views(T, 0, len(xt), len(x0))
    if domain == "exact":
        return _fuse_exact(P_ji, R_ji, x0, vocab_size)
    return _fuse_log_counts(P_ji, R_ji, x0, vocab_size)


def n_ratios(x_t, x_0, vocab_size: int, domain: str = "exact") -> NRatioMatrix:
    """Ratio grid N(Ins(x_t, i, v), x_0) / N(x_t, x_0); needs N > 0."""
    xt, x0 = _ids(x_t), _ids(x_0)
    _check_vocab([xt, x0], vocab_size)
    T = _combined_tables([xt], [x0], domain)
    return _ratios_from_tables(T, 0, xt, x0, vocab_size, domain)


def _ratios_from_tables(T, b: int, xt, x0, vocab_size: int, domain: str) -> NRatioMatrix:
    P_ji, R_ji = _pair_views(T, b, len(xt), len(x0))
    n_cell = P_ji[len(x0), len(xt)]
    if domain == "exact":
        if n_cell == 0:
            raise NotASubsequence("N(x_t, x_0) == 0")
        counts = _fuse_exact(P_ji, R_ji, x0, vocab_size)
        return NRatioMatrix(counts.astype(np.float64) / float(n_cell), domain)
    if is_log_zero(n_cell):
        raise NotASubsequence("N(x_t, x_0) == 0")
    return NRatioMatrix(_fuse_log_ratios(P_ji, R_ji, x0, vocab_size, float(n_cell)), domain)


def batched_n_ratios(pairs, vocab_size: int, domain: str = "exact") -> list[NRatioMatrix]:
    """n_ratios over a list of (x_t, x_0) pairs sharing one table sweep.

    Elementwise identical to the per-pair loop (bitwise so in exact mode);
    per-pair errors are re-raised with the offending pair index.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    xts = [_ids(a) for a, _ in pairs]
    x0s = [_ids(b) for _, b in pairs]
    _check_vocab(xts + x0s, vocab_size)
    T = _combined_tables(xts, x0s, domain)
    out = []
    for b, (xt, x0) in enumerate(zip(xts, x0s)):
        try:
            out.append(_ratios_from_tables(T, b, xt, x0, vocab_size, domain))
        except (NotASubsequence, Overflow) as e:
            raise type(e)(f"pair {b}: {e}") from None
    return out


def batched_insertion_counts(pairs, vocab_size: int, domain: str = "exact") -> list[np.ndarray]:
    """insertion_counts over a batch, sharing one table sweep."""
    pairs = list(pairs)
    if not pairs:
        return []
    xts = [_ids(a) for a, _ in pairs]
    x0s = [_ids(b) for _, b in pairs]
    _check_vocab(xts + x0s, vocab_size)
    T = _combined_tables(xts, x0s, domain)
    out = []
    for b, (xt, x0) in enumerate(zip(xts, x0s)):
        P_ji, R_ji = _pair_views(T, b, len(xt), len(x0))
        try:
            if domain == "exact":
                out.append(_fuse_exact(P_ji, R_ji, x0, vocab_size))
            else:
                out.append(_fuse_log_counts(P_ji, R_ji, x0, vocab_size))
        except Overflow as e:
            raise Overflow(f"pair {b}: {e}") from None
    return out


def _exact_else_log(op, *args):
    """op(*args, "exact"), or op(*args, "log") if uint64 overflows: the one fallback."""
    try:
        return op(*args, "exact")
    except Overflow:
        return op(*args, "log")


def linear_count(x_t, x_0, domain: str):
    """N(x_t, x_0) on the linear scale: an int when exact, a float via the log domain.

    "auto" is exact, falling back to the log domain on overflow.
    """
    if domain == "auto":
        return _exact_else_log(linear_count, x_t, x_0)
    n = subsequence_count(x_t, x_0, domain)
    if domain == "exact":
        return n
    return 0.0 if is_log_zero(n) else math.exp(n)


def n_ratios_auto(x_t, x_0, vocab_size: int) -> NRatioMatrix:
    """Exact ratios, falling back to the log domain on overflow."""
    return _exact_else_log(n_ratios, x_t, x_0, vocab_size)


def batched_n_ratios_auto(pairs, vocab_size: int) -> list[NRatioMatrix]:
    """Exact batched ratios, falling back to the log domain on overflow."""
    return _exact_else_log(batched_n_ratios, pairs, vocab_size)
