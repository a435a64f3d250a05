"""Subsequence-counting dynamic programming.

N(x, y) is the number of strictly increasing index tuples embedding x into y.
This module computes, for a pair (x_t, x_0) of bos-prefixed sequences:

* prefix tables   P[i, j] = N(x_t[:i], x_0[:j])
* suffix tables   S[i, j] = N(x_t[i:], x_0[j:])
* insertion-count grids  C[i, v] = N(Ins(x_t, i, v), x_0), where Ins inserts
  token v after position i (gap i, with gap 0 sitting after the bos marker)
* ratio grids     C[i, v] / N(x_t, x_0), the training targets

in three arithmetic domains, tried in this order by the "auto" ops:

* "exact": unsigned 64-bit integers.  A cell of table row j is at most
  C(j, j // 2) < 2**64 for j <= 67, so only later rows check for wrap; no
  product of a prefix and a suffix term exceeds N(x_t, x_0), and grid sums
  are checked only when N * (|x_0| - |x_t|) reaches 2**64.  Overflow raises
  a recoverable error so the caller can rerun in the next domain.
* "float": the exact recurrence in float64, each cell within about
  (|x_0| + |x_t|) * 2**-53 relative of its count.  A count past float64
  becomes inf, and a non-finite count or grid cell raises the same error.
* "log": float64 log-counts with the sentinel LOG_ZERO standing in for
  log(0).  Using a large negative constant instead of -inf keeps log-add-exp
  free of NaNs.

The recurrence updates a whole row of the table at once (vectorized over the
x_t axis) while stepping sequentially along x_0, so the table layout keeps
the x_t axis innermost/contiguous.  One sweep computes prefix tables for a
batch of rows.  The suffix table of a pair is the flipped prefix table of the
reversed pair, so ops that need both tables sweep B pairs followed by their
B reverses as one batch of 2B rows; prefix tables sweep only the pair,
suffix tables only its reverse.  Single-pair counts in the exact and float
domains walk only the cells where x_0[j] == x_t[i]; every other op sweeps.

Grids and ratios fuse the two tables: cell (i, v) sums, over the x_0
positions j holding token v, the count of x_t[:i+1] in x_0[:j] times the
count of x_t[i+1:] in x_0[j+1:].  There are two fuses: _fuse_exact takes a
whole batch in uint64, and _fuse takes one pair in float64 or the log domain.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import BeyondFloat64, NotASubsequence, Overflow, ShapeMismatch, TooLarge

LOG_ZERO = -999999.0

_U64 = np.uint64
_PAD_XT = -1  # never equal to a token or to _PAD_X0
_PAD_X0 = -2
_EXACT_SAFE_ROWS = 67  # C(67, 33) < 2**64 < C(68, 34): rows j <= 67 cannot wrap
# _sweep's arithmetic per domain: (dtype, zero, one, add); a cell adds its
# left neighbour of the previous row where the tokens match
_SWEEP_ARITH = {
    "exact": (_U64, _U64(0), _U64(1), np.add),
    "float": (np.float64, 0.0, 1.0, np.add),
    "log": (np.float64, LOG_ZERO, 0.0, np.logaddexp),
}
# A pair averaging more matching cells per x_0 token than this is swept: a walk
# row (about 22 ns a cell) would cost more than a sweep row (1.7 us or more).
_WALK_MAX_MATCHES_PER_ROW = 64

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
# engine: one sweep computes the prefix tables of a batch of rows

def _sweep(xts: list[np.ndarray], x0s: list[np.ndarray], domain: str, n_pairs: int):
    """Stacked prefix tables for a batch of (x_t, x_0) rows.

    Returns T with shape (m_max+1, R, n_max+1) where
      T[j, r, i] = N(xts[r][:i], x0s[r][:j]).
    Row r belongs to pair r mod n_pairs, the index an overflow is reported
    under, so a reversed pair stacked at row r + n_pairs names pair r.
    Padding rows/columns beyond a row's true lengths hold values that never
    influence the cells within range, because pad tokens match nothing.
    """
    R = len(xts)
    n_max = max(len(x) for x in xts)
    m_max = max(len(x) for x in x0s)

    XT = np.full((R, n_max), _PAD_XT, dtype=np.int64)
    X0 = np.full((m_max, R), _PAD_X0, dtype=np.int64)
    for r, (xt, x0) in enumerate(zip(xts, x0s)):
        XT[r, : len(xt)] = xt
        X0[: len(x0), r] = x0

    # eq[j, r, i] = (x0 token j == xt token i) in row r
    eq = X0[:, :, None] == XT[None, :, :]

    if domain not in _SWEEP_ARITH:
        raise ValueError(f"unknown domain {domain!r}")
    dtype, zero, one, add = _SWEEP_ARITH[domain]
    shape = (m_max + 1, R, n_max + 1)
    # np.zeros leaves pages a failed exact attempt never reaches uncommitted
    T = np.zeros(shape, dtype) if zero == 0 else np.full(shape, zero, dtype)
    T[:, :, 0] = one
    with np.errstate(over="ignore"):  # inf marks an overflowed float cell and stays inf
        for j in range(1, m_max + 1):
            prev, cur = T[j - 1], T[j, :, 1:]
            shifted = np.where(eq[j - 1], prev[:, :-1], zero)
            add(prev[:, 1:], shifted, out=cur)
            if domain == "exact" and j > _EXACT_SAFE_ROWS and (wrapped := cur < shifted).any():
                b = int((np.flatnonzero(wrapped.any(axis=1)) % n_pairs).min())
                raise Overflow(f"pair {b}: subsequence count exceeds uint64; use the log domain")
    return T


def _walk(xt, x0, exact: bool):
    """N(xt, x0) from the cells where x0[j] == xt[i] alone, or None to sweep.

    c[i] = N(xt[:i], x0[:j]) gains c[i - 1] where x0[j] == xt[i - 1], in descending
    i; cells never decrease along x_0, so an int cell reaching 2**64 is the sweep's wrap.
    """
    cut = _WALK_MAX_MATCHES_PER_ROW
    if len(xt) > cut and sum(map(Counter(xt).__getitem__, x0)) > cut * len(x0):
        return None
    at: dict = {}
    for i in range(len(xt) - 1, -1, -1):
        at.setdefault(xt[i], []).append(i)
    c = [1] + [0] * len(xt) if exact else [1.0] + [0.0] * len(xt)
    for j, v in enumerate(x0):
        for i in at.get(v, ()):
            c[i + 1] += c[i]
        if exact and j >= _EXACT_SAFE_ROWS and any(c[i + 1] >> 64 for i in at.get(v, ())):
            raise Overflow("pair 0: subsequence count exceeds uint64; use the log domain")
    return c[-1]


def _per_pair(pairs, vocab_size: int, domain: str, ratios: bool) -> list:
    """Each pair's NRatioMatrix (ratios) or insertion-count grid, from one sweep.

    The sweep runs over the pairs (rows 0..B-1) followed by their reverses
    (rows B..2B-1); for pair b with n = |x_t| and m = |x_0|
      A[j, i]   = N(xt[:i+1], x0[:j])      (prefix terms)
      Bsu[j, i] = N(xt[i+1:], x0[j+1:])    (suffix terms, from the reverse)
    for 0 <= j < m, 0 <= i < n, and n_cell = N(xt, x0).  Two fuses turn them
    into grids: _fuse_exact takes the whole batch at once, _fuse (float and
    log) one pair at a time.  Errors name the pair.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    xts = [_ids(a) for a, _ in pairs]
    x0s = [_ids(b) for _, b in pairs]
    _check_vocab(xts + x0s, vocab_size)
    B = len(pairs)
    T = _sweep(xts + [x[::-1] for x in xts], x0s + [x[::-1] for x in x0s], domain, B)
    if domain == "exact":
        grids = _fuse_exact(T, xts, x0s, vocab_size, ratios)
    else:
        grids = []
        for b, (xt, x0) in enumerate(zip(xts, x0s)):
            n, m = len(xt), len(x0)
            A = T[:m, b, 1 : n + 1]
            # trimmed before the flip, which must not wrap when n or m is 0
            Bsu = T[: m + 1, B + b, : n + 1][m - 1 :: -1, n - 1 :: -1]
            try:
                grids.append(_fuse(A, Bsu, x0, T[m, b, n], vocab_size, domain, ratios))
            except (NotASubsequence, Overflow) as e:
                raise type(e)(f"pair {b}: {e}") from None
    return [NRatioMatrix(g, domain) for g in grids] if ratios else grids


def _fuse_exact(T, xts, x0s, vocab_size: int, ratios: bool) -> list:
    """The exact _per_pair fuse of a whole batch, from its uint64 sweep T.

    Each x_0 position j of each pair b gives the row A[j] * Bsu[j]; the rows,
    sorted by (b, x0[j]), are summed by one reduceat.  A product counts pairs
    of embeddings (xt[:i+1] into x0[:j], xt[i+1:] into x0[j+1:]), each a
    distinct embedding of xt, so it is at most n_cell.  A grid sums to at most
    n_cell * (m - n), so its sums are checked, in 32-bit halves, only when
    that reaches 2**64.
    """
    B = len(xts)
    ns, ms = (np.array([len(x) for x in xs]) for xs in (xts, x0s))
    n_cells = T[ms, np.arange(B), ns]
    pair = np.repeat(np.arange(B), ms)
    j = np.arange(len(pair)) - np.repeat(np.cumsum(ms) - ms, ms)
    keys = pair * vocab_size + np.concatenate(x0s)
    order = np.argsort(keys)
    pair, j, keys = pair[order], j[order], keys[order]
    # suffix columns i >= n index garbage, even wrap negative; their prefix terms are 0
    i = np.arange(T.shape[2] - 1)
    prod = T[j, pair, 1:]
    prod *= T[(ms[pair] - 1 - j)[:, None], (B + pair)[:, None], ns[pair, None] - 1 - i]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    counts = np.zeros((B * vocab_size, len(i)), dtype=_U64)
    counts[keys[starts]] = np.add.reduceat(prod, starts, axis=0)

    bad_sum = np.zeros(B, dtype=bool)
    if np.any(n_cells > np.iinfo(_U64).max // np.maximum(ms - ns, 1).astype(_U64)):
        lo = np.add.reduceat(prod & _U64(0xFFFFFFFF), starts, axis=0)
        hi = np.add.reduceat(prod >> _U64(32), starts, axis=0)
        wrapped = ((hi + (lo >> _U64(32))) >> _U64(32)).any(axis=1)
        bad_sum[keys[starts][wrapped] // vocab_size] = True
    bad = bad_sum | (ratios & (n_cells == 0))
    if bad.any():
        b = int(np.argmax(bad))
        if bad_sum[b]:
            raise Overflow(f"pair {b}: insertion-count sum exceeds uint64; use the log domain")
        raise NotASubsequence(f"pair {b}: N(x_t, x_0) == 0")

    counts = counts.reshape(B, vocab_size, len(i))
    if ratios:
        counts = counts.astype(np.float64) / n_cells.astype(np.float64)[:, None, None]
    # each grid (n, V) is the transpose of a contiguous (V, n) block, as _fuse gives
    return [np.ascontiguousarray(counts[b, :, :n]).T for b, n in enumerate(ns)]


def _fuse(A, Bsu, x0: np.ndarray, n_cell, vocab_size: int, domain: str, ratios: bool) -> np.ndarray:
    """One pair's float or log grid (n, V): insertion counts, or ratios to n_cell.

    Cell (i, v) sums the terms of the x_0 positions j holding token v: the
    products A[j, i] * Bsu[j, i] in float, exp(A + Bsu - shift) in log, where
    shift is log N for ratios and the largest term for counts (all LOG_ZERO
    when every term is dead).  Each cell adds its terms in increasing j: a
    masked axis-0 sum does so row by row, but numpy sums a single column
    pairwise, so n == 1 takes the running sum.  A float cell past float64
    (inf, or NaN from inf * 0) raises Overflow.
    """
    log = domain == "log"
    if ratios and (is_log_zero(n_cell) if log else n_cell == 0):
        raise NotASubsequence("N(x_t, x_0) == 0")
    if ratios and not math.isfinite(n_cell):
        raise Overflow("subsequence count exceeds float64; use the log domain")
    n = A.shape[1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if log:
            terms = A + Bsu  # log products; dead entries ~ 2*LOG_ZERO
            shift = float(n_cell) if ratios else float(terms.max()) if terms.size else 0.0
            if is_log_zero(shift):
                return np.full((n, vocab_size), LOG_ZERO)
            terms = np.exp(terms - shift)
        else:
            terms = A * Bsu
        acc = np.zeros((vocab_size, n))
        for v in np.flatnonzero(np.bincount(x0)):  # the tokens of x_0
            rows = terms[x0 == v]
            acc[v] = rows.sum(axis=0) if n > 1 else rows.cumsum(axis=0)[-1]
        if log:
            return acc.T if ratios else np.where(acc > 0.0, np.log(acc) + shift, LOG_ZERO).T
    if not np.isfinite(acc).all():
        raise Overflow("insertion count exceeds float64; use the log domain")
    return acc.T / float(n_cell) if ratios else acc.T


def _check_vocab(arrs, vocab_size: int) -> None:
    for a in arrs:
        # viewed as uint64 a negative id reads huge, so one max() checks both ends
        if len(a) and int(a.view(_U64).max()) >= vocab_size:
            bad = int(a.min()) if a.min() < 0 else int(a.max())
            raise ShapeMismatch(f"token id {bad} does not fit a vocab of size {vocab_size}")


# ---------------------------------------------------------------------------
# public operations

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


def prefix_table(x_t, x_0, domain: str = "exact") -> np.ndarray:
    """P[i, j] = N(x_t[:i], x_0[:j]), shape (|x_t|+1, |x_0|+1); P[-1, -1] is N(x_t, x_0)."""
    xt, x0 = _ids(x_t), _ids(x_0)
    return _sweep([xt], [x0], domain, 1)[:, 0, :].T.copy()


def suffix_table(x_t, x_0, domain: str = "exact") -> np.ndarray:
    """S[i, j] = N(x_t[i:], x_0[j:]), shape (|x_t|+1, |x_0|+1); S[0, 0] is N(x_t, x_0)."""
    xt, x0 = _ids(x_t), _ids(x_0)
    return _sweep([xt[::-1]], [x0[::-1]], domain, 1)[::-1, 0, ::-1].T.copy()


def subsequence_count(x_t, x_0, domain: str = "exact"):
    """N(x_t, x_0): int in exact mode, float in float mode, log-count float in log mode."""
    xt, x0 = getattr(x_t, "ids", x_t), getattr(x_0, "ids", x_0)
    if domain not in ("exact", "float") or (cell := _walk(xt, x0, domain == "exact")) is None:
        cell = _sweep([_ids(xt)], [_ids(x0)], domain, 1)[-1, 0, -1]
    if not math.isfinite(cell):
        raise Overflow("subsequence count exceeds float64; use the log domain")
    return int(cell) if domain == "exact" else float(cell)


def insertion_counts(x_t, x_0, vocab_size: int, domain: str = "exact") -> np.ndarray:
    """Grid (|x_t|, V) of N(Ins(x_t, i, v), x_0).

    Exact mode returns uint64 counts, float mode float64 counts; log mode
    returns log-counts with LOG_ZERO marking empty cells.
    """
    return batched_insertion_counts([(x_t, x_0)], vocab_size, domain)[0]


def n_ratios(x_t, x_0, vocab_size: int, domain: str = "exact") -> NRatioMatrix:
    """Ratio grid N(Ins(x_t, i, v), x_0) / N(x_t, x_0); needs N > 0."""
    return batched_n_ratios([(x_t, x_0)], vocab_size, domain)[0]


def batched_n_ratios(pairs, vocab_size: int, domain: str = "exact") -> list[NRatioMatrix]:
    """n_ratios over a list of (x_t, x_0) pairs sharing one table sweep.

    Elementwise identical to the per-pair loop (bitwise so in exact mode);
    per-pair errors are re-raised with the offending pair index.
    """
    return _per_pair(pairs, vocab_size, domain, ratios=True)


def batched_insertion_counts(pairs, vocab_size: int, domain: str = "exact") -> list[np.ndarray]:
    """insertion_counts over a batch, sharing one table sweep."""
    return _per_pair(pairs, vocab_size, domain, ratios=False)


def _ladder(op, *args):
    """op(*args, domain) in the first domain of exact, float, log that does not overflow.

    Each retry runs after the handler has exited, so the overflow's
    traceback no longer holds the failed rung's tables alive.
    """
    for domain in ("exact", "float"):
        try:
            return op(*args, domain)
        except Overflow:
            pass
    return op(*args, "log")


def linear_count(x_t, x_0, domain: str):
    """N(x_t, x_0) on the linear scale: an int when exact, else a float.

    "auto" climbs the ladder exact, float, log.  A log count past float64
    raises BeyondFloat64 carrying log N, so no caller sweeps it again.
    """
    if domain == "auto":
        return _ladder(linear_count, x_t, x_0)
    n = subsequence_count(x_t, x_0, domain)
    if domain != "log":
        return n
    try:
        return 0.0 if is_log_zero(n) else math.exp(n)
    except OverflowError:
        raise BeyondFloat64(n) from None


def linear_insertion_counts(x_t, x_0, vocab_size: int, domain: str) -> np.ndarray:
    """insertion_counts on the linear scale: uint64 when exact, else float64.

    Dead log-domain cells read 0.0.  "auto" climbs the ladder exact, float,
    log; a cell beyond float64 raises Overflow.
    """
    if domain == "auto":
        return _ladder(linear_insertion_counts, x_t, x_0, vocab_size)
    grid = insertion_counts(x_t, x_0, vocab_size, domain)
    if domain != "log":
        return grid
    with np.errstate(over="ignore"):
        linear = np.where(is_log_zero(grid), 0.0, np.exp(grid))
    if np.isinf(linear).any():
        raise Overflow(f"insertion count e^{grid.max():.6g} exceeds float64")
    return linear


def n_ratios_auto(x_t, x_0, vocab_size: int) -> NRatioMatrix:
    """Ratios in the first domain of exact, float, log that fits."""
    return _ladder(n_ratios, x_t, x_0, vocab_size)


def batched_n_ratios_auto(pairs, vocab_size: int) -> list[NRatioMatrix]:
    """Batched ratios in the first domain of exact, float, log that fits."""
    return _ladder(batched_n_ratios, pairs, vocab_size)
