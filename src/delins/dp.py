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
  C(j, j // 2) < 2**64 for j <= EXACT_SAFE_ROWS, so only later rows check for
  wrap; no product of a prefix and a suffix term exceeds N(x_t, x_0), and grid
  sums are checked only when N * (|x_0| - |x_t|) reaches 2**64.  Overflow
  raises a recoverable error so the caller can rerun in the next domain.
* "float": the exact recurrence in float64, each cell within about
  (|x_0| + |x_t|) * 2**-53 relative of its count.  A count past float64
  becomes inf, and a non-finite count or grid cell raises the same error.
* "log": float64 log-counts with the sentinel LOG_ZERO standing in for
  log(0).  Using a large negative constant instead of -inf keeps log-add-exp
  free of NaNs.

The recurrence updates a whole row at once while stepping along x_0.  One row
driver steps every sweep: a pair's table, a count's single row and a batch's
lockstep lanes alike.  A row holds lanes end to end, each one pad cell and its
x_t, so no cell is padding.  The suffix table of a pair is the flipped prefix
table of the reversed pair.  Single-pair counts in the exact and float domains
walk only the cells where x_0[j] == x_t[i]; every other op sweeps, a count
through one row.

Grids and ratios fuse the two tables: cell (i, v) sums, over the x_0 positions
j holding token v, N(x_t[:i+1], x_0[:j]) * N(x_t[i+1:], x_0[j+1:]).  A batch
sweeps its pairs and their reverses in lockstep and meets them in the middle, as
Hirschberg's LCS does (CACM 18(6), 1975), so its terms take one table's memory.
Its ratio grids come back packed as rows of one array (NRatioBatch), the form
the scorer's training step reads them in.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import BeyondFloat64, NotASubsequence, Overflow, ShapeMismatch, TooLarge
from .seqcore import Batch, PairBatch

LOG_ZERO = -999999.0

_U64 = np.uint64
_PAD_XT = -1  # never equal to a token, nor to an x_0 pad (the vocab size)
# C(67, 33) < 2**64 < C(68, 34): exact rows j <= 67 cannot wrap.  So no exact op overflows on
# an x_0 of at most 67 ids (bos included): each grid cell N(Ins(x_t, i, v), x_0) <= C(66, 33).
EXACT_SAFE_ROWS = 67
_U64_WRAP = "pair {}: subsequence count exceeds uint64; use the log domain"
_F64_OVER = "subsequence count exceeds float64; use the log domain"
# _rows' arithmetic per domain: (dtype, zero, one, add); a cell adds its
# left neighbour of the previous row where the tokens match
_SWEEP_ARITH = {
    "exact": (_U64, _U64(0), _U64(1), np.add),
    "float": (np.float64, 0.0, 1.0, np.add),
    "log": (np.float64, LOG_ZERO, 0.0, np.logaddexp),
}
# A pair averaging more matching cells per x_0 token than this is swept: a walk
# row (about 22 ns a cell) would cost more than a sweep row (1.7 us or more).
_WALK_MAX_MATCHES_PER_ROW = 64
_BLOCK = 64  # rows whose sweep masks, or fuse indices, are made in one call

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
# engine: one row driver makes the prefix tables of every sweep

def _start(shape, domain: str) -> np.ndarray:
    """Prefix-table rows before the sweep: cell 0, an empty x_t prefix, counts 1."""
    if domain not in _SWEEP_ARITH:
        raise ValueError(f"unknown domain {domain!r}")
    dtype, zero, one, _ = _SWEEP_ARITH[domain]
    # np.zeros leaves pages a failed exact attempt never reaches uncommitted
    T = np.zeros(shape, dtype) if zero == 0 else np.full(shape, zero, dtype)
    T[..., 0] = one
    return T


def _rows(T: np.ndarray, xt: np.ndarray, x0: np.ndarray, lanes: np.ndarray, domain: str):
    """Make row k of every lane's prefix table in T for k = 1..len(x0), yielding k after each.

    xt is one row of cells: the lanes end to end, each its pad cell and its x_t.  It splits
    into chunks of g cells (g divides every lane's width), chunk c in lane lanes[c], and
    x0[k - 1] holds each lane's token k.  Slot k of T holds row k; rows past the last slot
    step in place in it.  A cell adds its left neighbour of the previous row where its lane's
    token matches its own, never at a pad.  Masks come _BLOCK rows to a compare, or one row
    for one lane, which then needs no ufunc buffer.  An exact row k > 67 that wraps raises,
    naming its lowest wrapping pair: lanes r and L - 1 - r are one pair.  Float cells past
    float64 become inf, so callers ignore overflow warnings.
    """
    (_, zero, _, add), last, L = _SWEEP_ARITH[domain], len(T) - 1, x0.shape[1]
    g, block = len(xt) // len(lanes), _BLOCK if L > 1 else 1
    for k0 in range(0, len(x0), block):
        masks = x0[k0 : k0 + block].take(lanes, axis=1)[:, :, None] == xt.reshape(-1, g)
        for k, mask in enumerate(masks.reshape(-1, len(xt))[:, 1:], k0 + 1):
            prev, cur = T[min(k - 1, last)], T[min(k, last)]
            shifted = np.where(mask, prev[:-1], zero)
            add(prev[1:], shifted, out=cur[1:])
            if domain == "exact" and k > EXACT_SAFE_ROWS and (wrapped := cur[1:] < shifted).any():
                hit = lanes[(np.flatnonzero(wrapped) + 1) // g]
                raise Overflow(_U64_WRAP.format(int(np.minimum(hit, L - 1 - hit).min())))
            yield k


def _sweep(xt: np.ndarray, x0: np.ndarray, domain: str, last_only: bool = False) -> np.ndarray:
    """The prefix table of one pair, T[j, i] = N(xt[:i], x0[:j]), shape (|x0|+1, |xt|+1).

    last_only: every row steps in place in one slot, and the last, T[|x0|], is returned alone.
    A float count raises at its first row whose count N(xt, x0[:j]) is inf: counts never
    decrease along x_0, so no later row can bring it back.
    """
    T = _start((1 if last_only else len(x0) + 1, len(xt) + 1), domain)
    with np.errstate(over="ignore"):  # inf marks an overflowed float cell and stays inf
        for _ in _rows(T, np.concatenate(([_PAD_XT], xt)), x0[:, None], np.zeros(1, np.intp), domain):
            if last_only and domain == "float" and not math.isfinite(T[0, -1]):
                raise Overflow(_F64_OVER)
    return T[0] if last_only else T


def _check_ids(batch: Batch, vocab_size: int) -> None:
    """Refuse an id outside the vocab, naming the first such state's min id if negative, else its max."""
    flat, lens = batch.ids, batch.sizes
    # viewed as uint64 a negative id reads huge, so one max() checks both ends
    if int(flat.view(_U64).max(initial=0)) >= vocab_size:
        b = np.searchsorted(np.cumsum(lens), np.argmax(flat.view(_U64) >= vocab_size), side="right")
        a = flat[lens[:b].sum() : lens[: b + 1].sum()]
        bad = int(a.min()) if a.min() < 0 else int(a.max())
        raise ShapeMismatch(f"token id {bad} does not fit a vocab of size {vocab_size}")


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
        if exact and j >= EXACT_SAFE_ROWS and any(c[i + 1] >> 64 for i in at.get(v, ())):
            raise Overflow(_U64_WRAP.format(0))
    return c[-1]


def lockstep_table_shape(xt_sizes, m_max: int) -> tuple[int, int]:
    """The lockstep table's shape for pairs of these x_t sizes and x_0 at most m_max long:
    rows 0..ceil(m_max / 2) of a lane of |x_t| + 1 cells per pair and per reverse; 8 B a cell."""
    return (m_max + 1) // 2 + 1, 2 * int(np.sum(xt_sizes) + len(xt_sizes))


def _per_pair(pairs, vocab_size: int, domain: str, ratios: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's ratio grid (ratios) or insertion-count grid, packed, and each grid's row count |x_t|.

    Pair b's grid is the |x_t| rows of the packed (sum of |x_t|, V) array after the earlier pairs'.

    For pair b with n = |x_t|, m = |x_0|, 0 <= j < m and 0 <= i < n, the term A * S,
    A = N(xt[:i+1], x0[:j]) and S = N(xt[i+1:], x0[j+1:]), goes to cell (i, x0[j]).  One sweep
    of max m row steps makes, in lanes of n + 1 cells end to end, pair b (a pad cell, x_t) in
    lane b and its reverse (a pad cell, reversed x_t, against reversed x_0 right-aligned) in
    lane 2B-1-b.  Read backwards, a row lines each reversed cell up with its pair's prefix
    cell: prefix row j meets reversed row max m - 1 - j, and from the middle on each new row
    meets the kept row of the other half, both terms (in log, A + S) taking its slot.  The
    terms add in increasing j into a token-major accumulator of the first half's cells, g
    cells at a time (g divides every lane's width), in log as exp(term - shift), shift log N
    for ratios and the pair's largest term for counts; a pair past its x_0 adds into a
    dropped token V.  Its gap cells (all but the pad cells), transposed, are the packed grids.
    A term is at most N, and an exact grid sums to at most N * (m - n), so additions check
    for wrap only when that reaches 2**64.  Errors name the first failing pair; a wrapping
    sweep, the lowest pair of its first wrap.  The table is dropped before the packing copy.
    """
    pairs = PairBatch.of(pairs)
    if not len(pairs):
        return np.zeros((0, vocab_size)), pairs.xts.sizes
    for side in (pairs.xts, pairs.x0s):
        _check_ids(side, vocab_size)
    (ns, ms), V, log = (pairs.xts.sizes, pairs.x0s.sizes), vocab_size, domain == "log"
    B, m_max, dt = len(ns), int(ms.max()), np.min_scalar_type(-V - 1)  # ids and pads, fewest bytes
    X0 = np.full((B, m_max), V)  # V pads each x_0: it matches nothing and names a dropped row
    X0[np.arange(m_max) < ms[:, None]] = pairs.x0s.ids
    ends = np.cumsum(ns + 1)  # pair b's lane ends at cell ends[b] of the first half
    starts, H, g = ends - ns - 1, int(ends[-1]), math.gcd(*(ns + 1).tolist())
    fw = np.full(H, _PAD_XT, dt)
    fw[np.arange(len(pairs.xts.ids)) + np.repeat(np.arange(1, B + 1), ns)] = pairs.xts.ids
    xt, gap = np.concatenate([fw, fw[:1], fw[:0:-1]]), fw != _PAD_XT  # then lanes B-1..0 reversed
    half = np.repeat(np.arange(B), (ns + 1) // g)  # each g-cell chunk's lane, first half
    x0 = np.concatenate([X0, X0[::-1, ::-1]]).T.astype(dt, order="C")  # x0[j]: each lane's token j
    T = _start(lockstep_table_shape(ns, m_max), domain)
    mid, meet = len(T) - 1, np.add if log else np.multiply  # rows 0..mid are kept; later ones step in mid
    T[0, xt == _PAD_XT] = _SWEEP_ARITH[domain][2]  # every lane's pad cell
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in _rows(T, xt, x0, np.concatenate([half, 2 * B - 1 - half[::-1]]), domain):
            if 2 * k == m_max + 1:  # the middle row k - 1 meets itself, now row k is made
                meet(T[k - 1, :H], T[k - 1, H:][::-1], out=T[k - 1, :H])
            if 0 <= (p := m_max - 1 - k) < k:  # rows k and p meet; slot p takes terms p and k
                meet(T[p], T[min(k, mid), ::-1], out=T[p])
        # term j is the first half of its slot; past the middle, the second half read backwards
        terms = [T[j, :H] if 2 * j < m_max else T[m_max - 1 - j, : H - 1 : -1] for j in range(m_max)]
        n_cells, C = T[mid, ends - 1], len(half)
        check = domain == "exact" and (n_cells > ~_U64(0) // np.maximum(ms - ns, 1).astype(_U64)).any()
        shift = n_cells  # of log ratios; log counts shift by their largest term
        if log and not ratios:
            top = np.full((C, g), -np.inf)
            for term, alive in zip(terms, X0.T[:, half] < V):
                np.maximum(top, term.reshape(C, g), out=top, where=alive[:, None])
            top = np.where(gap, top.reshape(-1), -np.inf)  # a pad cell holds no gap's term
            shift = np.where(ms * ns > 0, np.maximum.reduceat(top, starts), 0.0)
        cell_shift = np.repeat(shift, ns + 1)
        acc = np.zeros((V + 1) * H, T.dtype)  # token v's cells from v * H on
        chunks, wrapped = acc.reshape(-1, g), np.zeros((C, g), bool)  # token v's chunk c is row v * C + c
        for j0 in range(0, m_max, _BLOCK):  # the rows _BLOCK terms add into (term j's token V = dropped)
            rows = X0.T[j0 : j0 + _BLOCK].take(half, axis=1) * C + np.arange(C)
            for term, r in zip(terms[j0 : j0 + _BLOCK], rows):
                term = np.exp(term - cell_shift) if log else term
                if g == 1:  # single cells: add.at is faster than a take and a put
                    np.add.at(acc, r, term)
                else:
                    chunks[r] = chunks.take(r, axis=0) + term.reshape(C, g)
                if check:
                    wrapped |= (chunks.take(r, axis=0) < term.reshape(C, g)) & (r < V * C)[:, None]
        acc = acc.reshape(V + 1, H)[:V]
        past = np.logical_or.reduceat(  # a grid cell past the domain: a wrapped sum, or not finite
            (~np.isfinite(acc).all(axis=0) if domain == "float" else wrapped.reshape(-1)) & gap, starts)
        checks = (  # in the order a pair reports them
            (ratios & (is_log_zero(n_cells) if log else n_cells == 0), NotASubsequence,
             "N(x_t, x_0) == 0"),
            (ratios & ~np.isfinite(n_cells), Overflow, _F64_OVER),
            (past, Overflow, "insertion-count sum exceeds uint64; use the log domain"
             if domain == "exact" else "insertion count exceeds float64; use the log domain"),
        )
        if (bad := np.logical_or.reduce([c[0] for c in checks])).any():
            b = int(np.argmax(bad))
            _, err, msg = next(c for c in checks if c[0][b])
            raise err(f"pair {b}: {msg}")
        if log and not ratios:
            acc = np.where(acc > 0.0, np.log(acc) + cell_shift, LOG_ZERO)
    T = terms = term = None  # the terms view the table; an x_0 with no id makes no term
    packed = acc.T[gap]  # the gap cells are the grids' rows, pair by pair
    if log and not ratios:
        packed[np.repeat(is_log_zero(shift), ns)] = LOG_ZERO  # a pair with no term
    elif ratios and not log:
        packed = packed / np.repeat(n_cells, ns)[:, None]
    return packed, ns


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


@dataclass(frozen=True, eq=False)
class NRatioBatch:
    """The ratio grids of a batch of pairs, packed as one (sum of |x_t|, V) float64 array.

    Pair b's grid is the sizes[b] = |x_t| rows after the earlier pairs'; every pair took one
    domain.  len counts the pairs; indexing or iterating yields each as an NRatioMatrix
    viewing its rows, as seqcore.Batch yields states.
    """

    ratios: np.ndarray
    sizes: np.ndarray
    domain: str

    def __len__(self) -> int:
        return len(self.sizes)

    def __iter__(self):
        ends = np.cumsum(self.sizes).tolist()
        return (NRatioMatrix(self.ratios[e - n : e], self.domain) for e, n in zip(ends, self.sizes.tolist()))

    def __getitem__(self, b: int) -> NRatioMatrix:
        b = range(len(self))[b]
        start = int(self.sizes[:b].sum())
        return NRatioMatrix(self.ratios[start : start + int(self.sizes[b])], self.domain)


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
    return _sweep(_ids(x_t), _ids(x_0), domain).T.copy()


def suffix_table(x_t, x_0, domain: str = "exact") -> np.ndarray:
    """S[i, j] = N(x_t[i:], x_0[j:]), shape (|x_t|+1, |x_0|+1); S[0, 0] is N(x_t, x_0)."""
    return _sweep(_ids(x_t)[::-1], _ids(x_0)[::-1], domain)[::-1, ::-1].T.copy()


def subsequence_count(x_t, x_0, domain: str = "exact"):
    """N(x_t, x_0): int in exact mode, float in float mode, log-count float in log mode."""
    xt, x0 = getattr(x_t, "ids", x_t), getattr(x_0, "ids", x_0)
    if domain not in ("exact", "float") or (cell := _walk(xt, x0, domain == "exact")) is None:
        cell = _sweep(_ids(xt), _ids(x0), domain, True)[-1]  # the last row alone
    if not math.isfinite(cell):
        raise Overflow(_F64_OVER)
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


def batched_n_ratios(pairs, vocab_size: int, domain: str = "exact") -> NRatioBatch:
    """n_ratios over (x_t, x_0) pairs, a list or a seqcore.PairBatch, sharing one table sweep.

    The grids come packed in one NRatioBatch, elementwise identical to the
    per-pair loop (bitwise so in exact mode); per-pair errors are re-raised with
    the offending pair index.
    """
    return NRatioBatch(*_per_pair(pairs, vocab_size, domain, ratios=True), domain)


def batched_insertion_counts(pairs, vocab_size: int, domain: str = "exact") -> list[np.ndarray]:
    """insertion_counts over a batch, sharing one table sweep: one grid per pair."""
    packed, ns = _per_pair(pairs, vocab_size, domain, ratios=False)
    return [packed[e - n : e] for e, n in zip(np.cumsum(ns).tolist(), ns.tolist())]


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


def batched_n_ratios_auto(pairs, vocab_size: int) -> NRatioBatch:
    """Batched ratios, packed, in the first domain of exact, float, log that fits the whole batch."""
    return _ladder(batched_n_ratios, pairs, vocab_size)
