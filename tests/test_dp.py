"""Counting DP against brute-force enumeration and closed-form identities."""

import contextlib
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delins.dp import (
    EXACT_SAFE_ROWS,
    LOG_ZERO,
    NRatioMatrix,
    _sweep,
    _walk,
    batched_insertion_counts,
    batched_n_ratios,
    batched_n_ratios_auto,
    brute_count,
    insertion_counts,
    is_log_zero,
    linear_count,
    linear_insertion_counts,
    lockstep_table_shape,
    n_ratios,
    n_ratios_auto,
    prefix_table,
    subsequence_count,
    suffix_table,
)
from delins.errors import NotASubsequence, Overflow, ShapeMismatch, TooLarge
from delins.seqcore import PairBatch, Sequence

BOS = 0
# ids for the worked pair: b=1, a=2, g=3
BAG = (BOS, 1, 2, 3)
BABGBAG = (BOS, 1, 2, 1, 3, 1, 2, 3)
# C(1100, 550) ~ 1e329 exceeds float64 as well as uint64
PAST_FLOAT64 = ((BOS,) + (1,) * 550, (BOS,) + (1,) * 1100)
# N = 1, but prefix cells past the c such as C(1600, 500) overflow float64 and
# meet zero suffix terms there: inf * 0 in the float fuse
INF_TIMES_ZERO = ((BOS,) + (1,) * 500 + (2,), (BOS,) + (1,) * 500 + (2,) + (1,) * 1100)


def ins(ids, i, v):
    return ids[: i + 1] + (v,) + ids[i + 1 :]


# --- frozen values -----------------------------------------------------------

def test_worked_example_count_is_5():
    assert brute_count(BAG, BABGBAG) == 5
    assert subsequence_count(BAG, BABGBAG) == 5
    assert int(prefix_table(BAG, BABGBAG)[-1, -1]) == 5
    assert int(suffix_table(BAG, BABGBAG)[0, 0]) == 5


def test_repeated_token_count():
    # [bos, a] inside [bos, a, a, a]: one embedding per copy of a
    assert subsequence_count((BOS, 2), (BOS, 2, 2, 2)) == 3


def test_multiplicity_example_grid():
    # x_0 = bos b a a g differs from x_t = bos b a g by one extra a, which can
    # land in gap 1 (after b) or gap 2 (after a); each placement embeds once.
    x_t = (BOS, 1, 2, 3)
    x_0 = (BOS, 1, 2, 2, 3)
    grid = insertion_counts(x_t, x_0, vocab_size=4)
    assert grid.shape == (4, 4)
    assert grid[1, 2] == 1
    assert grid[2, 2] == 1
    assert grid.sum() == 2  # == N(x_t, x_0) * (|x_0| - |x_t|)
    assert subsequence_count(x_t, x_0) == 2


def test_not_a_subsequence_raises():
    # babgbag only holds two g's, so a three-g pattern cannot embed
    with pytest.raises(NotASubsequence):
        n_ratios((BOS, 3, 3, 3), BABGBAG, vocab_size=4)
    with pytest.raises(NotASubsequence):
        n_ratios((BOS, 3, 3, 3), BABGBAG, vocab_size=4, domain="log")


def test_token_ids_outside_the_vocab_raise():
    # a negative id must not wrap onto the last vocab column
    for bad in (-1, 3):
        x_0 = (BOS, 1, bad)
        with pytest.raises(ShapeMismatch, match=f"token id {bad} "):
            insertion_counts((BOS, 1), x_0, vocab_size=3)
        with pytest.raises(ShapeMismatch, match=f"token id {bad} "):
            n_ratios((BOS, bad), x_0, vocab_size=3, domain="log")
        with pytest.raises(ShapeMismatch, match=f"token id {bad} "):
            batched_insertion_counts([((BOS, 1), (BOS, 1, 2)), ((BOS, 1), x_0)], 3)
        with pytest.raises(ShapeMismatch, match=f"token id {bad} "):
            batched_n_ratios_auto([((BOS, 1), (BOS, 1, 2)), ((BOS, bad), (BOS, 1))], 3)

    # several bad sequences: the first one names its own extreme id
    with pytest.raises(ShapeMismatch, match="^token id 5 does not fit a vocab of size 3$"):
        batched_n_ratios([((BOS, 5), (BOS, 1)), ((BOS, -1), (BOS, 1))], 3)


def test_brute_count_bounds():
    with pytest.raises(TooLarge):
        brute_count(tuple(range(13)), tuple(range(14)))
    with pytest.raises(TooLarge):
        brute_count((0, 1), tuple([0] + [1] * 14))


def test_exact_overflow_raises_and_auto_falls_back():
    # C(70, 35) ~ 1.1e20 does not fit in uint64
    x_t = (BOS,) + (1,) * 35
    x_0 = (BOS,) + (1,) * 70
    with pytest.raises(Overflow):
        subsequence_count(x_t, x_0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mat = n_ratios_auto(x_t, x_0, vocab_size=2)
    assert mat.domain == "float"
    assert mat.ratios.shape == (36, 2)
    # grand sum == length difference, even when counts are astronomically large
    assert mat.grand_sum == pytest.approx(35.0, rel=1e-9)


def test_linear_auto_takes_the_float_rung():
    x_t, x_0 = (BOS,) + (1,) * 35, (BOS,) + (1,) * 70
    assert linear_count(x_t, x_0, "auto") == subsequence_count(x_t, x_0, "float")
    grid = linear_insertion_counts(x_t, x_0, 2, "auto")
    assert np.array_equal(grid, insertion_counts(x_t, x_0, 2, "float"))
    assert grid[0, 1] == pytest.approx(math.comb(70, 36), rel=1e-14)


@pytest.mark.parametrize(
    "pair, vocab_size",
    [(PAST_FLOAT64, 2), (INF_TIMES_ZERO, 3)],
    ids=["past-float64", "inf-times-zero"],
)
def test_auto_past_float64_reaches_log(pair, vocab_size):
    x_t, x_0 = pair
    with pytest.raises(Overflow):
        n_ratios(x_t, x_0, vocab_size, "float")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid-value warning leaks
        mat = n_ratios_auto(x_t, x_0, vocab_size)
    assert mat.domain == "log"
    assert np.all(np.isfinite(mat.ratios))
    want = len(x_0) - len(x_t)
    assert mat.grand_sum == pytest.approx(want, rel=1e-9)


def test_inf_times_zero_pair_has_a_finite_float_count():
    # the float rung fails in the fuse, not on N
    x_t, x_0 = INF_TIMES_ZERO
    assert subsequence_count(x_t, x_0, "float") == 1.0
    with pytest.raises(Overflow, match="pair 0: insertion count exceeds float64"):
        batched_n_ratios([INF_TIMES_ZERO], 3, "float")


def test_log_zero_sentinel():
    assert is_log_zero(LOG_ZERO)
    assert is_log_zero(LOG_ZERO + 40.0)  # dead cells drift up a little
    assert not is_log_zero(0.0)
    assert not is_log_zero(-700.0)
    grid = insertion_counts(BAG, BABGBAG, vocab_size=4, domain="log")
    assert np.all(is_log_zero(grid[:, BOS]))  # bos can never be inserted


def test_table_orientation():
    tab = prefix_table(BAG, BABGBAG)
    assert tab.shape == (len(BAG) + 1, len(BABGBAG) + 1)
    # empty x_t embeds exactly once into anything
    assert np.all(tab[0] == 1)
    # N(x_t[:2], x_0[:2]) = N([bos, b], [bos, b]) = 1
    assert tab[2, 2] == 1
    suf = suffix_table(BAG, BABGBAG)
    assert suf.shape == tab.shape
    assert np.all(suf[len(BAG)] == 1)


# --- property tests ----------------------------------------------------------

contents = st.lists(st.integers(min_value=1, max_value=3), min_size=0, max_size=7)


def seq_pair():
    return st.tuples(
        st.lists(st.integers(min_value=1, max_value=3), min_size=0, max_size=4),
        contents,
    ).map(lambda p: ((BOS,) + tuple(p[0]), (BOS,) + tuple(p[1])))


@given(seq_pair())
def test_exact_count_matches_brute(pair):
    x_t, x_0 = pair
    assert subsequence_count(x_t, x_0) == brute_count(x_t, x_0)


@given(seq_pair())
def test_log_count_matches_brute(pair):
    x_t, x_0 = pair
    truth = brute_count(x_t, x_0)
    got = subsequence_count(x_t, x_0, domain="log")
    if truth == 0:
        assert is_log_zero(got)
    else:
        assert got == pytest.approx(np.log(truth), rel=1e-12, abs=1e-12)


@given(seq_pair())
def test_prefix_suffix_cells_match_brute(pair):
    x_t, x_0 = pair
    pre = prefix_table(x_t, x_0)
    suf = suffix_table(x_t, x_0)
    for i in range(len(x_t) + 1):
        for j in range(len(x_0) + 1):
            assert pre[i, j] == brute_count(x_t[:i], x_0[:j])
            assert suf[i, j] == brute_count(x_t[i:], x_0[j:])


@given(seq_pair())
def test_insertion_grid_matches_brute(pair):
    x_t, x_0 = pair
    grid = insertion_counts(x_t, x_0, vocab_size=4)
    for i in range(len(x_t)):
        for v in range(4):
            assert grid[i, v] == brute_count(ins(x_t, i, v), x_0)


@given(seq_pair())
def test_count_identity(pair):
    # summing the grid over gaps and tokens counts every (embedding of x_t,
    # missing x_0 position) pair exactly once
    x_t, x_0 = pair
    grid = insertion_counts(x_t, x_0, vocab_size=4)
    n = brute_count(x_t, x_0)
    assert int(grid.sum()) == n * (len(x_0) - len(x_t)) if len(x_0) >= len(x_t) else True


@given(seq_pair())
def test_ratio_grand_sum(pair):
    x_t, x_0 = pair
    if brute_count(x_t, x_0) == 0:
        return
    expect = len(x_0) - len(x_t)
    for domain in ("exact", "log"):
        mat = n_ratios(x_t, x_0, vocab_size=4, domain=domain)
        assert isinstance(mat, NRatioMatrix)
        assert mat.grand_sum == pytest.approx(expect, rel=1e-9, abs=1e-9)
        assert np.all(mat.ratios[:, BOS] == 0.0)


@given(st.lists(seq_pair(), min_size=0, max_size=6))
@settings(max_examples=50)
def test_batched_matches_single(pairs):
    usable = [p for p in pairs if brute_count(*p) > 0]
    for domain in ("exact", "float", "log"):
        mats = batched_n_ratios(usable, 4, domain)
        grids = batched_insertion_counts(usable, 4, domain)
        for (x_t, x_0), mat, grid in zip(usable, mats, grids):
            solo = n_ratios(x_t, x_0, 4, domain)
            assert np.array_equal(mat.ratios, solo.ratios)  # bit-for-bit
            assert np.array_equal(grid, insertion_counts(x_t, x_0, 4, domain))


@given(seq_pair())
def test_log_ratios_track_exact(pair):
    x_t, x_0 = pair
    if brute_count(x_t, x_0) == 0:
        return
    exact = n_ratios(x_t, x_0, vocab_size=4, domain="exact").ratios
    logd = n_ratios(x_t, x_0, vocab_size=4, domain="log").ratios
    assert np.allclose(logd, exact, rtol=1e-9, atol=1e-12)


def test_monotone_along_x0():
    # extending x_0 can only add embeddings
    vals = prefix_table(BAG, BABGBAG)
    assert np.all(np.diff(vals.astype(np.int64), axis=1) >= 0)


def test_overflow_names_the_pair_not_its_reversed_row():
    # reversed pairs are extra rows of the batch; an overflow found there
    # must still be reported under the pair's own index
    ok = ((BOS, 1), (BOS, 1, 1))
    overflowing = ((BOS,) + (1,) * 35, (BOS,) + (1,) * 70)
    for op in (batched_n_ratios, batched_insertion_counts):
        with pytest.raises(Overflow) as exc:
            op([ok, overflowing], 2, "exact")
        assert str(exc.value).startswith("pair 1:")


def test_overflow_names_the_earliest_wrapping_row_of_either_table():
    # pair 1's prefix table wraps at row 69 (C(68, 34) in a^68), before pair 0's
    # reversed table does at row 70; a sweep that found the reversed wrap first must
    # still name pair 1
    pairs = [(a_pow(34), (BOS, 2) + (1,) * 68 + (2, 2)), (a_pow(34), a_pow(68) + (2, 2, 2))]
    for op in (batched_n_ratios, batched_insertion_counts):
        with pytest.raises(Overflow) as exc:
            op(pairs, 3, "exact")
        assert str(exc.value) == "pair 1: subsequence count exceeds uint64; use the log domain"


def test_ratio_memory_stays_below_one_stacked_table():
    # the prefix tables are streamed, so a batch holds about one table, not two
    rng = np.random.default_rng(31)
    for n in (512, 1024):
        pairs = [_half_kept_pairs(rng, (n,), 16)[0] for _ in range(4)]
        m_max = max(len(x_0) for _, x_0 in pairs)
        n_max = max(len(x_t) for x_t, _ in pairs)
        stacked = (m_max + 1) * 2 * len(pairs) * (n_max + 1) * 8
        for domain in ("float", "log"):
            tracemalloc.start()
            try:
                batched_n_ratios(pairs, 16, domain)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 0.7 * stacked, (n, domain, peak / stacked)


def test_swept_count_keeps_two_rows_not_the_table():
    # 1024 in 2048 over 15 tokens matches too often to walk, so every domain sweeps, one
    # row in place and its step's temporaries, and no mask table
    x_t, x_0 = _half_kept_pairs(np.random.default_rng(7), (2048,), 16)[0]
    assert _walk(x_t, x_0, exact=False) is None
    table = (len(x_0) + 1) * (len(x_t) + 1) * 8
    for domain in ("exact", "float", "log"):
        tracemalloc.start()
        try:
            with pytest.raises(Overflow) if domain == "exact" else contextlib.nullcontext():
                subsequence_count(x_t, x_0, domain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.01 * table, (domain, peak / table)


def test_fallback_releases_the_failed_exact_tables():
    def peak(op):
        tracemalloc.start()
        try:
            op()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    pairs = [((BOS,) + (1,) * 60, (BOS,) + (1,) * 120)] * 4  # exact overflows
    auto = peak(lambda: batched_n_ratios_auto(pairs, 2))
    log_only = peak(lambda: batched_n_ratios(pairs, 2, "log"))
    assert auto <= 1.3 * log_only

    pairs = [INF_TIMES_ZERO] * 2  # exact and float both overflow
    auto = peak(lambda: batched_n_ratios_auto(pairs, 3))
    log_only = peak(lambda: batched_n_ratios(pairs, 3, "log"))
    assert auto <= 1.3 * log_only


def _half_kept_pairs(rng, lengths, vocab_size):
    """x_0 of each length over tokens 1..V-1; x_t keeps a random half of it."""
    out = []
    for n in lengths:
        content = rng.integers(1, vocab_size, size=n)
        keep = np.sort(rng.choice(n, size=n // 2, replace=False))
        out.append(((BOS, *content[keep].tolist()), (BOS, *content.tolist())))
    return out


def test_float_ratios_track_exact():
    rng = np.random.default_rng(4)
    beyond_2_53 = 0
    for vocab_size in (2, 3, 5):
        for x_t, x_0 in _half_kept_pairs(rng, range(1, 81), vocab_size):
            try:
                exact = n_ratios(x_t, x_0, vocab_size, "exact").ratios
            except Overflow:
                continue
            beyond_2_53 += subsequence_count(x_t, x_0) > 2**53
            got = n_ratios(x_t, x_0, vocab_size, "float").ratios
            live = exact > 0
            assert np.array_equal(got > 0, live)
            assert np.max(np.abs(got[live] - exact[live]) / exact[live]) <= 1e-14
    assert beyond_2_53 > 0  # some counts are not exact in float64


def test_float_ratios_track_log_on_long_pairs():
    pairs = _half_kept_pairs(np.random.default_rng(3), (16, 128, 512, 1024) * 2, 16)
    floats = batched_n_ratios(pairs, 16, "float")
    logs = batched_n_ratios(pairs, 16, "log")
    for (x_t, x_0), got, ref in zip(pairs, floats, logs):
        big = ref.ratios > 1e-250
        assert np.max(np.abs(got.ratios[big] - ref.ratios[big]) / ref.ratios[big]) <= 1e-12
        assert got.grand_sum == pytest.approx(len(x_0) - len(x_t), rel=1e-9)


def test_float_and_log_count_grids_track_exact():
    rng = np.random.default_rng(8)
    pairs = [(BAG, BABGBAG)]
    for vocab_size in (2, 3, 4):
        pairs += _half_kept_pairs(rng, range(1, 51), vocab_size)
    # bos-only x_t: a one-column grid, which numpy would sum pairwise
    content = rng.permutation([1] * 12 + [2] * 19 + [3] * 9)
    pairs.append(((BOS,), (BOS, *content.tolist())))
    # |x_0| <= 51, so no table cell, product or grid sum exceeds C(51, 25) < 2**53
    for x_t, x_0 in pairs:
        exact = insertion_counts(x_t, x_0, 4)
        assert np.array_equal(insertion_counts(x_t, x_0, 4, "float"), exact.astype(np.float64))
        logd = insertion_counts(x_t, x_0, 4, "log")
        live = exact > 0
        assert np.array_equal(is_log_zero(logd), ~live)
        want = exact[live].astype(np.float64)
        assert np.max(np.abs(np.exp(logd[live]) - want) / want) <= 1e-12


def int_grid(x_t, x_0, vocab_size):
    """N(x_t, x_0) and the insertion-count grid in Python ints: the float rung's reference.

    P[j][i] = N(x_t[:i], x_0[:j]) and S[j][i] = N(x_t[i:], x_0[j:]); cell (i, v) sums
    P[j][i + 1] * S[j + 1][i + 1] over the positions j of v in x_0.
    """
    n, at = len(x_t), {}
    for i, v in enumerate(x_t):
        at.setdefault(v, []).append(i)
    col, P = [1] + [0] * n, []
    for v in x_0:
        P.append(col[:])
        for i in reversed(at.get(v, ())):  # descending i reads the previous column
            col[i + 1] += col[i]
    P.append(col)
    col, S = [0] * n + [1], []
    for v in reversed(x_0):
        S.append(col[:])
        for i in at.get(v, ()):  # ascending i reads the next column
            col[i] += col[i + 1]
    S = [col] + S[::-1]
    grid = [[0] * vocab_size for _ in range(n)]
    for j, v in enumerate(x_0):
        for i in range(n):
            grid[i][v] += P[j][i + 1] * S[j + 1][i + 1]
    return P[-1][-1], grid


def test_float_rung_tracks_a_big_int_reference_past_uint64():
    x_t, x_0 = (BOS, 1, 2), (BOS, 1, 2, 1, 2, 2)
    n, grid = int_grid(x_t, x_0, 3)
    assert n == subsequence_count(x_t, x_0) and grid == insertion_counts(x_t, x_0, 3).tolist()
    rng = np.random.default_rng(12)
    pairs = [(a_pow(40), a_pow(100)), (a_pow(150), a_pow(300))]
    for vocab_size in (3, 4, 5):
        pairs += _half_kept_pairs(rng, rng.integers(90, 301, size=12), vocab_size)
    past_uint64 = 0
    for x_t, x_0 in pairs:
        vocab_size = max(x_0) + 1
        n, grid = int_grid(x_t, x_0, vocab_size)
        if n < 2**64:
            continue
        past_uint64 += 1
        bound = (len(x_0) + len(x_t)) * 2.0**-53  # dp's documented float error
        assert abs(subsequence_count(x_t, x_0, "float") - n) <= bound * n
        counts = insertion_counts(x_t, x_0, vocab_size, "float")
        ratios = n_ratios(x_t, x_0, vocab_size, "float").ratios
        for got, want in ((counts, [[float(c) for c in row] for row in grid]),
                          (ratios, [[c / n for c in row] for row in grid])):
            want = np.array(want)
            live = want > 0
            assert np.array_equal(got != 0, live)  # a zero cell is exactly 0
            assert np.all(np.abs(got[live] - want[live]) <= bound * want[live])
    assert past_uint64 >= 20


def test_one_column_log_grid_adds_terms_in_increasing_j():
    # x_t's one token recurs in x_0, so a column's terms differ and their order shows
    x_t, x_0 = (1,), (1, 1, 2, 2, 1, 2, 2, 2, 1, 1, 2, 2, 1, 1, 1, 2, 1, 2, 1)
    terms = prefix_table(x_t, x_0, "log")[1, :-1] + suffix_table(x_t, x_0, "log")[1, 1:]
    shift = terms.max()
    lin = np.exp(terms - shift)
    want = np.full(3, LOG_ZERO)
    for v in (1, 2):
        acc = 0.0
        for term in lin[np.array(x_0) == v]:
            acc += term
        want[v] = np.log(acc) + shift
    assert np.array_equal(insertion_counts(x_t, x_0, 3, "log")[0], want)


def test_non_subsequence_count_grids_are_empty():
    for x_t, x_0 in (((BOS, 3, 3, 3), BABGBAG), ((BOS, 2, 1), (BOS, 1, 2))):
        assert np.all(insertion_counts(x_t, x_0, 4, "log") == LOG_ZERO)
        assert np.all(insertion_counts(x_t, x_0, 4, "float") == 0.0)


# --- where the exact domain can wrap -----------------------------------------

def a_pow(k, bos=True):
    """a^k as token 1 repeated k times, after bos unless bos=False."""
    return (BOS,) * bos + (1,) * k


def test_rows_up_to_67_cannot_wrap():
    # C(67, 33) < 2**64 < C(68, 34): the largest cell of the unchecked rows fits
    want = math.comb(67, 33)
    assert want < 2**64 < math.comb(68, 34)
    x_t, x_0 = a_pow(33), a_pow(67)
    assert subsequence_count(x_t, x_0) == want
    assert int(prefix_table(x_t, x_0)[-1, -1]) == want
    assert int(suffix_table(x_t, x_0)[0, 0]) == want
    # inserting one more a gives a^34, and C(67, 34) == C(67, 33)
    assert np.all(insertion_counts(x_t, x_0, 2)[:, 1] == want)
    # without bos, row 68 already holds C(68, 34) and must be checked
    with pytest.raises(Overflow):
        subsequence_count(a_pow(34, bos=False), a_pow(68, bos=False))


def test_no_exact_op_overflows_on_an_x0_of_at_most_exact_safe_rows_ids():
    # the largest row count whose middle cell fits uint64; C(k, k // 2) grows with k
    k = EXACT_SAFE_ROWS
    assert math.comb(k, k // 2) < 2**64 <= math.comb(k + 1, (k + 1) // 2)
    pairs = [(a_pow(n), a_pow(k - 1)) for n in range(k)]  # every a^n in a^66
    rng = np.random.default_rng(24)
    for letters in (2, 3):
        for _ in range(100):
            x_0 = rng.integers(1, letters + 1, k - 1)
            x_t = x_0[rng.random(k - 1) < rng.random()]
            pairs.append(((BOS, *x_t.tolist()), (BOS, *x_0.tolist())))
    for x_t, x_0 in pairs:
        assert subsequence_count(x_t, x_0) == int(prefix_table(x_t, x_0)[-1, -1]) > 0
    grids = batched_insertion_counts(pairs, 4, "exact")
    assert batched_n_ratios(pairs, 4, "exact").domain == "exact"
    assert max(int(g.max()) for g in grids) == math.comb(k - 1, (k - 1) // 2)  # from a^32 in a^66


def test_row_past_the_bound_overflows_and_names_its_pair():
    x_t, x_0 = a_pow(34), a_pow(68)
    with pytest.raises(Overflow):
        subsequence_count(x_t, x_0)
    for op in (batched_n_ratios, batched_insertion_counts):
        with pytest.raises(Overflow, match="^pair 1: subsequence count exceeds uint64"):
            op([(a_pow(1), a_pow(2)), (x_t, x_0)], 2, "exact")
    assert n_ratios_auto(x_t, x_0, 2).domain == "float"


def test_grid_sum_bound_fails_but_every_cell_fits():
    x_t, x_0 = a_pow(28), a_pow(63)
    n = math.comb(63, 28)
    assert n * (len(x_0) - len(x_t)) >= 2**64  # the sums get checked
    assert np.all(insertion_counts(x_t, x_0, 2)[:, 1] == math.comb(63, 29))
    mat = n_ratios_auto(x_t, x_0, 2)
    assert mat.domain == "exact"
    assert mat.grand_sum == pytest.approx(35.0, rel=1e-12)


def test_grid_cell_past_uint64_overflows_and_names_its_pair():
    wraps = (a_pow(30), a_pow(68))  # N = C(68, 30) fits, each cell C(68, 31) does not
    assert subsequence_count(*wraps) == math.comb(68, 30)
    for b in range(3):
        batch = [(a_pow(1), a_pow(3))] * 3
        batch[b] = wraps
        for op in (batched_n_ratios, batched_insertion_counts):
            with pytest.raises(Overflow) as exc:
                op(batch, 2, "exact")
            assert str(exc.value) == f"pair {b}: insertion-count sum exceeds uint64; use the log domain"
    assert n_ratios_auto(*wraps, 2).domain == "float"


def test_mixed_batch_errors_come_in_pair_order():
    absent, wraps = ((BOS, 2), a_pow(3)), (a_pow(30), a_pow(68))
    sum_msg = "insertion-count sum exceeds uint64; use the log domain"
    with pytest.raises(NotASubsequence, match=r"^pair 0: N\(x_t, x_0\) == 0$"):
        batched_n_ratios([absent, wraps], 3, "exact")
    with pytest.raises(Overflow, match=f"^pair 1: {sum_msg}$"):
        batched_insertion_counts([absent, wraps], 3, "exact")
    for op in (batched_n_ratios, batched_insertion_counts):
        with pytest.raises(Overflow, match=f"^pair 0: {sum_msg}$"):
            op([wraps, absent], 3, "exact")
    inf_msg = "insertion count exceeds float64; use the log domain"
    with pytest.raises(NotASubsequence, match=r"^pair 0: N\(x_t, x_0\) == 0$"):
        batched_n_ratios([absent, INF_TIMES_ZERO], 3, "float")
    with pytest.raises(Overflow, match=f"^pair 1: {inf_msg}$"):
        batched_insertion_counts([absent, INF_TIMES_ZERO], 3, "float")
    for op in (batched_n_ratios, batched_insertion_counts):
        with pytest.raises(Overflow, match=f"^pair 0: {inf_msg}$"):
            op([INF_TIMES_ZERO, absent], 3, "float")



@pytest.mark.parametrize("domain", ["exact", "float", "log"])
def test_a_pair_whose_x0_holds_no_id_is_alone_what_it_is_in_a_mixed_batch(domain):
    empty, absent, rows = ((), ()), ((1,), ()), ((BOS, 1), (BOS, 2, 1, 1))
    mixed = batched_insertion_counts([rows, empty, absent], 3, domain)
    for b, pair in ((1, empty), (2, absent)):
        (alone,) = batched_insertion_counts([pair], 3, domain)
        assert alone.dtype == mixed[b].dtype and alone.tobytes() == mixed[b].tobytes()
        assert alone.shape == (len(pair[0]), 3)
    assert not linear_insertion_counts(*absent, 3, domain).any()
    ratios = batched_n_ratios([empty], 3, domain)
    assert (ratios.ratios.shape, ratios.sizes.tolist()) == ((0, 3), [0])
    assert batched_n_ratios([rows, empty], 3, domain)[1].ratios.shape == (0, 3)
    for pairs, b in (([absent], 0), ([rows, absent], 1)):
        with pytest.raises(NotASubsequence, match=rf"^pair {b}: N\(x_t, x_0\) == 0$"):
            batched_n_ratios(pairs, 3, domain)

@given(st.one_of(seq_pair(), st.tuples(
    st.lists(st.integers(1, 2), max_size=8), st.lists(st.integers(1, 2), max_size=24),
).map(lambda p: ((BOS,) + tuple(p[0]), (BOS,) + tuple(p[1])))))
def test_prefix_times_suffix_term_never_exceeds_n(pair):
    # why the exact fuse has no product check: A[j, i] * Bsu[j, i] counts
    # distinct embeddings of x_t into x_0 (those that skip x_0[j])
    x_t, x_0 = pair
    pre = prefix_table(x_t, x_0)
    suf = suffix_table(x_t, x_0)
    n = int(pre[-1, -1])
    for j in range(len(x_0)):
        for i in range(len(x_t)):
            assert int(pre[i + 1, j]) * int(suf[i + 1, j + 1]) <= n


# --- single-pair counts walk the matching cells; the sweep is their reference -

U64_MSG = "^pair 0: subsequence count exceeds uint64; use the log domain$"
F64_MSG = "^subsequence count exceeds float64; use the log domain$"


def swept_count(x_t, x_0, domain):
    xt, x0 = (np.asarray(x, dtype=np.int64) for x in (x_t, x_0))
    return _sweep(xt, x0, domain)[-1, -1]


def assert_count_matches_the_sweep(x_t, x_0):
    try:
        want = int(swept_count(x_t, x_0, "exact"))
    except Overflow:
        with pytest.raises(Overflow, match=U64_MSG):
            subsequence_count(x_t, x_0)
    else:
        got = subsequence_count(x_t, x_0)
        assert type(got) is int and got == want
    got = subsequence_count(x_t, x_0, "float")
    assert type(got) is float
    assert np.float64(got).tobytes() == swept_count(x_t, x_0, "float").tobytes()


def test_short_counts_match_the_sweep():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        vocab_size = int(rng.integers(2, 7))
        x_t, x_0 = (tuple(rng.integers(0, vocab_size, size=rng.integers(0, 15)).tolist())
                    for _ in range(2))
        assert_count_matches_the_sweep(x_t, x_0)


def test_long_counts_match_the_sweep_bit_for_bit():
    pairs = _half_kept_pairs(np.random.default_rng(5), (256, 512, 1024, 2048), 16)
    for x_t, x_0 in pairs:
        assert_count_matches_the_sweep(x_t, x_0)
    # float64 rounds on the way: the count is not C(75, 20) rounded once
    x_t, x_0 = a_pow(20), a_pow(75)
    assert subsequence_count(x_t, x_0, "float") != float(math.comb(75, 20))
    assert_count_matches_the_sweep(x_t, x_0)


def test_float_count_past_float64_overflows():
    # a one-letter pair, alone and padded with non-matching b's until it walks
    x_t, x_0 = PAST_FLOAT64
    for pair in (PAST_FLOAT64, (x_t, x_0 + (2,) * 8400)):
        assert np.isinf(swept_count(*pair, "float"))
        with pytest.raises(Overflow, match=F64_MSG):
            subsequence_count(*pair, "float")


def test_exact_count_overflows_where_the_sweep_wraps():
    # a^34 b in a^68 counts 0, but its cell for a^34 reaches C(68, 34) > 2**64
    for x_t, x_0 in ((a_pow(1024), a_pow(2048)), (a_pow(40), a_pow(80)),
                     (a_pow(34) + (2,), a_pow(68))):
        with pytest.raises(Overflow, match=U64_MSG):
            swept_count(x_t, x_0, "exact")
        with pytest.raises(Overflow, match=U64_MSG):
            subsequence_count(x_t, x_0)


# --- the lockstep sweep --------------------------------------------------------

@st.composite
def lockstep_batch(draw):
    """1-4 pairs over tokens 1..3: bos-only x_t, one-token x_0, odd and even lengths,
    x_t a subsequence of x_0 or not (N = 0)."""
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        x_0 = (BOS,) + tuple(draw(st.lists(st.integers(1, 3), max_size=9)))
        if draw(st.booleans()):
            keep = draw(st.lists(st.booleans(), min_size=len(x_0) - 1, max_size=len(x_0) - 1))
            x_t = (BOS,) + tuple(v for v, k in zip(x_0[1:], keep) if k)
        else:
            x_t = (BOS,) + tuple(draw(st.lists(st.integers(1, 3), max_size=4)))
        pairs.append((x_t, x_0))
    return pairs


def fused_reference(x_t, x_0, domain, ratios):
    """The grid or ratios of one pair from prefix_table and suffix_table, terms in increasing j."""
    pre, suf = prefix_table(x_t, x_0, domain), suffix_table(x_t, x_0, domain)
    terms = [(j, i, pre[i + 1, j], suf[i + 1, j + 1]) for j in range(len(x_0)) for i in range(len(x_t))]
    if domain != "log":
        acc = np.zeros((len(x_t), 4), pre.dtype)
        for j, i, a, s in terms:
            acc[i, x_0[j]] += a * s
        return acc / pre[-1, -1] if ratios else acc
    shift = pre[-1, -1] if ratios else max((a + s for _, _, a, s in terms), default=0.0)
    acc = np.zeros((len(x_t), 4))
    for j, i, a, s in terms:
        acc[i, x_0[j]] += np.exp(a + s - shift)
    if ratios:
        return acc
    if is_log_zero(shift):  # every term is dead: no cell has an embedding
        return np.full(acc.shape, LOG_ZERO)
    with np.errstate(divide="ignore"):
        return np.where(acc > 0.0, np.log(acc) + shift, LOG_ZERO)


@given(lockstep_batch())
@example([(a_pow(25), a_pow(60)), ((BOS, 2), (BOS, 1, 2, 3))])  # float terms past 2**53 round
@settings(max_examples=150, deadline=None)
def test_lockstep_grids_equal_the_fused_tables(pairs):
    absent = [b for b, p in enumerate(pairs) if subsequence_count(*p) == 0]
    for domain in ("exact", "float", "log"):
        grids = batched_insertion_counts(pairs, 4, domain)
        if absent:
            with pytest.raises(NotASubsequence, match=rf"^pair {absent[0]}: "):
                batched_n_ratios(pairs, 4, domain)
        mats = [None] * len(pairs) if absent else batched_n_ratios(pairs, 4, domain)
        for (x_t, x_0), grid, mat in zip(pairs, grids, mats):
            wants = [(grid, fused_reference(x_t, x_0, domain, False))]
            if mat is not None:
                wants.append((mat.ratios, fused_reference(x_t, x_0, domain, True)))
            for got, want in wants:
                assert got.dtype == want.dtype and got.shape == want.shape
                if domain != "log":
                    assert got.tobytes() == want.tobytes()
                else:
                    assert np.array_equal(is_log_zero(got), is_log_zero(want))
                    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def _count_rows(monkeypatch) -> list[int]:
    """Patch dp's row driver to record each row k it makes; returns the record."""
    import delins.dp as dp_module

    calls, rows = [], dp_module._rows

    def counted(*args):
        for k in rows(*args):
            calls.append(k)
            yield k

    monkeypatch.setattr(dp_module, "_rows", counted)
    return calls


def test_grids_and_ratios_make_one_row_step_per_x0_token(monkeypatch):
    calls = _count_rows(monkeypatch)
    pairs = [((BOS, 1), (BOS, 2, 1, 1)), (BAG, BABGBAG), ((BOS,), (BOS, 3))]
    m_max = max(len(x_0) for _, x_0 in pairs)
    for domain in ("exact", "float", "log"):
        for op in (batched_insertion_counts, batched_n_ratios):
            calls.clear()
            op(pairs, 4, domain)
            assert calls == list(range(1, m_max + 1)), (op.__name__, domain)
        calls.clear()
        insertion_counts(BAG, BABGBAG, 4, domain)
        assert len(calls) == len(BABGBAG)


def test_float_count_stops_at_its_first_row_past_float64(monkeypatch):
    # counts never decrease along x_0, so once N(x_t, x_0[:j]) is inf no later row is swept
    x_t, x_0 = a_pow(300), a_pow(3000)
    row = int(np.argmax(np.isinf(prefix_table(x_t, x_0, "float")[-1])))
    assert 300 < row < len(x_0) - 1
    calls = _count_rows(monkeypatch)
    with pytest.raises(Overflow, match=F64_MSG):
        subsequence_count(x_t, x_0, "float")
    assert calls == list(range(1, row + 1))


def test_lockstep_sweep_allocates_the_table_shape_dp_reports(monkeypatch):
    # bench's memory guard sizes its tables with lockstep_table_shape, so the sweep must agree
    import delins.dp as dp_module

    shapes = []
    start = dp_module._start
    monkeypatch.setattr(dp_module, "_start", lambda shape, domain: shapes.append(shape) or start(shape, domain))
    rng = np.random.default_rng(23)
    for lengths in ((0,), (1, 6), (7, 2, 12), (9, 9, 9, 4), (256,) * 4):
        pairs = _half_kept_pairs(rng, lengths, 5)
        m_max = max(len(x_0) for _, x_0 in pairs)
        for op in (batched_insertion_counts, batched_n_ratios):
            shapes.clear()
            op(pairs, 5, "log")
            assert shapes == [lockstep_table_shape([len(x_t) for x_t, _ in pairs], m_max)], lengths
    assert shapes == [(130, 1040)]  # rows 0..ceil(257 / 2) of 2 * 4 lanes of 129 + 1 cells


def test_a_pair_batch_gives_the_bits_of_its_list():
    rng = np.random.default_rng(19)
    pairs = [tuple(map(Sequence, p)) for p in _half_kept_pairs(rng, (0, 3, 8, 1, 12), 6)]
    packed = PairBatch.of(pairs)
    assert PairBatch.of(packed) is packed
    assert len(packed) == len(pairs) and list(packed) == pairs
    assert [packed[b] for b in range(len(pairs))] == pairs and packed[-1] == pairs[-1]
    for a, b in zip(batched_n_ratios_auto(packed, 6), batched_n_ratios_auto(pairs, 6)):
        assert a.domain == b.domain and a.ratios.tobytes() == b.ratios.tobytes()
    for domain in ("exact", "float", "log"):
        for a, b in zip(batched_insertion_counts(packed, 6, domain),
                        batched_insertion_counts(pairs, 6, domain)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# --- ragged lanes: each pair's lane is |x_t| + 1 cells wide -----------------------

def test_lanes_of_a_shared_width_factor_give_the_per_pair_bits():
    # x_t of 2, 5 and 8 ids make lanes of 3, 6 and 9 cells, so the fuse moves 3-cell chunks,
    # a path neither one-cell chunks (widths with no common factor) nor whole lanes take
    rng = np.random.default_rng(41)
    pairs = []
    for n, m in ((5, 24), (2, 9), (8, 30), (5, 5), (2, 17), (8, 12)):
        content = rng.integers(1, 3, size=m - 1)
        keep = np.sort(rng.choice(m - 1, size=n - 1, replace=False))
        pairs.append(((BOS, *content[keep].tolist()), (BOS, *content.tolist())))
    assert math.gcd(*(len(x_t) + 1 for x_t, _ in pairs)) == 3
    for domain in ("exact", "float", "log"):
        for (x_t, x_0), mat, grid in zip(pairs, batched_n_ratios(pairs, 3, domain),
                                         batched_insertion_counts(pairs, 3, domain)):
            alone = insertion_counts(x_t, x_0, 3, domain)
            assert grid.dtype == alone.dtype and grid.tobytes() == alone.tobytes()
            assert mat.ratios.tobytes() == n_ratios(x_t, x_0, 3, domain).ratios.tobytes()


@pytest.mark.parametrize("x_0", [
    a_pow(68) + (2, 2, 2, 2),  # the prefix half wraps first, at row 69; the reverse at 72
    (BOS, 2, 2, 2, 2) + (1,) * 68,  # the reverse half wraps first, at row 68; the prefix at 73
])
def test_a_wrap_between_a_narrower_and_a_wider_lane_names_its_pair(x_0):
    narrow, wide = (a_pow(1), a_pow(3)), ((BOS,) + (2,) * 40, (BOS,) + (2,) * 40)
    for op in (batched_n_ratios, batched_insertion_counts):
        with pytest.raises(Overflow) as exc:
            op([narrow, (a_pow(34), x_0), wide], 3, "exact")
        assert str(exc.value) == "pair 1: subsequence count exceeds uint64; use the log domain"


def test_exact_ragged_batch_bytes_are_pinned():
    # exact outputs are an integer DP and one IEEE division, so the bytes hold on any platform
    rng = np.random.default_rng(27)
    pairs = _half_kept_pairs(rng, rng.integers(0, 25, size=48).tolist(), 6)
    digest = hashlib.sha256(batched_n_ratios(pairs, 6, "exact").ratios.tobytes())
    for grid in batched_insertion_counts(pairs, 6, "exact"):
        digest.update(grid.tobytes())
    assert digest.hexdigest() == "b292c47e517d923c692ad6422abc383e3b309254ab305b922e0328834bcf6f9a"


def test_a_log_count_grid_is_log_n_above_its_ratio_grid():
    # both grids leave one accumulation of terms shifted by log N, so this holds bit for bit
    rng = np.random.default_rng(30)
    for vocab_size in (3, 6, 17):
        for x_t, x_0 in _half_kept_pairs(rng, rng.integers(0, 40, size=134).tolist(), vocab_size):
            r = n_ratios(x_t, x_0, vocab_size, "log").ratios
            with np.errstate(divide="ignore"):
                want = np.where(r > 0, np.log(r) + subsequence_count(x_t, x_0, "log"), LOG_ZERO)
            assert insertion_counts(x_t, x_0, vocab_size, "log").tobytes() == want.tobytes()


# --- sparse rows: the same bits as whole rows -------------------------------------


def _outputs(pairs, vocab_size):
    """Every op of each domain on pairs: an array, or an error's type and message."""
    def run(op, *args):
        try:
            return op(*args)
        except (Overflow, NotASubsequence) as e:
            return f"{type(e).__name__}: {e}"

    out = {}
    with np.errstate(all="ignore"):
        for domain in ("exact", "float", "log"):
            out[domain, "ratios"] = run(lambda: batched_n_ratios(pairs, vocab_size, domain).ratios)
            out[domain, "grids"] = run(lambda: np.concatenate(batched_insertion_counts(pairs, vocab_size, domain)))
            for b, (x_t, x_0) in enumerate(pairs[:2]):
                out[domain, "prefix", b] = run(prefix_table, x_t, x_0, domain)
                out[domain, "suffix", b] = run(suffix_table, x_t, x_0, domain)
                out[domain, "count", b] = run(lambda: np.array(subsequence_count(x_t, x_0, domain)))
    return out


def _same_bits(got, want, live_only: bool) -> bool:
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    if live_only:  # a dead log cell drifts only where it adds, so only live cells keep their bits
        return np.array_equal(is_log_zero(got), is_log_zero(want)) and np.array_equal(
            got[~is_log_zero(got)], want[~is_log_zero(want)])
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_sparse_rows_give_the_whole_row_bits_on_each_side_of_the_choice(monkeypatch):
    import delins.dp as dp_module

    rng = np.random.default_rng(32)
    sides = {  # wide sparse lanes; narrow lanes as in c10; wide lanes where every cell matches
        "wide": [(v, _half_kept_pairs(rng, rng.integers(100, 601, size=3), v)) for v in (16, 64)],
        "narrow": [(13, _half_kept_pairs(rng, rng.integers(3, 13, size=40), 13))],
        "dense": [(2, [((BOS,) + (1,) * k, (BOS,) + (1,) * (2 * k))] * 2) for k in (40, 300)],
    }
    real = dp_module._sparse_pays
    for side, batches in sides.items():
        for vocab_size, pairs in batches:
            sparse = []  # each block's choice
            monkeypatch.setattr(dp_module, "_sparse_pays",
                                lambda *a: (r := real(*a)) and (a[3] and sparse.append(r)) or r)
            got = _outputs(pairs, vocab_size)
            monkeypatch.setattr(dp_module, "_sparse_pays", lambda *a: False)
            want = _outputs(pairs, vocab_size)
            monkeypatch.undo()
            assert any(sparse) == (side == "wide"), side
            for key, ref in want.items():
                live_only = key[0] == "log" and key[1] in ("prefix", "suffix", "count")
                assert _same_bits(got[key], ref, live_only), (side, vocab_size, key)
            if isinstance(got["exact", "grids"], str):
                continue
            for (x_t, x_0), grid in zip(pairs, batched_insertion_counts(pairs, vocab_size)):
                assert grid.tolist() == int_grid(x_t, x_0, vocab_size)[1], (side, vocab_size)


def test_sparse_rows_name_the_pair_that_wraps_first(monkeypatch):
    # x_0 opens with a run of ones, x_t with fewer: more ones wrap sooner.  Pair 2 wraps rows
    # before pair 1, pair 0 never does, and the blocks where they wrap step sparse
    import delins.dp as dp_module

    rng = np.random.default_rng(5)
    def pair(ones):
        rest = rng.integers(2, 64, size=400).tolist()
        return (BOS, *[1] * ones, *rest[::2]), (BOS, *[1] * 100, *rest)
    pairs = [pair(0), pair(20), pair(30)]
    real, sparse = dp_module._sparse_pays, []
    monkeypatch.setattr(dp_module, "_sparse_pays", lambda *a: sparse.append(real(*a)) or sparse[-1])
    for op in (batched_n_ratios, batched_insertion_counts):
        for batch, b in ((pairs, 2), (pairs[:2], 1), (pairs[::-1], 0)):
            sparse.clear()
            with pytest.raises(Overflow, match=f"^pair {b}: subsequence count exceeds uint64"):
                op(batch, 64, "exact")
            assert sparse[-1]  # the wrapping block's choice
