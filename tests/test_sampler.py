"""Tests for tau-leaping reverse-process generation."""

import hashlib
import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delins import oracle, sampler, scorer
from delins.errors import ConfigError, InvalidSteps, InvalidTimes, NonFinite, ShapeMismatch
from delins.process import T_MAX
from delins.sampler import (
    GenerationTrace,
    SamplerConfig,
    StepStats,
    _leap,
    _nucleus_rows,
    batch_generate,
    conditional_rows,
    gap_insertion_probabilities,
    generate,
    reverse_step,
    timestep_grid,
)
from delins.seqcore import Batch, Sequence

BOS = 0


def seq(*ids):
    return Sequence((BOS,) + ids)


# ---------------------------------------------------------------------------
# timestep grids


def test_uniform_grid_quarters():
    assert timestep_grid(4, "uniform").tolist() == [1.0, 0.75, 0.5, 0.25, 0.0]


def test_cosine_grid_two_steps():
    ts = timestep_grid(2, "cosine")
    assert ts[0] == 1.0
    assert ts[1] == pytest.approx(math.cos(math.pi / 4), abs=1e-12)
    assert ts[2] == 0.0


def test_grid_rejects_bad_inputs():
    with pytest.raises(InvalidSteps):
        timestep_grid(0, "uniform")
    with pytest.raises(ConfigError):
        timestep_grid(4, "sqrt")


@given(
    n=st.integers(min_value=1, max_value=200),
    kind=st.sampled_from(["uniform", "cosine"]),
)
def test_grid_endpoints_and_monotonicity(n, kind):
    ts = timestep_grid(n, kind)
    assert len(ts) == n + 1
    assert ts[0] == 1.0 and ts[-1] == 0.0
    assert np.all(np.diff(ts) < 0)


# ---------------------------------------------------------------------------
# per-gap probabilities


def test_single_gap_insertion_probability_is_half():
    # w(0.5) = 2, so p = 2 * 1 * 0.25 = 0.5 for the only scored token.
    p_ins, masked, clamped = gap_insertion_probabilities(np.array([[0.0, 1.0, 0.0]]), t=0.5, dt=0.25)
    assert p_ins[0] == pytest.approx(0.5, abs=1e-12)
    assert conditional_rows(masked)[0].tolist() == [0.0, 1.0, 0.0]
    assert clamped.tolist() == [False]


def test_bos_column_is_ignored():
    p_ins, masked, _ = gap_insertion_probabilities(np.array([[5.0, 1.0, 1.0]]), t=0.5, dt=0.25)
    cond = conditional_rows(masked)
    assert p_ins[0] == pytest.approx(2 * 0.25 * 2.0, abs=1e-12)
    assert cond[0, 0] == 0.0
    assert cond[0, 1] == pytest.approx(0.5)


def test_gap_mask_zeroes_rows():
    p_ins, masked, _ = gap_insertion_probabilities(
        np.ones((2, 3)), t=0.5, dt=0.25, gap_mask=np.array([False, True])
    )
    assert p_ins[0] == 0.0
    assert conditional_rows(masked)[0].sum() == 0.0
    assert p_ins[1] > 0.0


def test_clamp_caps_probability_at_one():
    p_ins, _, clamped = gap_insertion_probabilities(np.array([[0.0, 40.0, 0.0]]), t=0.5, dt=0.5)
    assert p_ins[0] == 1.0
    assert clamped.tolist() == [True]


def test_a_gap_mass_that_is_not_finite_raises_nonfinite():
    for bad in (np.inf, np.nan, -np.inf):
        with pytest.raises(NonFinite, match="scores are not finite$"):
            gap_insertion_probabilities(np.array([[0.0, 1.0, 0.0], [0.0, bad, 1.0]]), t=0.5, dt=0.25)
    # the bos column and masked gaps never reach a gap's mass
    p_ins, _, _ = gap_insertion_probabilities(np.array([[np.inf, 1.0], [0.0, np.nan]]), t=0.5, dt=0.25,
                                              gap_mask=np.array([True, False]))
    assert p_ins.tolist() == [0.5, 0.0]


def test_a_score_that_overflows_ends_the_walk_with_nonfinite_and_no_warning():
    params = _random_params(6, "dise", seed=1)
    params.theta[0, 0, 2] = 800.0  # exp overflows at the first gap
    nan_scores = lambda p, xs, t: np.full((len(xs.ids), 6), np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for score_fn in (scorer.score, nan_scores):
            with pytest.raises(NonFinite, match="^a gap's insertion scores sum to (inf|nan) at t=1.0"):
                batch_generate(score_fn, params, SamplerConfig(steps=4, seed=1), 2)


def test_nucleus_drops_tail_and_renormalizes():
    base = conditional_rows(gap_insertion_probabilities(np.array([[0.0, 5.0, 3.0, 2.0]]), t=0.5, dt=0.1)[1])
    cond = _nucleus_rows(base, 0.5)
    assert cond[0].tolist() == [0.0, 1.0, 0.0, 0.0]
    cond = _nucleus_rows(base, 0.8)
    assert cond[0] == pytest.approx([0.0, 0.625, 0.375, 0.0], abs=1e-12)


def _nucleus_one_row(row, top_p):
    """Reference filter, one row at a time: the shared one must match it bitwise."""
    out = np.zeros_like(row)
    total = row.sum()
    if total > 0.0:
        order = np.argsort(-row, kind="stable")
        keep = int(np.searchsorted(np.cumsum(row[order]), top_p * total)) + 1
        chosen = order[:keep]
        out[chosen] = row[chosen] / row[chosen].sum()
    return out


def test_nucleus_matches_the_row_at_a_time_filter_bitwise():
    # V = 14 with flat rows keeps 8 or more cells, where numpy's row sum
    # turns pairwise and a running sum differs in the last ulp
    rng = np.random.default_rng(21)
    s = rng.exponential(1.0, size=(60, 14)) * rng.choice([0.5, 1.0, 50.0], size=(60, 1))
    s[rng.random(s.shape) < 0.2] = 0.0
    s[::7, 1:4] = 1.0   # ties
    s[5] = 0.0          # a dead row
    base = conditional_rows(gap_insertion_probabilities(s, 0.5, 0.01)[1])
    for top_p in (0.3, 0.9, 0.97, 0.999):
        cond = _nucleus_rows(base, top_p)
        for i in range(len(s)):
            assert cond[i].tobytes() == _nucleus_one_row(base[i], top_p).tobytes()
    assert np.count_nonzero(cond, axis=1).max() >= 8


def test_nucleus_preserves_insertion_probability():
    # a leap with top_p 0.5 fires exactly the gaps it fires at 1.0; only tokens may differ
    rng = np.random.default_rng(8)
    sizes = np.array([3, 1, 5, 2])
    ids = np.full(sizes.sum(), -1)  # no token, so -1 marks every old position after the leap
    fired = tokens_differ = 0
    for seed in range(40):
        scores = rng.exponential(0.5, size=(len(ids), 6))  # about half the gaps fire
        out = {}
        for top_p in (1.0, 0.5):
            draws = np.concatenate([np.random.default_rng([seed, w]).random(2 * n)
                                    for w, n in enumerate(sizes)])
            out[top_p] = _leap(ids, sizes, 0.5, 0.1, scores, top_p, draws, 2 * (np.cumsum(sizes) - sizes),
                               None, None, np.zeros((3, len(sizes)), dtype=np.int64))
        (full, full_sizes, full_new), (half, half_sizes, half_new) = out[1.0], out[0.5]
        assert np.array_equal(full == -1, half == -1) and np.array_equal(full_sizes, half_sizes)
        assert np.array_equal(full_new, np.flatnonzero(full != -1)) and np.array_equal(full_new, half_new)
        fired += int((full != -1).sum())
        tokens_differ += int((full != half).sum())
    assert fired > 0 and tokens_differ > 0


def test_walker_draws_fill_in_place_with_the_doubles_of_a_fresh_array():
    # a walker's refill draws the rest of its block in place with rng.random(out=...)
    for n in (1, 7, 64):
        u = np.full(2 * n + 3, -1.0)
        np.random.default_rng(n).random(out=u[2 : 2 * n + 2])
        assert u[2 : 2 * n + 2].tobytes() == np.random.default_rng(n).random(2 * n).tobytes()
        assert u[:2].tolist() == [-1.0, -1.0] and u[-1] == -1.0


# ---------------------------------------------------------------------------
# reverse_step


def test_reverse_step_validates_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeMismatch):
        reverse_step(seq(1), 0.5, 0.25, np.ones((3, 2)), 1.0, rng)
    with pytest.raises(InvalidTimes):
        reverse_step(seq(), 0.5, 0.6, np.ones((1, 2)), 1.0, rng)
    with pytest.raises(InvalidTimes):
        reverse_step(seq(), 0.5, 0.0, np.ones((1, 2)), 1.0, rng)


def test_vanishing_dt_is_a_noop():
    rng = np.random.default_rng(1)
    x = seq(1, 2)
    for _ in range(200):
        assert reverse_step(x, 0.5, 1e-12, np.ones((3, 3)), 1.0, rng) == x


def test_single_gap_example_inserts_half_the_time():
    rng = np.random.default_rng(2)
    scores = np.array([[0.0, 1.0, 0.0]])
    hits = 0
    n = 40_000
    for _ in range(n):
        out = reverse_step(seq(), 0.5, 0.25, scores, 1.0, rng)
        if len(out) == 2:
            hits += 1
            assert out.ids == (BOS, 1)
    # binomial(n, 0.5): four standard errors is 0.01
    assert abs(hits / n - 0.5) < 0.01


def test_clamped_gap_always_inserts_and_is_counted():
    rng = np.random.default_rng(3)
    stats = StepStats()
    scores = np.array([[0.0, 40.0, 0.0]])
    for _ in range(300):
        out = reverse_step(seq(), 0.5, 0.5, scores, 1.0, rng, stats=stats)
        assert out.ids == (BOS, 1)
    assert stats.clamp_events == 300
    assert stats.gap_steps == 300


def test_bos_is_never_inserted():
    rng = np.random.default_rng(4)
    scores = np.array([[1000.0, 1.0, 1.0]])
    for _ in range(300):
        out = reverse_step(seq(), 0.5, 0.5, scores, 1.0, rng)
        assert BOS not in out.ids[1:]


def test_unfiltered_token_distribution_chi_square():
    # p = 1 by clamping, so every step inserts; conditional is (0.2, 0.3, 0.5).
    rng = np.random.default_rng(5)
    scores = np.array([[0.0, 2.0, 3.0, 5.0]])
    counts = np.zeros(4)
    n = 20_000
    for _ in range(n):
        out = reverse_step(seq(), 0.9, 0.9, scores, 1.0, rng)
        counts[out.ids[1]] += 1
    assert counts[0] == 0
    expected = n * np.array([0.2, 0.3, 0.5])
    chi2 = float(((counts[1:] - expected) ** 2 / expected).sum())
    assert chi2 < 16.27  # df=2, p ~ 3e-4


def test_capacity_tie_breaks_to_lower_gap():
    rng = np.random.default_rng(6)
    scores = np.array([[0.0, 1.0, 0.0]] * 3) * 40.0  # clamp: all gaps fire
    out = reverse_step(seq(2, 2), 0.5, 0.5, scores, 1.0, rng, capacity=1)
    assert out.ids == (BOS, 1, 2, 2)


def test_capacity_counts_cancellations():
    rng = np.random.default_rng(7)
    stats = StepStats()
    scores = np.array([[0.0, 40.0, 0.0]] * 3)
    reverse_step(seq(2, 2), 0.5, 0.5, scores, 1.0, rng, capacity=1, stats=stats)
    assert stats.cancelled == 2


@pytest.mark.parametrize("capacity", [None, 1])
def test_reverse_step_returns_the_same_sequence_with_or_without_stats(capacity):
    scores = np.random.default_rng(8).random((4, 5)) * 0.3
    x = seq(3, 1, 4)
    kept = 0
    for seed in range(50):
        plain = reverse_step(x, 0.5, 0.4, scores, 0.9, np.random.default_rng(seed), capacity=capacity)
        counted = reverse_step(x, 0.5, 0.4, scores, 0.9, np.random.default_rng(seed),
                               capacity=capacity, stats=StepStats())
        assert plain == counted
        assert (plain is x) == (counted is x) == (plain.ids == x.ids)
        kept += plain is x
    assert 0 < kept < 50


@pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 1001])
def test_one_draw_of_2n_is_two_draws_of_n(n):
    # a walker's blocks split its stream wherever a refill falls, and reverse_step
    # draws a leap's gates and tokens in one call: the doubles must not depend on the split
    one = np.random.default_rng(n).random(2 * n)
    for first in sorted({0, 1, n - 1, n, n + 1, 2 * n - 1, 2 * n} & set(range(2 * n + 1))):
        rng = np.random.default_rng(n)
        two = np.concatenate([rng.random(first), rng.random(2 * n - first)])
        assert one.tobytes() == two.tobytes()


# ---------------------------------------------------------------------------
# generate


def uniform_dise(vocab_size):
    params = scorer.ScorerParams.init(vocab_size, "dise")
    return params


def test_single_step_variable_inserts_at_most_once():
    params = uniform_dise(3)
    for s in range(20):
        cfg = SamplerConfig(steps=1, seed=s)
        trace = generate(scorer.score, params, cfg)
        assert len(trace.final) <= 2
        assert [t for t, _ in trace.snapshots] == [1.0, 0.0]


def test_lengths_nondecreasing_and_times_match_grid():
    params = uniform_dise(3)
    cfg = SamplerConfig(steps=12, seed=11)
    trace = generate(scorer.score, params, cfg)
    lengths = [len(x) for _, x in trace.snapshots]
    assert lengths == sorted(lengths)
    times = [t for t, _ in trace.snapshots]
    assert times == timestep_grid(12, "uniform").tolist()
    assert trace.snapshots[-1][1] == trace.final


def test_prompt_is_a_prefix_of_every_snapshot():
    params = uniform_dise(3)
    prompt = seq(1, 2, 1)
    cfg = SamplerConfig(steps=12, seed=12)
    trace = generate(scorer.score, params, cfg, prompt=prompt)
    for _, x in trace.snapshots:
        assert x.ids[: len(prompt)] == prompt.ids
    # the run should actually grow beyond the prompt to make this meaningful
    assert len(trace.final) > len(prompt)


def test_prompt_gaps_inside_span_never_fire():
    # The early steps clamp every unmasked gap to certain insertion, so a
    # masking bug would corrupt the prompt span immediately.
    params = uniform_dise(3)
    prompt = seq(1, 2, 1)
    for s in range(10):
        cfg = SamplerConfig(steps=12, seed=s)
        trace = generate(scorer.score, params, cfg, prompt=prompt)
        assert trace.final.ids[:4] == (BOS, 1, 2, 1)


def test_fixed_mode_converges_to_target_length():
    # The capacity rule forbids overshoot outright.  Undershoot is a leap
    # artifact with probability O(k / steps) for a spread-out scorer (a gap
    # whose row mass is below 1 can stay silent even on the final clamped
    # step), so the hit rate climbs toward 1 as the grid refines.
    params = scorer.ScorerParams.init(3, "dice", k=8)
    hits = {}
    for steps in (64, 512):
        cfg = SamplerConfig(steps=steps, mode="fixed", k=8, seed=14)
        traces, summary = batch_generate(scorer.score, params, cfg, 100)
        lengths = [tr.final.content_len for tr in traces]
        assert max(lengths) <= 8
        hits[steps] = sum(1 for l in lengths if l == 8)
    assert hits[64] >= 90
    assert hits[512] == 100


def test_fixed_mode_never_overshoots_midtrace():
    params = scorer.ScorerParams.init(3, "dice", k=5)
    cfg = SamplerConfig(steps=8, mode="fixed", k=5, seed=15)
    trace = generate(scorer.score, params, cfg)
    assert all(x.content_len <= 5 for _, x in trace.snapshots)


def test_fixed_mode_refuses_a_prompt_longer_than_k():
    params = uniform_dise(3)
    prompt = seq(1, 2, 1, 2)
    cfg = SamplerConfig(steps=4, mode="fixed", k=3, seed=18)
    for run in (lambda: batch_generate(scorer.score, params, cfg, 3, prompt),
                lambda: generate(scorer.score, params, cfg, prompt)):
        with pytest.raises(ConfigError, match="^prompt has 4 content tokens, more than k=3$"):
            run()
    # a prompt of exactly k leaves no room: every sample is the prompt
    traces, summary = batch_generate(scorer.score, params, replace(cfg, k=4), 3, prompt)
    assert [tr.final for tr in traces] == [prompt] * 3
    assert summary["short"] == 0 and summary["cancelled"] > 0


def test_generate_is_deterministic_under_seed():
    params = uniform_dise(3)
    cfg = SamplerConfig(steps=12, seed=16)
    a = generate(scorer.score, params, cfg)
    b = generate(scorer.score, params, cfg)
    assert [(t, x.ids) for t, x in a.snapshots] == [(t, x.ids) for t, x in b.snapshots]


def test_config_validation():
    with pytest.raises(InvalidSteps):
        SamplerConfig(steps=0)
    for steps in (10**30, sampler._MAX_STEPS + 1):
        with pytest.raises(InvalidSteps, match=f"^steps must be <= {sampler._MAX_STEPS}, "):
            SamplerConfig(steps=steps)
    SamplerConfig(steps=sampler._MAX_STEPS)  # the largest grid numpy can hold
    with pytest.raises(ValueError):  # one point more it refuses before allocating anything
        np.empty(sampler._MAX_STEPS + 2)
    with pytest.raises(ConfigError):
        SamplerConfig(steps=4, grid="log")
    with pytest.raises(ConfigError):
        SamplerConfig(steps=4, top_p=0.0)
    with pytest.raises(ConfigError, match="^unknown sampler mode 'bogus'$"):
        SamplerConfig(steps=4, mode="bogus")
    with pytest.raises(ConfigError):
        SamplerConfig(steps=4, mode="fixed")
    with pytest.raises(ConfigError):
        SamplerConfig(steps=4, mode="variable", k=5)


# ---------------------------------------------------------------------------
# batch_generate


def test_batch_rejects_empty_batches():
    params = uniform_dise(3)
    with pytest.raises(ConfigError):
        batch_generate(scorer.score, params, SamplerConfig(steps=2, seed=0), 0)


def test_batch_rejects_a_score_row_count_other_than_the_gaps():
    params = uniform_dise(3)
    short = lambda p, xs, t: scorer.score(p, xs, t)[:-1]
    with pytest.raises(ShapeMismatch, match="^3 score rows for 4 gaps$"):
        batch_generate(short, params, SamplerConfig(steps=2, seed=0), 4)


def test_batch_rejects_score_rows_that_are_not_a_matrix():
    flat = lambda p, xs, t: np.ones(len(xs.ids))  # one score a gap, not a row of V
    with pytest.raises(ShapeMismatch, match=r"^score matrix must be 2-d, got shape \(2,\)$"):
        batch_generate(flat, None, SamplerConfig(steps=2, seed=0), 2)


def test_check_walk_budget_is_grid_and_walkers(monkeypatch):
    # 40 B a grid point and 1 KiB a walker, summed; each case is led by one term.  A walk keeps no
    # history a step, only where its leaps inserted, which the walk's own check counts as it grows
    for steps, count, need in ((10**6, 1, 40_000_040 + 1024),      # the time grid
                               (1, 10**5, 80 + 102_400_000)):      # the walkers
        cfg = SamplerConfig(steps=steps, seed=0)
        monkeypatch.setattr(sampler, "_physical_memory", lambda: need)
        sampler.check_walk(cfg, None, count)
        monkeypatch.setattr(sampler, "_physical_memory", lambda: need - 1)
        with pytest.raises(ConfigError, match=f"^count {count} over {steps} steps needs at least "
                                              f"{need / 2**30:.4g} GiB for its time grid and walkers; "
                                              f"this machine has {(need - 1) / 2**30:.4g} GiB$"):
            sampler.check_walk(cfg, None, count)


def test_check_walk_refuses_a_need_past_float64_as_a_config_error():
    # 10**400 walkers need about 10**403 bytes, past what a float can hold in GiB
    with pytest.raises(ConfigError, match=r"^count 1(0{400}) over 1 steps needs at least 9\.537e\+393 GiB for "
                                          r"its time grid and walkers; this machine has "):
        sampler.check_walk(SamplerConfig(steps=1, seed=0), None, 10**400)


def test_the_library_refuses_what_delins_sample_refuses_before_drawing(monkeypatch):
    dice = scorer.load(str(Path(__file__).parents[1] / "perfbench" / "ckpt" / "dice.ckpt"))
    want = (f"^a dice checkpoint scores only states of at most k={dice.k} content tokens; "
            "sample it in fixed mode$")
    for seed in (2, 3, 5, 6):  # seeds whose variable walks pass k
        cfg = SamplerConfig(steps=8, seed=seed)
        for run in (lambda: batch_generate(scorer.score, dice, cfg, 16),
                    lambda: generate(scorer.score, dice, cfg)):
            with pytest.raises(ConfigError, match=want):
                run()
    # a walk over budget is refused before a stream is spawned or the grid is built
    for name in ("SeedSequence", "default_rng"):
        monkeypatch.setattr(np.random, name, lambda *a: pytest.fail("drew before checking the walk"))
    monkeypatch.setattr(sampler, "timestep_grid", lambda *a: pytest.fail("built the grid before checking"))
    monkeypatch.setattr(sampler, "_physical_memory", lambda: 1024)
    cfg = SamplerConfig(steps=4, seed=0)
    for run in (lambda: batch_generate(scorer.score, uniform_dise(3), cfg, 2),
                lambda: generate(scorer.score, uniform_dise(3), cfg)):
        with pytest.raises(ConfigError, match="^count [12] over 4 steps needs at least "):
            run()


def test_a_leap_counts_the_grid_and_walkers_the_walk_keeps(monkeypatch):
    # memory enough for the least walk, grid and walker, but not for a leap's score arrays beside
    # them: the walk stops before its first score call
    calls = []
    still = lambda p, xs, t: calls.append(t) or np.zeros((len(xs.ids), 3))  # nothing ever inserts
    monkeypatch.setattr(sampler, "_physical_memory", lambda: 5 * 40 + 1024)
    with pytest.raises(MemoryError, match="^a leap at t=1 over 1 gaps needs "):
        generate(still, None, SamplerConfig(steps=4, seed=0))
    assert calls == []


def test_batch_summary_matches_traces():
    params = uniform_dise(3)
    cfg = SamplerConfig(steps=8, seed=17)
    traces, summary = batch_generate(scorer.score, params, cfg, 40)
    lengths = [tr.final.content_len for tr in traces]
    assert summary["count"] == 40
    assert summary["mean_length"] == pytest.approx(np.mean(lengths))
    cdf = dict((l, c) for l, c in summary["length_cdf"])
    for length in set(lengths):
        frac = sum(1 for x in lengths if x <= length) / len(lengths)
        assert cdf[length] == pytest.approx(frac)
    assert summary["length_cdf"][-1][1] == pytest.approx(1.0)


def test_batch_is_deterministic_under_seed():
    params = uniform_dise(3)
    cfg = SamplerConfig(steps=8, seed=18)
    a, _ = batch_generate(scorer.score, params, cfg, 10)
    b, _ = batch_generate(scorer.score, params, cfg, 10)
    assert [tr.final.ids for tr in a] == [tr.final.ids for tr in b]


def test_batch_of_one_returns_single_trace():
    params = uniform_dise(3)
    cfg = SamplerConfig(steps=4, seed=19)
    traces, summary = batch_generate(scorer.score, params, cfg, 1)
    assert len(traces) == 1
    assert isinstance(traces[0], GenerationTrace)
    assert summary["mean_length"] == traces[0].final.content_len


def test_batch_summary_reports_step_totals_and_shortfall():
    params = scorer.ScorerParams.init(3, "dice", k=5)
    cfg = SamplerConfig(steps=3, mode="fixed", k=5, seed=22)
    traces, summary = batch_generate(scorer.score, params, cfg, 30)
    for name in ("gap_steps", "clamp_events", "cancelled"):
        assert summary[name] == sum(getattr(tr.stats, name) for tr in traces)
    assert summary["short"] == sum(1 for tr in traces if tr.final.content_len < 5)
    assert 0 < summary["short"] < 30  # three steps cannot always fill five slots
    _, summary = batch_generate(scorer.score, uniform_dise(3), SamplerConfig(steps=3, seed=22), 4)
    assert "short" not in summary


def _random_params(vocab_size, mode, k=None, seed=0, shift=-2.0):
    """Seeded scorer whose score mass keeps samples short."""
    params = scorer.ScorerParams.init(vocab_size, mode, k=k)
    rng = np.random.default_rng(seed)
    params.theta[:] = rng.normal(shift, 0.5, size=params.theta.shape)
    if params.time_bias is not None:
        params.time_bias[:] = rng.normal(0.0, 0.5, size=params.time_bias.shape)
    return params


def _trace_key(tr):
    stats = (tr.stats.gap_steps, tr.stats.clamp_events, tr.stats.cancelled)
    return [(t, x.ids) for t, x in tr.snapshots], tr.final.ids, stats


# (params, config, prompt) per sampling mode
WALKER_CASES = {
    "variable": (_random_params(6, "dise", seed=1), SamplerConfig(steps=12, seed=31), None),
    "fixed": (_random_params(5, "dice", k=4, seed=2), SamplerConfig(steps=5, mode="fixed", k=4, seed=32), None),
    "prompted": (_random_params(6, "dise", seed=4), SamplerConfig(steps=10, seed=33), seq(1, 2)),
    # V = 12 with flat scores: nucleus rows keep 8 or more cells
    "top_p": (_random_params(12, "dise", seed=3, shift=-3.0), SamplerConfig(steps=10, top_p=0.95, seed=34), None),
    "cosine": (_random_params(6, "dise", seed=5), SamplerConfig(steps=10, grid="cosine", seed=35), None),
}


@pytest.mark.parametrize("case", sorted(WALKER_CASES))
def test_batch_walker_is_generate_on_its_child_stream(case):
    params, cfg, prompt = WALKER_CASES[case]
    traces, _ = batch_generate(scorer.score, params, cfg, 5, prompt)
    children = np.random.SeedSequence(cfg.seed).spawn(5)
    for tr, child in zip(traces, children):
        lone = generate(scorer.score, params, cfg, prompt, rng=np.random.default_rng(child))
        assert _trace_key(tr) == _trace_key(lone)


@pytest.mark.parametrize("case", sorted(WALKER_CASES))
def test_a_walker_that_did_not_insert_keeps_its_sequence_object(case):
    params, cfg, prompt = WALKER_CASES[case]
    kept = grew = 0
    for tr in batch_generate(scorer.score, params, cfg, 5, prompt)[0]:
        for (_, before), (_, after) in zip(tr.snapshots, tr.snapshots[1:]):
            assert (after is before) == (after.ids == before.ids)
            kept += after is before
            grew += after is not before
    assert kept and grew


@pytest.mark.parametrize("case", sorted(WALKER_CASES))
def test_batch_walker_does_not_depend_on_count(case):
    params, cfg, prompt = WALKER_CASES[case]
    few, _ = batch_generate(scorer.score, params, cfg, 2, prompt)
    many, _ = batch_generate(scorer.score, params, cfg, 7, prompt)
    assert [_trace_key(tr) for tr in few] == [_trace_key(tr) for tr in many[:2]]


def _reference_walk(params, cfg, prompt, rng):
    """generate as a loop of scorer.score and reverse_step, each leap drawing its own doubles."""
    x = prompt if prompt is not None else seq()
    inside = len(x) - 1  # gaps strictly inside the prompt
    times = timestep_grid(cfg.steps, cfg.grid).tolist()
    stats = StepStats()
    snapshots = [(times[0], x)]
    for t, t_next in zip(times, times[1:]):
        mask = np.arange(len(x)) >= inside if inside else None
        capacity = cfg.k - x.content_len if cfg.mode == "fixed" else None
        x = reverse_step(x, t, t - t_next, scorer.score(params, [x], t), cfg.top_p, rng,
                         gap_mask=mask, capacity=capacity, stats=stats)
        snapshots.append((t_next, x))
    return GenerationTrace(snapshots, x, stats)


# a prompt whose walk needs more doubles than a lone walker may draw ahead
LONG_PROMPT = seq(*([1, 2, 3, 4, 5] * 900))
REFERENCE_CASES = {**WALKER_CASES, "long_prompt": (_random_params(6, "dise", seed=6),
                                                   SamplerConfig(steps=64, seed=36), LONG_PROMPT)}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_blocked_draws_equal_a_draw_per_leap(case):
    params, cfg, prompt = REFERENCE_CASES[case]
    if case == "long_prompt":  # even a lone walker's block is capped, at its first leap
        assert 2 * len(prompt) * cfg.steps * 8 > sampler._DRAW_BLOCK_BYTES
    traces, _ = batch_generate(scorer.score, params, cfg, 3, prompt)
    for tr, child in zip(traces, np.random.SeedSequence(cfg.seed).spawn(3)):
        rng, ref_rng = np.random.default_rng(child), np.random.default_rng(child)
        lone = generate(scorer.score, params, cfg, prompt, rng=rng)
        ref = _reference_walk(params, cfg, prompt, ref_rng)
        assert _trace_key(lone) == _trace_key(ref) == _trace_key(tr)
        # generate's docstring: the caller's rng advances by 2 * gap_steps doubles, as one draw per leap
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        fresh = np.random.default_rng(child)
        fresh.random(2 * lone.stats.gap_steps)
        assert rng.bit_generator.state == fresh.bit_generator.state


def test_draw_blocks_hold_at_most_the_budget_past_one_leaps_need():
    # long prompts, and walkers that grow at every leap, whose walks need twice the budget
    for walkers, growth in ((1, 0), (3, 0), (8, 64)):
        blocks = sampler._Blocks([np.random.default_rng(w) for w in range(walkers)])
        sizes = np.full(walkers, sampler._DRAW_BLOCK_BYTES // (8 * walkers * 40)) + np.arange(walkers)
        for leaps_left in range(40, 0, -1):
            draws, heads = blocks.take(sizes, leaps_left)
            assert blocks.rows.nbytes <= sampler._DRAW_BLOCK_BYTES + walkers * 2 * sizes.max() * 8
            assert np.all(heads + 2 * sizes <= len(draws))
            sizes = sizes + growth


# Final ids and (gap_steps, clamp_events, cancelled) of batch_generate(count=4),
# recorded on the per-walker sampler at commit d87b14f: what a seed samples
# must not change silently.
GOLDEN = {
    "var": (_random_params(6, "dise", seed=1), SamplerConfig(steps=16, seed=101), None, [
        ((0, 5, 1, 1, 3, 4, 5, 1, 1, 4, 2, 1, 2, 1, 2), (43, 0, 0)),
        ((0, 5, 2, 1, 3, 2, 1, 1, 3, 3), (26, 0, 0)),
        ((0, 2, 2, 4, 5, 5, 3, 1, 5, 5, 2, 3, 3, 1, 1, 5, 3, 3), (59, 0, 0)),
        ((0, 5, 3, 5, 2, 4, 5, 1), (35, 0, 0)),
    ]),
    "fixed": (_random_params(5, "dice", k=6, seed=2),
              SamplerConfig(steps=6, mode="fixed", k=6, top_p=0.9, seed=102), None, [
        ((0, 3, 4, 2, 3, 3, 1), (21, 1, 0)),
        ((0, 2, 1, 4, 1), (17, 1, 0)),
        ((0, 3, 1, 3, 1, 1, 1), (15, 1, 0)),
        ((0, 4, 1, 1, 1, 4, 1), (20, 1, 0)),
    ]),
    "fixed_cut": (_random_params(5, "dice", k=3, seed=2),
                  SamplerConfig(steps=4, mode="fixed", k=3, top_p=0.9, seed=102), None, [
        ((0, 3, 4, 3), (11, 0, 0)),
        ((0, 4, 2, 3), (7, 0, 1)),
        ((0, 4, 1, 1), (7, 1, 0)),
        ((0, 2, 1, 1), (7, 1, 0)),
    ]),
    "top_p": (_random_params(12, "dise", seed=3, shift=-3.0),
              SamplerConfig(steps=12, top_p=0.9, seed=103), None, [
        ((0, 11, 5, 6), (13, 0, 0)),
        ((0, 11, 3, 2, 7, 5, 3, 1, 1, 1, 7, 6, 11, 6, 1, 2, 9, 3, 4, 3, 3, 6), (57, 0, 0)),
        ((0, 4, 2, 11, 2), (22, 0, 0)),
        ((0, 2, 1, 7, 4, 8, 10, 4, 9, 4, 2), (30, 0, 0)),
    ]),
    "prompt": (_random_params(6, "dise", seed=4), SamplerConfig(steps=12, seed=104), seq(1, 2), [
        ((0, 1, 2, 5, 3, 1, 3, 3, 1, 2), (54, 0, 0)),
        ((0, 1, 2, 5, 4, 5, 1, 5, 4, 5, 5, 3, 2), (52, 0, 0)),
        ((0, 1, 2, 5, 3, 3, 2, 5, 1), (42, 1, 0)),
        ((0, 1, 2, 5, 5, 2, 1, 2, 2, 2), (45, 0, 0)),
    ]),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_seeded_samples_are_pinned(case):
    params, cfg, prompt, expected = GOLDEN[case]
    traces, _ = batch_generate(scorer.score, params, cfg, 4, prompt)
    assert [(tr.final.ids, _trace_key(tr)[2]) for tr in traces] == expected


# SHA-256 of batch_generate(count=5) on the GOLDEN and WALKER_CASES configs: every walker's
# (t, ids) snapshots, final ids and stats, then the summary, as sorted-key JSON.  Recorded at
# commit 7755c76, where the walk built every walker's Sequence at every leap.
PINNED_WALKS = {
    "golden_fixed": "edadd35607cbef817bd964d871ba33804326e7901494973837d1655569ccd9e0",
    "golden_fixed_cut": "02f6b624dd3930498a77b07873ecd06df79ddb9ce9783bc918773183c74cb1b3",
    "golden_prompt": "ede8fbe14d0c15ca615133e2826874ea545e1578dc11aa4f787bad959b654faa",
    "golden_top_p": "96bc7cdfd74f47a82c821c13424dcc880d3f2b664979cc79bb9cded516034217",
    "golden_var": "54fef0e21b6c2175e32d566435336b9003af3a21b86f5a7ab0e3a5b1b8784503",
    "walker_cosine": "e43a08f70e44fb8aad5c6840efa69ae6154a3ce80587967c9fe7e012ab8436ef",
    "walker_fixed": "dda0e626ba4e7619bd06cf38e3d07e83f6e5c3d7914852490f1286f6ab35250f",
    "walker_prompted": "8b4e1d5c26518897d42bab33fac8e03e3aaded26c013c1fbf3e677ccd8178e4f",
    "walker_top_p": "fd3e158002dc84187f4b845e9198f27c61ca629f250840bf1f9ef2a472453901",
    "walker_variable": "6ac0e252176f643f2e232832659698119d93f5a9f5655feac62dbe38413e546e",
}
WALK_CASES = {**{f"golden_{k}": v[:3] for k, v in GOLDEN.items()},
              **{f"walker_{k}": v for k, v in WALKER_CASES.items()}}


@pytest.mark.parametrize("case", sorted(PINNED_WALKS))
def test_seeded_walks_are_pinned(case):
    params, cfg, prompt = WALK_CASES[case]
    traces, summary = batch_generate(scorer.score, params, cfg, 5, prompt)
    walks = [[[[t, list(x.ids)] for t, x in tr.snapshots], list(tr.final.ids), list(_trace_key(tr)[2])]
             for tr in traces]
    blob = json.dumps([walks, summary], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_WALKS[case]


def test_snapshots_keep_ids_past_one_byte():
    # a vocab of 300 ids, scored to clamp every gap toward the top ids: a kept id needs two bytes
    weights = np.linspace(0.0, 1.0, 300) ** 8 / 3
    score_fn = lambda p, xs, t: np.tile(weights, (len(xs.ids), 1))
    cfg = SamplerConfig(steps=6, seed=41)
    times = timestep_grid(cfg.steps).tolist()
    traces, _ = batch_generate(score_fn, None, cfg, 3)
    for tr, child in zip(traces, np.random.SeedSequence(cfg.seed).spawn(3)):
        rng, x, expected = np.random.default_rng(child), seq(), [seq().ids]
        for t, t_next in zip(times, times[1:]):
            x = reverse_step(x, t, t - t_next, score_fn(None, Batch.of([x]), t), 1.0, rng)
            expected.append(x.ids)
        assert [(t, x.ids) for t, x in tr.snapshots] == list(zip(times, expected))
        assert max(tr.final.ids) >= 256


@pytest.mark.parametrize("case", ["golden_var", "golden_prompt", "walker_fixed"])
def test_a_walk_makes_one_sequence_per_walker_until_its_snapshots_are_read(case, monkeypatch):
    params, cfg, prompt = WALK_CASES[case]
    made = []
    check = Sequence.__post_init__
    monkeypatch.setattr(Sequence, "__post_init__", lambda x: made.append(x) or check(x))
    traces, _ = batch_generate(scorer.score, params, cfg, 6, prompt)
    assert len(made) <= len(traces)
    assert [tr.final for tr in traces] == made[-len(traces):]
    snapshots = traces[-1].snapshots
    grew = len(made)
    assert grew > len(traces)  # one read makes every walker's snapshots at once
    assert all(tr.snapshots is tr.snapshots for tr in traces) and len(made) == grew
    assert traces[-1].snapshots is snapshots and snapshots[-1][1] is traces[-1].final


def _kept(walk, steps) -> list[int]:
    """The bytes walk(n) leaves allocated while its result lives, for each n of steps (tracemalloc),
    once a one-step walk has warmed what a first walk allocates."""
    walk(1)
    kept = []
    for n in steps:
        tracemalloc.start()
        try:
            result = walk(n)  # noqa: F841, alive while measured
            kept.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
    return kept


def test_a_walk_that_inserts_nothing_keeps_at_most_its_grid_a_step():
    # a leap never removes a token, so a walk keeps where its leaps inserted, not every leap's ids;
    # one that never inserts keeps no more a step than the grid point the check before it charges
    still = lambda p, xs, t: np.zeros((len(xs.ids), 3))
    kept = _kept(lambda n: generate(still, None, SamplerConfig(steps=n, seed=0)), (250, 1000))
    assert (kept[1] - kept[0]) / 750 <= sampler._GRID_POINT_BYTES


def test_a_walk_keeps_less_than_a_byte_a_walker_a_step():
    # 1000 walkers of a trained checkpoint insert about as many tokens over 1024 steps as over 64, and
    # the longer walk keeps under a byte a walker for each step it adds (each leap's ids took 9 at least)
    dise = scorer.load(str(Path(__file__).parents[1] / "perfbench" / "ckpt" / "dise.ckpt"))
    kept = _kept(lambda n: batch_generate(scorer.score, dise, SamplerConfig(steps=n, seed=1), 1000), (64, 1024))
    assert kept[1] - kept[0] < (1024 - 64) * 1000


# ---------------------------------------------------------------------------
# oracle-guided smoke test of the whole pipeline


def test_oracle_scores_recover_tiny_distribution():
    dist = oracle.TinyDistribution.uniform([seq(1, 2), seq(2, 1)])

    def score_fn(_params, xs, t):
        # Simultaneous insertions can leap off the support lattice; such
        # states are dead ends the oracle refuses to score.  Freezing them
        # leaves their mass to be counted against the TV budget below.
        rows = []
        for x in xs:
            try:
                rows.append(oracle.exact_insertion_matrix(dist, x, min(t, T_MAX)))
            except oracle.ZeroDenominator:
                rows.append(np.zeros((len(x), dist.vocab_size)))
        return np.concatenate(rows)

    cfg = SamplerConfig(steps=64, seed=20)
    traces, _ = batch_generate(score_fn, None, cfg, 1500)
    counts: dict[tuple, int] = {}
    for tr in traces:
        counts[tr.final.ids] = counts.get(tr.final.ids, 0) + 1
    # all mass should sit on the support, up to leap error
    support = {x.ids for x, _ in dist.support}
    stray = sum(c for ids, c in counts.items() if ids not in support)
    assert stray / 1500 < 0.05
    tv = 0.5 * sum(
        abs(counts.get(x.ids, 0) / 1500 - p) for x, p in dist.support
    ) + 0.5 * stray / 1500
    assert tv < 0.12
