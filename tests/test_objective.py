"""DISE/DICE losses: closed forms, identities, and a Monte-Carlo check of the training draw."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delins import oracle
from delins.dp import n_ratios
from delins.errors import (
    InvalidTimes,
    NonPositiveScore,
    NormalizationViolation,
    NotASubsequence,
)
from delins.objective import (
    T_MIN,
    dice_loss,
    dise_loss,
    loss_weight,
)
from delins.process import forward_sample, transition_prob
from delins.seqcore import Sequence

A, B = 1, 2


def seq(*content):
    return Sequence.from_content(content)


def ratios_of(x_t, x_0, V=3):
    return n_ratios(x_t, x_0, V).ratios


def test_loss_weight_values():
    assert loss_weight(0.5) == pytest.approx(2.0)
    assert loss_weight(0.25) == pytest.approx(4.0)
    assert loss_weight(1.0) == pytest.approx(1.0, abs=1e-8)
    for t in (0.0, -0.5, 1.5):
        with pytest.raises(InvalidTimes):
            loss_weight(t)


def test_dise_zero_at_exact_ratios():
    x_0, x_t = seq(A, B, A), seq(A)
    r = ratios_of(x_t, x_0)
    out = dise_loss(r, x_t, x_0, 0.5)
    assert out.total == pytest.approx(0.0, abs=1e-12)
    assert out.weight == pytest.approx(2.0)
    assert np.allclose(out.per_position, 0.0, atol=1e-12)


@given(st.floats(0.2, 5.0), st.floats(0.05, 0.95))
def test_dise_scaled_scores_closed_form(c, t):
    x_0, x_t = seq(A, B, A), seq(A)
    r = ratios_of(x_t, x_0)
    out = dise_loss(c * r, x_t, x_0, t)
    expect = loss_weight(t) * r.sum() * (c - 1.0 - math.log(c))
    assert out.total == pytest.approx(expect, rel=1e-10, abs=1e-12)
    assert out.total >= -1e-12


def test_dise_total_is_weight_times_positions():
    x_0, x_t = seq(A, B, A, B), seq(B, A)
    s = ratios_of(x_t, x_0) + 0.1
    s[:, 0] = 0.07  # arbitrary positive mass on the bos column is charged
    out = dise_loss(s, x_t, x_0, 0.3)
    assert out.total == out.weight * out.per_position.sum()  # exact by construction
    assert out.per_position.shape == (len(x_t),)


def test_dise_errors():
    x_0, x_t = seq(A, B), seq(A)
    r = ratios_of(x_t, x_0)
    bad = r.copy()
    bad[bad > 0] = 0.0  # zero where the target is positive
    with pytest.raises(NonPositiveScore):
        dise_loss(bad, x_t, x_0, 0.5)
    with pytest.raises(NonPositiveScore):
        dise_loss(r - 1.0, x_t, x_0, 0.5)
    with pytest.raises(NotASubsequence):
        dise_loss(np.ones((2, 3)), seq(B), seq(A, A), 0.5)


@given(st.floats(1e-4, 8.0), st.floats(1e-4, 8.0))
def test_dise_bracket_pointwise(r, s):
    # the integrand is nonnegative and vanishes only on the diagonal
    val = s - r * math.log(s) + r * (math.log(r) - 1.0)
    assert val >= -1e-12
    if abs(s - r) > 0.05 * max(s, r):
        assert val > 0.0
    at_target = r - r * math.log(r) + r * (math.log(r) - 1.0)
    assert at_target == pytest.approx(0.0, abs=1e-12)


def test_dice_zero_at_exact_ratios():
    x_0, x_t = seq(A, B, A), seq(A, A)
    r = ratios_of(x_t, x_0)
    out = dice_loss(r, x_t, x_0, 0.5)
    assert out.total == pytest.approx(0.0, abs=1e-12)


def test_dice_requires_normalization():
    x_0, x_t = seq(A, B, A), seq(A, A)
    r = ratios_of(x_t, x_0)
    with pytest.raises(NormalizationViolation):
        dice_loss(2.0 * r, x_t, x_0, 0.5)


def test_dice_nothing_deleted_is_free():
    x = seq(A, B)
    out = dice_loss(np.zeros((3, 3)), x, x, 0.5)
    assert out.total == 0.0


@settings(max_examples=60)
@given(st.integers(0, 2**31), st.floats(0.05, 0.95))
def test_dice_equals_dise_under_normalization(seed, t):
    rng = np.random.default_rng(seed)
    x_0, x_t = seq(A, B, A, B), seq(B, B)
    s = rng.uniform(0.05, 1.0, size=(len(x_t), 3))
    missing = x_0.content_len - x_t.content_len
    s *= missing / s.sum()
    a = dice_loss(s, x_t, x_0, t)
    b = dise_loss(s, x_t, x_0, t)
    assert a.total == pytest.approx(b.total, rel=1e-9, abs=1e-9)


def test_objective_matches_oracle_dise_and_prop1():
    # expectation of dise_loss over (x_0, x_t) must reproduce the oracle's
    # number, which in turn dominates the exact score entropy
    dist = oracle.TinyDistribution.uniform([seq(A, A), seq(A, B)])
    V = dist.vocab_size
    for t in (0.25, 0.5, 0.75):
        total = 0.0
        for x_0, p0 in dist.support:
            for x_t in oracle.reachable_states(dist):
                w = transition_prob(x_t, x_0, 0.0, t)
                if w == 0.0:
                    continue
                mat = oracle.exact_insertion_matrix(dist, x_t, t)
                total += p0 * w * dise_loss(mat, x_t, x_0, t).total
        via_oracle = oracle.exact_dise(
            dist, lambda x_t, tt: oracle.exact_insertion_matrix(dist, x_t, tt), t
        )
        dse = oracle.exact_dse(
            dist, lambda x_t, y, tt: oracle.exact_concrete_score(dist, x_t, y, tt), t
        )
        assert total == pytest.approx(via_oracle, rel=1e-10, abs=1e-12)
        assert total >= dse - 1e-9


def test_sample_training_term_matches_quadrature():
    x_0 = seq(A, B)

    def scorer(x_t, t):
        return np.full((len(x_t), 3), 0.5)

    # direct quadrature of E_t E_{x_t|t} [loss], midpoint rule
    grid = np.linspace(T_MIN, 1.0, 1025)
    mids = 0.5 * (grid[:-1] + grid[1:])
    states = [Sequence(ids) for ids in oracle.subsequence_enumeration(x_0)]
    quad = 0.0
    for t in mids:
        inner = sum(
            transition_prob(x_t, x_0, 0.0, float(t))
            * dise_loss(scorer(x_t, t), x_t, x_0, float(t)).total
            for x_t in states
        )
        quad += inner / len(mids)

    # the training draw: t uniform on [T_MIN, 1), then x_t from the forward process
    rng = np.random.default_rng(5)
    draws = []
    for _ in range(10_000):
        t = T_MIN + (1.0 - T_MIN) * float(rng.random())
        x_t = forward_sample(x_0, t, rng)
        draws.append(dise_loss(scorer(x_t, t), x_t, x_0, t).total)
    draws = np.array(draws)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - quad) <= 2.0 * se
