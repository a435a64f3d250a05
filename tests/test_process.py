"""Forward deletion process: schedule, survival, sampling, closed forms."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from delins.errors import InvalidTimes, NotSingleDeletion
from delins.process import (
    LogLinearSchedule,
    forward_rate,
    forward_sample,
    survival_prob,
    transition_prob,
)
from delins.seqcore import Sequence

SCHED = LogLinearSchedule()


def distinct_subsequences(x: Sequence) -> set[tuple[int, ...]]:
    """All distinct states reachable from x by deleting content tokens."""
    out = set()
    content = x.content
    for r in range(len(content) + 1):
        for keep in itertools.combinations(range(len(content)), r):
            out.add((x.bos_id,) + tuple(content[i] for i in keep))
    return out


def test_schedule_closed_forms():
    assert SCHED.sigma_bar(0.0) == 0.0
    assert SCHED.sigma_bar(0.5) == pytest.approx(math.log(2.0))
    assert SCHED.sigma(0.5) == pytest.approx(2.0)
    # clamped near 1 instead of diverging
    assert math.isfinite(SCHED.sigma_bar(1.0))
    assert math.isfinite(SCHED.sigma(1.0))


def test_schedule_derivative_matches_rate():
    for t in (0.1, 0.3, 0.7, 0.9):
        h = 1e-7
        fd = (SCHED.sigma_bar(t + h) - SCHED.sigma_bar(t - h)) / (2 * h)
        assert fd == pytest.approx(SCHED.sigma(t), rel=1e-6)


def test_survival_examples():
    assert survival_prob(SCHED, 0.0, 0.5) == pytest.approx(0.5)
    assert survival_prob(SCHED, 0.5, 0.75) == pytest.approx(0.5)
    assert survival_prob(SCHED, 0.3, 0.3 + 1e-9) == pytest.approx(1.0, abs=1e-8)


def test_survival_invalid_times():
    for s, t in ((-0.1, 0.5), (0.5, 0.5), (0.6, 0.5), (0.0, 1.1)):
        with pytest.raises(InvalidTimes):
            survival_prob(SCHED, s, t)


@given(
    st.floats(0.0, 0.98),
    st.floats(0.005, 0.98),
    st.floats(0.005, 0.98),
)
def test_survival_composes(s, d1, d2):
    t = min(s + d1, 0.99)
    u = min(t + d2, 0.995)
    if not (s < t < u):
        return
    lhs = survival_prob(SCHED, s, t) * survival_prob(SCHED, t, u)
    assert lhs == pytest.approx(survival_prob(SCHED, s, u), abs=1e-12)


def test_forward_sample_limits():
    x0 = Sequence((0, 1, 2, 3))
    rng = np.random.default_rng(0)
    near_zero = forward_sample(x0, 0.0, 1e-12, SCHED, rng)
    assert near_zero.x_t == x0
    assert near_zero.kept_indices == (0, 1, 2, 3)
    at_one = forward_sample(x0, 0.0, 1.0, SCHED, rng)
    assert at_one.x_t.ids == (0,)
    assert at_one.kept_indices == (0,)


@given(
    st.lists(st.integers(1, 3), min_size=0, max_size=6),
    st.floats(0.05, 0.95),
    st.integers(0, 2**31),
)
def test_forward_sample_reconstruction(content, t, seed):
    x0 = Sequence.from_content(content)
    res = forward_sample(x0, 0.0, t, SCHED, np.random.default_rng(seed))
    assert res.kept_indices[0] == 0
    assert all(a < b for a, b in zip(res.kept_indices, res.kept_indices[1:]))
    assert tuple(x0.ids[i] for i in res.kept_indices) == res.x_t.ids


def test_transition_prob_examples():
    ab = Sequence((0, 1, 2))
    a = Sequence((0, 1))
    assert transition_prob(ab, ab, 0.0, 0.5, SCHED) == pytest.approx(0.25)
    assert transition_prob(a, ab, 0.0, 0.5, SCHED) == pytest.approx(0.25)
    # not a subsequence -> probability zero, not an error
    assert transition_prob(Sequence((0, 3)), ab, 0.0, 0.5, SCHED) == 0.0
    assert transition_prob(Sequence((0, 1, 2, 3)), ab, 0.0, 0.5, SCHED) == 0.0
    with pytest.raises(InvalidTimes):
        transition_prob(a, ab, 0.5, 0.5, SCHED)


@given(
    st.lists(st.integers(1, 3), min_size=0, max_size=6),
    st.floats(0.05, 0.95),
)
def test_transition_probs_sum_to_one(content, t):
    x_s = Sequence.from_content(content)
    total = sum(
        transition_prob(Sequence(state), x_s, 0.0, t, SCHED)
        for state in distinct_subsequences(x_s)
    )
    assert total == pytest.approx(1.0, abs=1e-9)


@given(
    st.lists(st.integers(1, 2), min_size=0, max_size=4),
    st.floats(0.05, 0.5),
    st.floats(0.55, 0.95),
)
def test_markov_composition(content, u_lo, t):
    # one Chapman-Kolmogorov step: integrate out the state at time u
    s, u = 0.0, u_lo
    x_s = Sequence.from_content(content)
    for target in distinct_subsequences(x_s):
        x_t = Sequence(target)
        direct = transition_prob(x_t, x_s, s, t, SCHED)
        via = sum(
            transition_prob(x_t, Sequence(mid), u, t, SCHED)
            * transition_prob(Sequence(mid), x_s, s, u, SCHED)
            for mid in distinct_subsequences(x_s)
        )
        assert via == pytest.approx(direct, abs=1e-9)


def test_forward_rate_examples():
    baag = Sequence((0, 1, 2, 2, 3))
    bag = Sequence((0, 1, 2, 3))
    # two embeddings of bag into baag, each rate sigma(0.5) = 2
    assert forward_rate(baag, bag, 0.5, SCHED) == pytest.approx(4.0)
    ab = Sequence((0, 1, 2))
    a = Sequence((0, 1))
    assert forward_rate(ab, a, 0.5, SCHED) == pytest.approx(2.0)


def test_forward_rate_errors():
    ab = Sequence((0, 1, 2))
    with pytest.raises(NotSingleDeletion):
        forward_rate(ab, ab, 0.5, SCHED)  # same length
    with pytest.raises(NotSingleDeletion):
        forward_rate(ab, Sequence((0, 3)), 0.5, SCHED)  # not a subsequence
    with pytest.raises(InvalidTimes):
        forward_rate(ab, Sequence((0, 1)), 1.0, SCHED)


def test_forward_rate_is_transition_prob_derivative():
    y = Sequence((0, 1, 2, 1))
    x_t = Sequence((0, 1, 1))
    t, dt = 0.4, 1e-6
    fd = transition_prob(x_t, y, t, t + dt, SCHED) / dt
    assert fd == pytest.approx(forward_rate(y, x_t, t, SCHED), rel=1e-4)


def test_forward_sample_distribution_tv():
    # x_0 = [bos, a, b] at t = 0.5: all four subsequences equally likely
    x0 = Sequence((0, 1, 2))
    rng = np.random.default_rng(7)
    counts = {}
    n = 40_000
    for _ in range(n):
        ids = forward_sample(x0, 0.0, 0.5, SCHED, rng).x_t.ids
        counts[ids] = counts.get(ids, 0) + 1
    tv = 0.5 * sum(abs(counts.get(state, 0) / n - 0.25)
                   for state in [(0, 1, 2), (0, 1), (0, 2), (0,)])
    assert tv < 0.02
