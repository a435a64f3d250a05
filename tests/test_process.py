"""Forward deletion process: schedule, survival, sampling, closed forms."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from delins import dp, objective, oracle, process
from delins.errors import InvalidTimes, NotSingleDeletion
from delins.objective import T_MIN, loss_weight
from delins.process import (
    forward_rate,
    forward_sample,
    survival_prob,
    time_terms,
    transition_prob,
)
from delins.seqcore import BOS_ID, Batch, Sequence, Vocab, load_corpus



def distinct_subsequences(x: Sequence) -> set[tuple[int, ...]]:
    """All distinct states reachable from x by deleting content tokens."""
    out = set()
    content = x.content
    for r in range(len(content) + 1):
        for keep in itertools.combinations(range(len(content)), r):
            out.add((BOS_ID,) + tuple(content[i] for i in keep))
    return out


def test_schedule_closed_forms():
    assert process.sigma_bar(0.0) == 0.0
    assert process.sigma_bar(0.5) == pytest.approx(math.log(2.0))
    assert process.sigma(0.5) == pytest.approx(2.0)
    # clamped near 1 instead of diverging
    assert math.isfinite(process.sigma_bar(1.0))
    assert math.isfinite(process.sigma(1.0))


def test_schedule_derivative_matches_rate():
    for t in (0.1, 0.3, 0.7, 0.9):
        h = 1e-7
        fd = (process.sigma_bar(t + h) - process.sigma_bar(t - h)) / (2 * h)
        assert fd == pytest.approx(process.sigma(t), rel=1e-6)


def test_survival_examples():
    assert survival_prob(0.0, 0.5) == pytest.approx(0.5)
    assert survival_prob(0.5, 0.75) == pytest.approx(0.5)
    assert survival_prob(0.3, 0.3 + 1e-9) == pytest.approx(1.0, abs=1e-8)


def test_survival_invalid_times():
    for s, t in ((-0.1, 0.5), (0.5, 0.5), (0.6, 0.5), (0.0, 1.1)):
        with pytest.raises(InvalidTimes):
            survival_prob(s, t)


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
    lhs = survival_prob(s, t) * survival_prob(t, u)
    assert lhs == pytest.approx(survival_prob(s, u), abs=1e-12)


def test_forward_sample_limits():
    x0 = Sequence((0, 1, 2, 3))
    rng = np.random.default_rng(0)
    assert forward_sample(x0, 1e-12, rng) == x0
    assert forward_sample(x0, 1.0, rng).ids == (0,)


@given(
    st.lists(st.integers(1, 3), min_size=0, max_size=6),
    st.floats(0.05, 0.95),
    st.integers(0, 2**31),
)
def test_forward_sample_reconstruction(content, t, seed):
    x0 = Sequence.from_content(content)
    x_t = forward_sample(x0, t, np.random.default_rng(seed))
    assert x_t.ids[0] == BOS_ID
    assert dp.subsequence_count(x_t, x0) > 0


LATEST = 1.0 - 2.0**-53  # the largest time training draws: T_MIN + (1 - T_MIN) * (1 - 2**-53)


@pytest.fixture(scope="module")
def bos_only(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "one.txt"
    path.write_text("abc\n")
    return load_corpus(path, Vocab.build("abc"), max_len=1).sequences[0]


@given(
    st.lists(st.tuples(st.one_of(st.none(), st.lists(st.integers(1, 3), max_size=6)),
                       st.one_of(st.sampled_from([T_MIN, LATEST]), st.floats(T_MIN, LATEST))),
             min_size=1, max_size=8),
    st.integers(0, 2**32),
)
@example([([1, 2, 3], LATEST)], 0)  # a batch of one
@example([(None, T_MIN), ([2], LATEST), (None, 0.5)], 1)
def test_packed_draw_is_the_per_pair_draw(bos_only, states, seed):
    x0s = [bos_only if content is None else Sequence.from_content(content) for content, _ in states]
    ts = [t for _, t in states]
    rng = np.random.default_rng(seed)
    per_pair = [forward_sample(x_0, t, rng).ids for x_0, t in zip(x0s, ts)]

    # the same stream in the content slots of one packed array; the bos slots are never read
    packed = Batch.of(x0s)
    content = np.ones(len(packed.ids), dtype=bool)
    content[np.cumsum(packed.sizes) - packed.sizes] = False
    doubles = np.full(len(packed.ids), np.nan)
    doubles[content] = np.random.default_rng(seed).random(int(content.sum()))
    survival, weight = time_terms(ts)  # the packed draw reads survivals, not times
    assert [x.ids for x in forward_sample(packed, survival, doubles)] == per_pair
    assert survival.tolist() == [survival_prob(0.0, t) for t in ts]
    assert weight.tolist() == [loss_weight(t) for t in ts]


def test_packed_draw_keeps_no_token_at_survival_0_and_every_token_at_1():
    x0s = Batch.of([Sequence.from_content([1, 2, 3]), Sequence.from_content([3, 3]), Sequence((0,))])
    doubles = np.random.default_rng(6).random(len(x0s.ids))
    doubles[1] = 0.0  # the smallest double rng.random gives
    for survival, want in ((0.0, [(0,), (0,), (0,)]), (1.0, [(0, 1, 2, 3), (0, 3, 3), (0,)])):
        assert [x.ids for x in forward_sample(x0s, np.full(3, survival), doubles)] == want


def test_packed_draws_stay_below_one():
    # so no time that train draws reaches the one-state draw's t >= 1 branch, which the packed draw lacks
    assert T_MIN + (1.0 - T_MIN) * LATEST == LATEST < 1.0


def test_transition_prob_examples():
    ab = Sequence((0, 1, 2))
    a = Sequence((0, 1))
    assert transition_prob(ab, ab, 0.0, 0.5) == pytest.approx(0.25)
    assert transition_prob(a, ab, 0.0, 0.5) == pytest.approx(0.25)
    # not a subsequence -> probability zero, not an error
    assert transition_prob(Sequence((0, 3)), ab, 0.0, 0.5) == 0.0
    assert transition_prob(Sequence((0, 1, 2, 3)), ab, 0.0, 0.5) == 0.0
    with pytest.raises(InvalidTimes):
        transition_prob(a, ab, 0.5, 0.5)


def test_transition_prob_is_zero_where_a_lost_token_cannot_be_deleted():
    # over [0, 1e-17] survival rounds to 1.0, so no deletion has any mass (and log(0) is never taken)
    assert process.survival_prob(0.0, 1e-17) == 1.0
    assert transition_prob(Sequence((0, 1)), Sequence((0, 1, 2)), 0.0, 1e-17) == 0.0


def test_transition_prob_beyond_float64_count():
    # N(a^550, a^1100) = C(1100, 550) ~ 1e329 does not fit a float64, but
    # the probability does: check it against the lgamma closed form
    x_t = Sequence.from_content([1] * 550)
    x_s = Sequence.from_content([1] * 1100)
    p = survival_prob(0.1, 0.5)
    log_n = math.lgamma(1101) - 2 * math.lgamma(551)
    expect = math.exp(log_n + 550 * math.log(p) + 550 * math.log1p(-p))
    assert expect == pytest.approx(2.5934476e-05, rel=1e-7)
    assert transition_prob(x_t, x_s, 0.1, 0.5) == pytest.approx(expect, rel=1e-9)


@given(
    st.lists(st.integers(1, 3), min_size=0, max_size=6),
    st.floats(0.05, 0.95),
)
def test_transition_probs_sum_to_one(content, t):
    x_s = Sequence.from_content(content)
    total = sum(
        transition_prob(Sequence(state), x_s, 0.0, t)
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
        direct = transition_prob(x_t, x_s, s, t)
        via = sum(
            transition_prob(x_t, Sequence(mid), u, t)
            * transition_prob(Sequence(mid), x_s, s, u)
            for mid in distinct_subsequences(x_s)
        )
        assert via == pytest.approx(direct, abs=1e-9)


def test_forward_rate_examples():
    baag = Sequence((0, 1, 2, 2, 3))
    bag = Sequence((0, 1, 2, 3))
    # two embeddings of bag into baag, each rate sigma(0.5) = 2
    assert forward_rate(baag, bag, 0.5) == pytest.approx(4.0)
    ab = Sequence((0, 1, 2))
    a = Sequence((0, 1))
    assert forward_rate(ab, a, 0.5) == pytest.approx(2.0)


def test_forward_rate_errors():
    ab = Sequence((0, 1, 2))
    with pytest.raises(NotSingleDeletion):
        forward_rate(ab, ab, 0.5)  # same length
    with pytest.raises(NotSingleDeletion):
        forward_rate(ab, Sequence((0, 3)), 0.5)  # not a subsequence
    with pytest.raises(InvalidTimes):
        forward_rate(ab, Sequence((0, 1)), 1.0)


def test_forward_rate_is_transition_prob_derivative():
    y = Sequence((0, 1, 2, 1))
    x_t = Sequence((0, 1, 1))
    t, dt = 0.4, 1e-6
    fd = transition_prob(x_t, y, t, t + dt) / dt
    assert fd == pytest.approx(forward_rate(y, x_t, t), rel=1e-4)


def test_forward_sample_distribution_tv():
    # x_0 = [bos, a, b] at t = 0.5: all four subsequences equally likely
    x0 = Sequence((0, 1, 2))
    rng = np.random.default_rng(7)
    counts = {}
    n = 40_000
    for _ in range(n):
        ids = forward_sample(x0, 0.5, rng).ids
        counts[ids] = counts.get(ids, 0) + 1
    tv = 0.5 * sum(abs(counts.get(state, 0) / n - 0.25)
                   for state in [(0, 1, 2), (0, 1), (0, 2), (0,)])
    assert tv < 0.02


def test_schedule_numerics_are_pinned():
    # float.hex values recorded while the schedule was still an object passed
    # to every function; the module-level schedule must reproduce them bitwise
    def hx(x):
        return float(x).hex()

    for t, sig, sig_bar in (
        (0.0, "0x1.0000000000000p+0", "0x0.0p+0"),
        (0.001, "0x1.00419a0290042p+0", "0x1.064670d979b6fp-10"),
        (0.5, "0x1.0000000000000p+1", "0x1.62e42fefa39efp-1"),
        (1.0, "0x1.dcd650e24165bp+29", "0x1.4b927f3a57808p+4"),
    ):
        assert (hx(process.sigma(t)), hx(process.sigma_bar(t))) == (sig, sig_bar)
    for s, t, want in (
        (0.0, 0.001, "0x1.ff7ced916872bp-1"),
        (0.0, 0.5, "0x1.0000000000000p-1"),
        (0.25, 0.75, "0x1.5555555555556p-2"),
        (0.5, 1.0, "0x1.12e0bdffffffdp-29"),
    ):
        assert hx(survival_prob(s, t)) == want
    for t, want in (
        (0.001, "0x1.f3ffffffffff8p+9"),
        (0.5, "0x1.0000000000000p+1"),
        (1.0, "0x1.000000044b835p+0"),
    ):
        assert hx(objective.loss_weight(t)) == want
    a, ab, abcba = (Sequence.from_content(c) for c in ([1], [1, 2], [1, 2, 3, 1]))
    for s, t, want_a, want_ab in (
        (0.0, 0.001, "0x1.129a601c68b36p-29", "0x1.0be61b43b723dp-20"),
        (0.0, 0.5, "0x1.0000000000000p-3", "0x1.0000000000000p-4"),
        (0.0, 1.0, "0x1.12e0bdf22a39fp-29", "0x1.2725dbfb25b7ap-60"),
        (0.25, 0.75, "0x1.948b0fcd6e9e0p-3", "0x1.948b0fcd6e9e2p-5"),
    ):
        got = (hx(transition_prob(a, abcba, s, t)), hx(transition_prob(ab, abcba, s, t)))
        assert got == (want_a, want_ab)
    y, x_t = Sequence.from_content([1, 1, 2]), Sequence.from_content([1, 2])
    assert hx(forward_rate(y, x_t, 0.001)) == "0x1.00419a0290042p+1"
    assert hx(forward_rate(y, x_t, 0.5)) == "0x1.0000000000000p+2"

    x0 = Sequence.from_content([1, 2, 3, 1, 2, 3, 1, 2])
    rng = np.random.default_rng(5)
    assert forward_sample(x0, 0.5, rng).ids == (0, 1, 2, 3, 1, 2)
    assert rng.random().hex() == "0x1.8f6c54a008510p-5"  # where 8 scalar draws left the stream

    dist = oracle.TinyDistribution(
        ((Sequence.from_content([1, 2]), 0.25), (Sequence.from_content([2, 1, 1]), 0.75))
    )
    matrices = lambda x, t: oracle.exact_insertion_matrix(dist, x, t)
    concrete = oracle.concrete_provider_from_matrix(matrices)
    for t, dise, dse in (
        (0.5, "0x1.70ad5db52f087p-1", "0x1.70ad5db52f086p-1"),
        (0.3, "0x1.a3029613f9de4p-1", "0x1.a3029613f9de1p-1"),
    ):
        assert hx(oracle.exact_dise(dist, matrices, t)) == dise
        assert hx(oracle.exact_dse(dist, concrete, t)) == dse
