"""Exact oracle: marginals, insertion scores, concrete scores, entropies."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from delins import oracle
from delins.dp import brute_count, n_ratios
from delins.errors import (
    ConfigError,
    NotSingleDeletion,
    TooLarge,
    ZeroDenominator,
)
from delins.oracle import (
    TinyDistribution,
    concrete_provider_from_matrix,
    exact_concrete_score,
    exact_dise,
    exact_dse,
    exact_insertion_matrix,
    exact_marginal,
    insertion_targets,
    reachable_states,
    subsequence_enumeration,
)
from delins.seqcore import Sequence

A, B = 1, 2


def seq(*content):
    return Sequence.from_content(content)


AB = TinyDistribution.uniform([seq(A, B)])
AB_BA = TinyDistribution.uniform([seq(A, B), seq(B, A)])
AA = TinyDistribution.uniform([seq(A, A)])


def test_distribution_validation():
    with pytest.raises(ConfigError):
        TinyDistribution(((seq(A), 0.5), (seq(A), 0.5)))  # duplicate
    with pytest.raises(ConfigError):
        TinyDistribution(((seq(A), 0.7),))  # does not sum to 1
    with pytest.raises(TooLarge):
        TinyDistribution.uniform([seq(A, A, A, A, A)])  # 5 content tokens
    with pytest.raises(TooLarge):
        TinyDistribution.uniform([Sequence((0, 4))])  # token id too big


def test_subsequence_enumeration_examples():
    assert subsequence_enumeration(seq(A, B)) == {
        (0,): 1, (0, A): 1, (0, B): 1, (0, A, B): 1,
    }
    assert subsequence_enumeration(seq(A, A)) == {(0,): 1, (0, A): 2, (0, A, A): 1}
    distinct = subsequence_enumeration(Sequence((0, 1, 2, 3)))
    assert len(distinct) == 8  # 2^3 for all-distinct content


def test_subsequence_enumeration_too_large():
    with pytest.raises(TooLarge):
        subsequence_enumeration(Sequence((0,) + (1,) * 10))


@given(st.lists(st.integers(1, 2), min_size=0, max_size=5))
def test_enumeration_counts_match_brute(content):
    x = Sequence.from_content(content)
    for ids, n in subsequence_enumeration(x).items():
        assert n == brute_count(ids, x.ids)


def test_exact_marginal_limits():
    assert exact_marginal(AB_BA, seq(A, B), 1e-9) == pytest.approx(0.5, abs=1e-6)
    assert exact_marginal(AB_BA, seq(A, A), 1e-9) == pytest.approx(0.0, abs=1e-9)
    assert exact_marginal(AB_BA, Sequence((0,)), 1.0) == 1.0
    assert exact_marginal(AB_BA, seq(A), 1.0) == 0.0


def test_exact_marginal_sums_to_one():
    for dist in (AB, AB_BA, AA):
        total = sum(exact_marginal(dist, x, 0.5) for x in reachable_states(dist))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_insertion_score_time_independent_for_fixed_length():
    for x_t in reachable_states(AB_BA):
        m1 = exact_insertion_matrix(AB_BA, x_t, 0.3)
        m2 = exact_insertion_matrix(AB_BA, x_t, 0.7)
        assert np.max(np.abs(m1 - m2)) <= 1e-12


def test_insertion_score_single_sequence_collapses_to_ratios():
    x_0 = seq(A, B)
    for x_t in (Sequence((0,)), seq(A), seq(B)):
        mat = exact_insertion_matrix(AB, x_t, 0.5)
        expect = n_ratios(x_t, x_0, AB.vocab_size).ratios
        assert np.allclose(mat, expect, atol=1e-12)


def test_insertion_score_grand_sum_is_missing_length():
    # fixed-length support: every score matrix sums to K - |x_t|
    for x_t in reachable_states(AB_BA):
        mat = exact_insertion_matrix(AB_BA, x_t, 0.4)
        assert mat.sum() == pytest.approx(2 - x_t.content_len, abs=1e-9)


def test_insertion_score_unreachable_state():
    # ba is within the vocab of {ab} but never a subsequence of it
    with pytest.raises(ZeroDenominator):
        exact_insertion_matrix(AB, seq(B, A), 0.5)


def test_unreachable_states_are_cached_too():
    x_t = seq(B, B)
    with pytest.raises(ZeroDenominator, match=r"^state \(0, 2, 2\) is unreachable at t=0.45$"):
        exact_insertion_matrix(AB, x_t, 0.45)
    hits = oracle._insertion_matrix_cached.cache_info().hits
    with pytest.raises(ZeroDenominator, match=r"^state \(0, 2, 2\) is unreachable at t=0.45$"):
        exact_insertion_matrix(AB, x_t, 0.45)
    assert oracle._insertion_matrix_cached.cache_info().hits == hits + 1


def test_concrete_score_hand_value():
    # single sequence ab: p_t([bos,a,b]) / p_t([bos,a]) = (1-t)^2 / (t(1-t)) = 1 at t=0.5
    got = exact_concrete_score(AB, seq(A), seq(A, B), 0.5)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_concrete_score_recast_on_all_enumerable_pairs():
    # the op asserts the two-route equality internally; drive it everywhere
    for dist in (AB, AB_BA, AA):
        for t in (0.25, 0.5, 0.75):
            for x_t in reachable_states(dist):
                if exact_marginal(dist, x_t, t) == 0.0:
                    continue
                for y in insertion_targets(x_t, dist.vocab_size):
                    exact_concrete_score(dist, x_t, y, t)


def test_concrete_score_relabeling_symmetry():
    swapped = TinyDistribution.uniform([seq(B, A)])
    s1 = exact_concrete_score(AB, seq(A), seq(A, B), 0.33)
    s2 = exact_concrete_score(swapped, seq(B), seq(B, A), 0.33)
    assert s1 == pytest.approx(s2, abs=1e-14)


def test_concrete_score_errors():
    with pytest.raises(NotSingleDeletion):
        exact_concrete_score(AB, seq(A), seq(A, B, B), 0.5)
    with pytest.raises(NotSingleDeletion):
        exact_concrete_score(AB, seq(A), seq(B, B), 0.5)
    with pytest.raises(ZeroDenominator):
        exact_concrete_score(AA, seq(B), seq(B, A), 0.5)


def exact_matrix_provider(dist):
    return lambda x_t, t: exact_insertion_matrix(dist, x_t, t)


def exact_score_provider(dist):
    return lambda x_t, y, t: exact_concrete_score(dist, x_t, y, t)


def test_dse_zero_for_single_sequence_exact_scores():
    # with a one-point distribution the posterior ratio equals the marginal
    # ratio, so a perfect model drives the loss to exactly zero
    for dist in (AB, AA):
        for t in (0.25, 0.5, 0.75):
            assert exact_dse(dist, exact_score_provider(dist), t) == pytest.approx(
                0.0, abs=1e-12
            )


def test_dse_nonnegative():
    for dist in (AB, AB_BA, AA):
        for t in (0.25, 0.5, 0.75):
            assert exact_dse(dist, exact_score_provider(dist), t) >= -1e-12


def test_dise_equals_dse_at_exact_scores():
    # gaps that lead to the same insertion share one exact score, so the
    # convexity gap between the two objectives collapses
    for dist in (AB, AB_BA, AA):
        for t in (0.25, 0.5, 0.75):
            dise = exact_dise(dist, exact_matrix_provider(dist), t)
            dse = exact_dse(dist, exact_score_provider(dist), t)
            assert dise == pytest.approx(dse, abs=1e-10)


def test_dise_dominates_dse_for_perturbed_model():
    # skew the per-gap scores while keeping their mean: the averaged concrete
    # score is unchanged on multiplicity pairs, so DSE drops below DISE
    def perturbed(x_t, t):
        mat = exact_insertion_matrix(AA, x_t, t).copy()
        skew = np.linspace(0.5, 1.5, len(x_t))[:, None]
        return mat * skew

    t = 0.5
    dise = exact_dise(AA, perturbed, t)
    dse = exact_dse(AA, concrete_provider_from_matrix(perturbed), t)
    assert dise > dse + 1e-6


def test_dise_dse_inequality_family():
    # uniform distributions over every nonempty subset of the two-token,
    # length <= 2 world, at three times
    world = [seq(), seq(A), seq(B), seq(A, A), seq(A, B), seq(B, A), seq(B, B)]
    for k in (1, 2):
        for combo in itertools.combinations(world, k):
            dist = TinyDistribution.uniform(list(combo))
            for t in (0.25, 0.5, 0.75):
                dise = exact_dise(dist, exact_matrix_provider(dist), t)
                dse = exact_dse(dist, exact_score_provider(dist), t)
                assert dise >= dse - 1e-9
