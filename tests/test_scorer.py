"""Scorer: outputs, closed-form gradients, training loop, checkpoints."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delins import dp, objective, process, scorer
from delins.errors import (
    ConfigError,
    InvalidTimes,
    ModeMismatch,
    NonFinite,
    NormalizationViolation,
    Overflow,
    ShapeMismatch,
    VersionMismatch,
)
from delins.process import survival_prob, time_terms
from delins.sampler import GRID_KINDS, timestep_grid
from delins.scorer import (
    N_BUCKETS,
    OPTIMIZERS,
    Gradient,
    ScorerParams,
    _loss_grad_from_ratios,
    gradcheck,
    load,
    loss_and_grad,
    save,
    score,
    time_bucket,
    train,
    train_settings,
)
from delins.seqcore import Batch, Corpus, Sequence, Vocab

A, B = 1, 2


def seq(*content):
    return Sequence.from_content(content)


def rand_params(rng, V, mode, k=None):
    p = ScorerParams.init(V, mode, k)
    p.theta[:] = rng.normal(0, 0.7, p.theta.shape)
    if p.time_bias is not None:
        p.time_bias[:] = rng.normal(0, 0.3, p.time_bias.shape)
    return p


def test_zero_params_dise_scores_are_one():
    p = ScorerParams.init(3, "dise")
    mat = score(p, [seq(A, B)], t=0.4)
    assert mat.shape == (3, 3)
    assert np.all(mat == 1.0)


def test_dise_requires_time():
    p = ScorerParams.init(3, "dise")
    with pytest.raises(ModeMismatch):
        score(p, [seq(A)])


@pytest.mark.parametrize("t", [0.0, -1.0, 2.0, 1.0 + 1e-12, float("nan"), float("inf"), float("-inf")])
def test_dise_scores_refuse_a_time_outside_the_unit_interval(t):
    # as objective.loss_weight and process.forward_sample do; no bucket is read
    p = ScorerParams.init(3, "dise")
    with pytest.raises(InvalidTimes, match="need 0 < t <= 1"):
        score(p, [seq(A)], t)


def test_dise_scores_take_every_time_in_the_unit_interval():
    p = rand_params(np.random.default_rng(1), 3, "dise")
    for t, bucket in [(1e-300, 0), (0.5, N_BUCKETS // 2), (1.0, N_BUCKETS - 1)]:
        want = np.exp(p.theta[[0, 1], [1, 0]] + p.time_bias[bucket])
        assert score(p, [seq(A)], t).tobytes() == want.tobytes()


def test_zero_params_dice_is_uniform_over_insertable_cells():
    p = ScorerParams.init(3, "dice", k=4)
    mat = score(p, [seq(A, B)])
    assert mat.sum() == pytest.approx(2.0, abs=1e-12)
    assert np.all(mat[:, 0] == 0.0)
    inner = mat[:, 1:]
    assert np.allclose(inner, inner.flat[0])


@settings(max_examples=40)
@given(st.integers(0, 2**31), st.integers(0, 3))
def test_dice_normalization_by_construction(seed, extra):
    rng = np.random.default_rng(seed)
    k = 3 + extra
    p = rand_params(rng, 3, "dice", k=k)
    x_t = seq(A, B, A)
    mat = score(p, [x_t])
    assert mat.sum() == pytest.approx(k - 3, abs=1e-9)


def test_dice_rejects_overlong_state():
    p = ScorerParams.init(3, "dice", k=1)
    with pytest.raises(ShapeMismatch):
        score(p, [seq(A, B)])


@settings(max_examples=30)
@given(st.integers(0, 2**31))
def test_dise_scores_strictly_positive(seed):
    rng = np.random.default_rng(seed)
    p = rand_params(rng, 4, "dise")
    mat = score(p, [seq(A, B, 3, A)], t=float(rng.uniform(0.01, 0.99)))
    assert np.all(mat > 0.0)


def test_param_validation():
    with pytest.raises(ConfigError):
        ScorerParams.init(3, "mlp")
    with pytest.raises(ConfigError):
        ScorerParams.init(3, "dice")  # k missing
    with pytest.raises(ShapeMismatch):
        ScorerParams("dise", np.zeros((3, 3, 3)), np.zeros((4, 3)), None)


def test_loss_matches_objective_module():
    rng = np.random.default_rng(0)
    x_0, x_t, t = seq(A, B, A), seq(A), 0.37
    p = rand_params(rng, 3, "dise")
    mat = score(p, [x_t], t)
    via_objective = objective.dise_loss(mat, x_t, x_0, t)
    direct, _ = loss_and_grad(p, x_t, x_0, t)
    assert direct.total == via_objective.total

    pd = rand_params(rng, 3, "dice", k=3)
    matd = score(pd, [x_t])
    via_objective = objective.dice_loss(matd, x_t, x_0, t)
    direct, _ = loss_and_grad(pd, x_t, x_0, t)
    assert direct.total == via_objective.total


def test_gradcheck_both_modes():
    rng = np.random.default_rng(42)
    x_0 = seq(A, B, A)
    for mode, k in (("dise", None), ("dice", 3)):
        for x_t in (Sequence((0,)), seq(A), seq(A, B)):
            p = rand_params(rng, 3, mode, k)
            t = float(rng.uniform(0.05, 0.95))
            assert gradcheck(p, x_t, x_0, t) <= 1e-5


def mixed_batch(rng, V, mode):
    """Nine pairs: x_0 of 6 tokens in dice mode and random lengths in dise mode,
    with a bos-only x_t, repeated contexts and, in dice mode, an x_t that is
    already complete (m = 0)."""
    n0s = [6] * 9 if mode == "dice" else [int(n) for n in rng.integers(0, 9, 9)]
    x0s = [seq(*rng.integers(1, V, n).tolist()) for n in n0s]
    x0s[3] = x0s[4] = seq(*[A] * 6)  # every inner gap has context (A, A)
    xts = []
    for x_0 in x0s:
        n = x_0.content_len
        keep = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
        xts.append(seq(*[x_0.content[i] for i in keep.tolist()]))
    xts[0] = Sequence((0,))
    if mode == "dice":
        xts[1] = x0s[1]
    ts = [float(t) for t in rng.uniform(0.02, 0.98, len(x0s))]
    return xts, x0s, ts


@pytest.mark.parametrize("mode", ["dise", "dice"])
def test_packed_batch_matches_one_pair_calls(mode):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        p = rand_params(rng, 4, mode, 6 if mode == "dice" else None)
        xts, x0s, ts = mixed_batch(rng, 4, mode)
        ratios = [m.ratios for m in dp.batched_n_ratios_auto(list(zip(xts, x0s)), 4)]
        totals, per_position, grad = _loss_grad_from_ratios(p, xts, ratios, ts)
        singles = [loss_and_grad(p, x_t, x_0, t) for x_t, x_0, t in zip(xts, x0s, ts)]
        np.testing.assert_allclose(totals, [loss.total for loss, _ in singles], rtol=1e-12)
        rows = np.concatenate([loss.per_position for loss, _ in singles])
        assert np.array_equal(per_position, rows)
        tables = [(grad.theta, [g.theta for _, g in singles])]
        if mode == "dise":
            tables.append((grad.time_bias, [g.time_bias for _, g in singles]))
        else:
            assert grad.time_bias is None
        for packed, parts in tables:
            want = sum(parts)
            np.testing.assert_allclose(packed, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("mode", ["dise", "dice"])
def test_score_of_a_batch_stacks_the_one_state_scores_bitwise(mode):
    # mixed_batch holds a bos-only state, repeated contexts and, in dice, a state at k
    for seed in range(4):
        rng = np.random.default_rng(seed)
        p = rand_params(rng, 4, mode, 6 if mode == "dice" else None)
        xts, _, ts = mixed_batch(rng, 4, mode)
        t = ts[0] if mode == "dise" else None
        packed = score(p, xts, t)
        assert packed.shape == (sum(map(len, xts)), 4)
        assert packed.tobytes() == np.concatenate([score(p, [x], t) for x in xts]).tobytes()


@pytest.mark.parametrize("mode", ["dise", "dice"])
def test_score_of_a_batch_equals_score_of_its_list_bitwise(mode):
    # the sampler passes its walkers as one Batch; a list of the same states scores alike
    for seed in range(4):
        rng = np.random.default_rng(seed)
        p = rand_params(rng, 4, mode, 6 if mode == "dice" else None)
        xts, _, ts = mixed_batch(rng, 4, mode)
        t = ts[0] if mode == "dise" else None
        batch = Batch.of(xts)
        assert score(p, batch, t).tobytes() == score(p, xts, t).tobytes()


@pytest.mark.parametrize("mode", ["dise", "dice"])
def test_score_of_an_empty_batch_is_an_empty_stack(mode):
    # as dp.batched_n_ratios([], V) is: no state, no rows
    p = rand_params(np.random.default_rng(0), 4, mode, 6 if mode == "dice" else None)
    for xs in ([], Batch.of([])):
        got = score(p, xs, 0.5 if mode == "dise" else None)
        assert got.shape == (0, 4) and got.shape == dp.batched_n_ratios([], 4).ratios.shape


def test_gradient_scatter_matches_add_at_bitwise():
    # the scatter adds each cell's rows in order, as np.add.at does; in dise the rows
    # w * (s - r) rebuild bit for bit from each state's own scores
    for seed in range(4):
        rng = np.random.default_rng(seed)
        p = rand_params(rng, 4, "dise")
        xts, x0s, ts = mixed_batch(rng, 4, "dise")
        xts[5], x0s[5] = xts[4], x0s[4]  # two pairs share every context
        ratios = [m.ratios for m in dp.batched_n_ratios_auto(list(zip(xts, x0s)), 4)]
        _, _, grad = _loss_grad_from_ratios(p, xts, ratios, ts)
        lefts = np.concatenate([x.ids for x in xts])
        rights = np.concatenate([x.ids[1:] + (0,) for x in xts])
        buckets = np.concatenate([[time_bucket(t)] * len(x) for x, t in zip(xts, ts)])
        g_z = np.concatenate([objective.loss_weight(t) * (score(p, [x], t) - r)
                              for x, r, t in zip(xts, ratios, ts)])
        theta, time_bias = np.zeros_like(p.theta), np.zeros_like(p.time_bias)
        np.add.at(theta, (lefts, rights), g_z)
        np.add.at(time_bias, buckets, g_z)
        assert grad.theta.tobytes() == theta.tobytes()
        assert grad.time_bias.tobytes() == time_bias.tobytes()


def test_dice_batch_names_its_first_overlong_state():
    rng = np.random.default_rng(5)
    p = rand_params(rng, 4, "dice", 6)
    xts, _, _ = mixed_batch(rng, 4, "dice")
    xts[4], xts[6] = seq(*[A] * 7), seq(*[B] * 8)
    with pytest.raises(ShapeMismatch, match=re.escape("x_t has 7 content tokens, more than k=6")):
        score(p, xts)


@pytest.mark.parametrize("mode", ["dise", "dice"])
def test_batch_of_one_is_loss_and_grad(mode):
    rng = np.random.default_rng(11)
    p = rand_params(rng, 4, mode, 5 if mode == "dice" else None)
    x_t, x_0, t = seq(A, 3, A), seq(A, B, 3, A, A), 0.61
    loss, grad = loss_and_grad(p, x_t, x_0, t)
    totals, per_position, packed = _loss_grad_from_ratios(
        p, [x_t], [dp.n_ratios_auto(x_t, x_0, 4).ratios], [t]
    )
    assert totals.tolist() == [loss.total]
    assert np.array_equal(per_position, loss.per_position)
    assert np.array_equal(packed.theta, grad.theta)
    if mode == "dise":
        assert np.array_equal(packed.time_bias, grad.time_bias)


@pytest.mark.parametrize("mode", ["dise", "dice"])
def test_one_pair_loss_is_objective_bit_for_bit_on_long_states(mode):
    # up to 12 gaps: the pairwise sums behind objective's totals and score's
    # dice normalizer differ from a plain running sum from 3 terms on
    for seed in range(30):
        rng = np.random.default_rng(seed)
        x_0 = seq(*rng.integers(1, 4, 12).tolist())
        keep = np.sort(rng.choice(12, size=int(rng.integers(2, 12)), replace=False))
        x_t = seq(*[x_0.content[i] for i in keep.tolist()])
        p = rand_params(rng, 4, mode, 12 if mode == "dice" else None)
        t = float(rng.uniform(0.02, 0.98))
        loss = objective.dise_loss if mode == "dise" else objective.dice_loss
        via_objective = loss(score(p, [x_t], t if mode == "dise" else None), x_t, x_0, t)
        direct, _ = loss_and_grad(p, x_t, x_0, t)
        assert direct.total == via_objective.total
        assert np.array_equal(direct.per_position, via_objective.per_position)


def test_packed_dice_names_the_first_pair_with_wrong_target_mass():
    rng = np.random.default_rng(4)
    p = rand_params(rng, 4, "dice", 6)
    xts, x0s, ts = mixed_batch(rng, 4, "dice")
    ratios = [m.ratios for m in dp.batched_n_ratios_auto(list(zip(xts, x0s)), 4)]
    ratios[2] = 2.0 * ratios[2]
    ratios[3] = 3.0 * ratios[3]
    m_model = 6 - xts[2].content_len
    assert m_model > 0
    msg = f"model is normalized for {m_model} missing tokens, targets say {float(ratios[2].sum())}"
    with pytest.raises(NormalizationViolation, match=re.escape(msg)):
        _loss_grad_from_ratios(p, xts, ratios, ts)


def test_gradient_zero_ratio_reduction():
    # x_t == x_0 in dise mode: every target is zero, so the loss is
    # weight * sum(s) and d/dz is weight * s itself
    rng = np.random.default_rng(1)
    p = rand_params(rng, 3, "dise")
    x = seq(A, B)
    t = 0.5
    loss, grad = loss_and_grad(p, x, x, t)
    s = score(p, [x], t)
    assert loss.total == pytest.approx(loss.weight * s.sum(), rel=1e-12)
    assert grad.theta.sum() == pytest.approx(loss.weight * s.sum(), rel=1e-10)


def test_dice_stationary_at_uniform_optimum():
    # single-symbol world: at theta = 0 the model matches the targets
    # exactly, so every gradient vanishes and training is a fixed point
    p = ScorerParams.init(2, "dice", k=2)
    x_0 = seq(A, A)
    for x_t in (Sequence((0,)), seq(A), seq(A, A)):
        _, grad = loss_and_grad(p, x_t, x_0, 0.5)
        assert np.linalg.norm(grad.theta) <= 1e-12

    vocab = Vocab.build(["a"])
    corpus = Corpus([x_0] * 8, vocab)
    trained, _ = train(p, corpus, {"epochs": 4, "batch": 4, "lr": 0.5, "optimizer": "adam", "seed": 0})
    assert np.array_equal(trained.theta, p.theta)


def test_time_bucket_edges():
    assert time_bucket(0.0) == 0
    assert time_bucket(0.999) == N_BUCKETS - 1
    assert time_bucket(1.0) == N_BUCKETS - 1


def test_time_buckets_of_an_array_equal_the_int_cast_of_each_time():
    edges = np.arange(N_BUCKETS + 1) / N_BUCKETS
    ts = np.concatenate(
        [timestep_grid(n, kind) for n in range(1, 129) for kind in GRID_KINDS]
        + [[objective.T_MIN], edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)]
    )
    ts = ts[(ts >= 0.0) & (ts <= 1.0)]
    assert time_bucket(ts).tolist() == [min(int(t * N_BUCKETS), N_BUCKETS - 1) for t in ts.tolist()]


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_time_bucket_of_a_non_finite_time_raises(bad):
    with pytest.raises(ValueError):
        time_bucket(bad)
    with pytest.raises(ValueError):
        time_bucket([0.5, bad])


def make_corpus(lines, symbols):
    vocab = Vocab.build(list(symbols))
    seqs = [Sequence(tuple([0] + [vocab.id_of(c) for c in line])) for line in lines]
    return Corpus(seqs, vocab)


def test_train_lr_zero_keeps_params():
    corpus = make_corpus(["ab", "ba"], "ab")
    p = ScorerParams.init(3, "dise")
    trained, metrics = train(p, corpus, {"epochs": 2, "batch": 2, "lr": 0.0, "optimizer": "adam", "seed": 1})
    assert np.array_equal(trained.theta, p.theta)
    assert len(metrics) == 2
    assert all("loss" in m for m in metrics)


def test_train_is_deterministic():
    corpus = make_corpus(["ab", "ba", "aa", "bb"], "ab")
    p = ScorerParams.init(3, "dise")
    cfg = {"epochs": 3, "batch": 2, "lr": 0.05, "optimizer": "adam", "seed": 9}
    t1, m1 = train(p, corpus, cfg)
    t2, m2 = train(p, corpus, cfg)
    assert np.array_equal(t1.theta, t2.theta)
    assert np.array_equal(t1.time_bias, t2.time_bias)
    assert m1 == m2


def test_train_with_sgd_learns_and_is_deterministic():
    corpus = make_corpus(["ab", "ba", "aab", "abb"], "ab")
    cfg = {"epochs": 40, "batch": 4, "lr": 0.1, "optimizer": "sgd", "seed": 4}
    t1, m1 = train(ScorerParams.init(3, "dise"), corpus, cfg)
    t2, m2 = train(ScorerParams.init(3, "dise"), corpus, cfg)
    losses = [m["loss"] for m in m1]
    assert np.isfinite(losses).all()
    assert np.mean(losses[-10:]) < 0.5 * np.mean(losses[:10])
    assert t1.theta.tobytes() == t2.theta.tobytes()
    assert t1.time_bias.tobytes() == t2.time_bias.tobytes()
    assert m1 == m2


def test_train_records_name_the_dp_domain():
    corpus = make_corpus(["ab", "ba", "aa", "bb"], "ab")
    cfg = {"epochs": 2, "batch": 2, "lr": 0.05, "optimizer": "adam", "seed": 9}
    _, metrics = train(ScorerParams.init(3, "dise"), corpus, cfg)
    assert [m["domain"] for m in metrics] == ["exact"] * 4

    # C(80, 40) > 2^64: a half-deleted line of 80 a's has more embeddings
    # than uint64 holds, so its batch climbs to the float rung
    corpus = make_corpus(["a" * 80] * 4, "a")
    cfg = {"epochs": 1, "batch": 4, "lr": 0.05, "optimizer": "adam", "seed": 3}
    _, metrics = train(ScorerParams.init(2, "dise"), corpus, cfg)
    assert [m["domain"] for m in metrics] == ["float"]


def test_train_data_dependence():
    p = ScorerParams.init(3, "dise")
    cfg = {"epochs": 2, "batch": 2, "lr": 0.1, "optimizer": "adam", "seed": 5}
    a, _ = train(p, make_corpus(["ab", "ab"], "ab"), cfg)
    b, _ = train(p, make_corpus(["ba", "ba"], "ab"), cfg)
    assert not np.array_equal(a.theta, b.theta)


def test_train_settings_are_required():
    corpus = make_corpus(["ab", "ba"], "ab")
    p = ScorerParams.init(3, "dise")
    full = {"epochs": 1, "batch": 2, "lr": 0.05, "optimizer": "adam", "seed": 0}
    for key in ("epochs", "batch", "lr", "optimizer"):
        cfg = {k: v for k, v in full.items() if k != key}
        with pytest.raises(ConfigError, match=f"missing '{key}'"):
            train(p, corpus, cfg)


@pytest.mark.parametrize("key", ["epochs", "batch"])
@pytest.mark.parametrize("bad", [2.7, True, False, "2", None, float("nan")])
def test_train_settings_refuse_a_count_that_is_not_a_whole_number(key, bad):
    cfg = {"epochs": 1, "batch": 2, "lr": 0.05, "optimizer": "adam", key: bad}
    with pytest.raises(ConfigError, match=f"^{key} must be a whole number, got "):
        train_settings(cfg)


def test_train_settings_take_whole_numbers_of_any_numeric_type():
    for epochs, batch in [(3, 2), (3.0, 2.0), (np.int64(3), np.int32(2))]:
        got = train_settings({"epochs": epochs, "batch": batch, "lr": 0.1, "optimizer": "sgd"})
        assert got == (3, 2, 0.1, "sgd") and all(type(v) is int for v in got[:2])


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf"), -1.0])
def test_train_settings_reject_a_learning_rate_that_is_not_finite_and_nonnegative(lr):
    cfg = {"epochs": 1, "batch": 2, "lr": lr, "optimizer": "adam", "seed": 0}
    with pytest.raises(ConfigError, match="^learning rate must be finite and >= 0, got "):
        train(ScorerParams.init(3, "dise"), make_corpus(["ab", "ba"], "ab"), cfg)


def test_train_dice_requires_equal_lengths():
    corpus = make_corpus(["ab", "a"], "ab")
    p = ScorerParams.init(3, "dice", k=2)
    cfg = {"epochs": 1, "batch": 2, "lr": 0.1, "optimizer": "adam", "seed": 0}
    with pytest.raises(ConfigError, match="equal-length"):
        train(p, corpus, cfg)


def test_train_single_sequence_dice_converges():
    # "ab" is fittable by the bigram table: no two states force different
    # distributions out of one (left, right) context
    corpus = make_corpus(["ab"] * 8, "ab")
    p = ScorerParams.init(3, "dice", k=2)
    trained, metrics = train(
        p, corpus, {"epochs": 250, "batch": 1, "lr": 0.1, "optimizer": "adam", "seed": 2}
    )
    first = metrics[0]["loss"]
    tail = np.mean([m["loss"] for m in metrics[-100:]])
    assert len(metrics) == 2000
    assert tail < 0.1 * first


def per_pair_train(params, corpus, config):
    """scorer.train's loop as it was before the step was packed: one draw per pair."""
    epochs, batch, lr, opt_name = train_settings(config)
    out = params.copy()
    arrays = [out.theta] + ([out.time_bias] if out.time_bias is not None else [])
    opts = [OPTIMIZERS[opt_name](lr) for _ in arrays]  # theta and the time bias stepped apart
    rng = np.random.default_rng(config.get("seed"))
    metrics = []
    for epoch in range(epochs):
        order = rng.permutation(len(corpus.sequences))
        for start in range(0, len(order), batch):
            draws = []
            for i in order[start : start + batch]:
                x_0 = corpus.sequences[int(i)]
                t = objective.T_MIN + (1.0 - objective.T_MIN) * float(rng.random())
                kept = rng.random(x_0.content_len) < survival_prob(0.0, t)
                x_t = Sequence((0, *(v for v, k in zip(x_0.content, kept) if k)))
                draws.append((x_t, x_0, t))
            mats = dp.batched_n_ratios_auto([(x_t, x_0) for x_t, x_0, _ in draws], out.vocab_size)
            xts, _, ts = zip(*draws)
            totals, _, grad = _loss_grad_from_ratios(out, list(xts), [m.ratios for m in mats], list(ts))
            n = len(draws)
            for opt, a, g in zip(opts, arrays, (grad.theta, grad.time_bias)):
                opt.step(a, g / n)
            metrics.append({"step": len(metrics), "epoch": epoch, "loss": float(totals.sum()) / n,
                            "domain": mats[0].domain})
    return out, metrics


@pytest.mark.parametrize(
    "mode", ["dise", "sgd", "dice", "long-lines", "near-the-bound", "over-budget", "odd-batch"])
def test_packed_train_step_is_the_per_pair_step(mode, monkeypatch):
    # per_pair_train steps theta and the time bias as two arrays; train as one flat buffer
    batch = 3  # divides neither of the first two corpora
    if mode in ("dise", "sgd"):  # ragged lines, a bos-only one among them
        lines = ["abcab", "", "ba", "aabbc", "c", "cabab", "bbaacab"]
    elif mode == "dice":
        lines = ["abca", "bcab", "aabb", "caba", "bbac"]
    elif mode == "long-lines":  # 80 a's mostly take the float rung, short lines stay exact
        lines, batch = ["abcab", "a" * 80, "ba", "", "a" * 80, "cab", "aabbc", "a" * 80, "c"], 2
    elif mode == "near-the-bound":  # lines of at most 66 tokens group, longer ones step alone
        rng = np.random.default_rng(24)
        sizes = [rng.integers(60, 67) if i % 2 else rng.integers(67, 81) for i in range(16)]
        lines, batch = ["".join(rng.choice(list("abc"), size=n)) for n in sizes], 2
    else:  # lines of 30 to 45 tokens: about 16 pairs fill a group's table, so an epoch splits
        rng = np.random.default_rng(29)
        n, batch = (40, 4) if mode == "over-budget" else (47, 5)  # 5 divides neither 47 nor 16
        lines = ["".join(rng.choice(list("abc"), size=rng.integers(30, 46))) for _ in range(n)]
    corpus = make_corpus(lines, "abc")
    p = ScorerParams.init(4, "dice" if mode == "dice" else "dise", k=4 if mode == "dice" else None)
    cfg = {"epochs": 6, "batch": batch, "lr": 0.2, "optimizer": "sgd" if mode == "sgd" else "adam",
           "seed": 11}
    shapes, pairs_of, overflowed = [], [], []  # each call's lockstep table and pair count; overflows
    start, ratios = dp._start, dp.batched_n_ratios

    def counted(pairs, *a):
        pairs_of.append(len(pairs))
        try:
            return ratios(pairs, *a)
        except Overflow:
            overflowed.append(len(pairs))
            raise

    with monkeypatch.context() as patch:
        patch.setattr(dp, "_start", lambda shape, domain: shapes.append(shape) or start(shape, domain))
        patch.setattr(dp, "batched_n_ratios", counted)
        got, got_metrics = train(p, corpus, cfg)
    want, want_metrics = per_pair_train(p, corpus, cfg)
    assert got.theta.tobytes() == want.theta.tobytes()
    if mode != "dice":
        assert got.time_bias.tobytes() == want.time_bias.tobytes()
    assert got_metrics == want_metrics
    assert len({m["loss"] for m in got_metrics}) > 1
    assert max(overflowed, default=0) <= batch  # no call of several steps overflowed
    if mode == "long-lines":  # a lone step of long lines climbed the ladder
        assert {m["domain"] for m in got_metrics} == {"exact", "float"} and overflowed
    if mode == "near-the-bound":  # a group of several steps had no x_0 past the exact bound
        several = [rows for (rows, _), n in zip(shapes, pairs_of, strict=True) if n > batch]
        bound = dp.EXACT_SAFE_ROWS
        assert several and max(several) <= dp.lockstep_table_shape([bound], bound)[0]
    if mode in ("over-budget", "odd-batch"):  # one exact table a group, of whole steps, in budget
        assert not overflowed and len(shapes) == len(pairs_of) > 2 * cfg["epochs"]
        assert sum(pairs_of) == cfg["epochs"] * len(lines)
        assert all(math.prod(s) * 8 <= scorer._GROUP_TABLE_BYTES for s in shapes)
        assert sum(n % batch != 0 for n in pairs_of) == (
            cfg["epochs"] if len(lines) % batch else 0)  # only an epoch's last group has a short step


@pytest.mark.parametrize("mode", ["dise", "dice"])
def test_train_makes_a_group_s_time_terms_in_one_pass(mode, monkeypatch):
    # survivals for the group's packed draw and weights for its preparation; none per step
    lines = ["abca", "bcab", "aabb", "caba", "bbac", "abcc", "cbba"]
    p = ScorerParams.init(4, mode, k=4 if mode == "dice" else None)
    cfg = {"epochs": 5, "batch": 2, "lr": 0.2, "optimizer": "adam", "seed": 3}
    calls, groups = [], []
    counted = lambda ts: calls.append(len(ts)) or time_terms(ts)
    auto = dp.batched_n_ratios_auto
    monkeypatch.setattr(process, "time_terms", counted)
    monkeypatch.setattr(scorer, "time_terms", counted)
    monkeypatch.setattr(dp, "batched_n_ratios_auto", lambda *a: groups.append(1) or auto(*a))
    _, metrics = train(p, make_corpus(lines, "abc"), cfg)
    assert len(metrics) > len(groups) > 0  # some groups hold several steps
    assert len(calls) == len(groups)
    assert sum(calls) == cfg["epochs"] * len(lines)


def test_train_raises_a_dice_mass_violation_at_its_step_after_the_earlier_records(monkeypatch):
    # a group's targets are prepared at once; the error still waits for its own step
    auto, groups = dp.batched_n_ratios_auto, []

    def corrupt(pairs, V):
        got = auto(pairs, V)
        ratios = got.ratios.copy()
        ratios[(np.cumsum(got.sizes) - got.sizes)[4:], 1] += 0.5  # pairs 4 on: the third step on
        groups.append(len(got))
        return dp.NRatioBatch(ratios, got.sizes, got.domain)

    monkeypatch.setattr(dp, "batched_n_ratios_auto", corrupt)
    lines = ["abca", "bcab", "aabb", "caba", "bbac", "abcc", "cbba", "ccab"]
    records = []
    cfg = {"epochs": 1, "batch": 2, "lr": 0.2, "optimizer": "adam", "seed": 3}
    with pytest.raises(NormalizationViolation, match=r"^model is normalized for \d missing tokens, targets say "):
        train(ScorerParams.init(4, "dice", k=4), make_corpus(lines, "abc"), cfg, records.append)
    assert groups == [8]
    assert [r["step"] for r in records] == [0, 1]


@pytest.mark.parametrize("mode", ["dise", "dice"])
def test_trained_params_share_no_memory_with_the_callers(mode):
    p = rand_params(np.random.default_rng(4), 4, mode, 4 if mode == "dice" else None)
    before = p.copy()
    lines = ["abca", "bcab", "aabb", "caba"]
    cfg = {"epochs": 2, "batch": 2, "lr": 0.2, "optimizer": "adam", "seed": 3}
    for lr in (0.0, 0.2):
        trained, _ = train(p, make_corpus(lines, "abc"), {**cfg, "lr": lr})
        for got, theirs in [(trained.theta, p.theta), (trained.time_bias, p.time_bias)]:
            assert got is None or not np.shares_memory(got, theirs)
        trained.theta[:] = 7.0  # writing the result leaves the caller's params as they were
    assert p.theta.tobytes() == before.theta.tobytes()
    if mode == "dise":
        assert p.time_bias.tobytes() == before.time_bias.tobytes()


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    for mode, k in (("dise", None), ("dice", 5)):
        p = rand_params(rng, 4, mode, k)
        path = tmp_path / f"{mode}.ckpt"
        save(p, path)
        q = load(path)
        assert q.mode == p.mode and q.k == p.k
        assert np.array_equal(q.theta, p.theta)
        if mode == "dise":
            assert np.array_equal(q.time_bias, p.time_bias)
        # byte-identical on re-save
        save(q, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_checkpoint_version_and_shape_errors(tmp_path):
    p = ScorerParams.init(3, "dise")
    path = tmp_path / "x.ckpt"
    save(p, path)
    raw = path.read_bytes()
    head, _, payload = raw.partition(b"\n")
    bad_version = head.replace(b'"version": 1', b'"version": 9')
    (tmp_path / "v.ckpt").write_bytes(bad_version + b"\n" + payload)
    with pytest.raises(VersionMismatch):
        load(tmp_path / "v.ckpt")
    (tmp_path / "s.ckpt").write_bytes(head + b"\n" + payload[:-8])
    with pytest.raises(ShapeMismatch):
        load(tmp_path / "s.ckpt")
    (tmp_path / "j.ckpt").write_bytes(b"\x00\x01binarygarbage")
    with pytest.raises(VersionMismatch):
        load(tmp_path / "j.ckpt")
    for old, new, err in (
        (b'"mode": "dise", ', b"", VersionMismatch),
        (b'"mode": "dise"', b'"mode": "other"', VersionMismatch),
        (b'"vocab_size": 3', b'"vocab_size": "x"', ShapeMismatch),
        (b'"vocab_size": 3', b'"vocab_size": -1', ShapeMismatch),
        (b'"vocab_size": 3', b'"vocab_size": 0', ShapeMismatch),
        (b'"k": null', b'"k": "x"', ShapeMismatch),
        (b'"k": null', b'"k": 2.5', ShapeMismatch),
    ):
        assert old in head
        (tmp_path / "h.ckpt").write_bytes(head.replace(old, new) + b"\n" + payload)
        with pytest.raises(err):
            load(tmp_path / "h.ckpt")
    (tmp_path / "h.ckpt").write_bytes(b"[1]\n" + payload)
    with pytest.raises(VersionMismatch):
        load(tmp_path / "h.ckpt")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_checkpoint_with_a_non_finite_value_is_refused(tmp_path, bad):
    p = ScorerParams.init(3, "dise")
    save(p, tmp_path / "bad.ckpt")
    p.theta[1, 2, 0] = bad
    p.time_bias[4, 1] = bad
    with pytest.raises(NonFinite, match="^params hold 2 non-finite values; no checkpoint written$"):
        save(p, tmp_path / "bad.ckpt")
    header = (tmp_path / "bad.ckpt").read_bytes().split(b"\n")[0] + b"\n"
    (tmp_path / "bad.ckpt").write_bytes(header + p.theta.tobytes() + p.time_bias.tobytes())
    with pytest.raises(ShapeMismatch, match="^payload holds 2 non-finite values$"):
        load(tmp_path / "bad.ckpt")


def test_failed_save_keeps_previous_checkpoint(tmp_path):
    path = tmp_path / "m.ckpt"
    save(ScorerParams.init(3, "dise"), path)
    before = path.read_bytes()
    bad = ScorerParams.init(3, "dise")
    bad.theta = np.full((3, 3, 3), "x", dtype=object)  # fails after the header is written
    with pytest.raises(ValueError):
        save(bad, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
