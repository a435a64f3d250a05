"""Acceptance suite: one test per release criterion, run with pytest -v.

These are the slow, end-to-end checks; the per-module test files carry the
fast unit coverage.  Everything here is seeded, so failures reproduce.
"""

import json

import numpy as np
import pytest

from delins import cli, dp, objective, oracle, verify
from delins import sampler as sampler_mod
from delins import scorer as scorer_mod
from delins.errors import Overflow
from delins.process import forward_sample, transition_prob
from delins.seqcore import Corpus, Sequence, Vocab


def random_pair(rng, max_len, vocab_size):
    """A guaranteed (subsequence, sequence) pair with random content."""
    m = int(rng.integers(2, max_len + 1))
    content = tuple(int(v) for v in rng.integers(1, vocab_size, size=m))
    n = int(rng.integers(0, m))
    keep = sorted(rng.choice(m, size=n, replace=False).tolist())
    x_0 = Sequence((0,) + content)
    x_t = Sequence((0,) + tuple(content[i] for i in keep))
    return x_t, x_0


def length_cdf_distance(a, b):
    grid = np.arange(0, max(a.max(), b.max()) + 2)
    fa = np.searchsorted(np.sort(a), grid, side="right") / len(a)
    fb = np.searchsorted(np.sort(b), grid, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def test_c01_count_oracle_sweep_small_world():
    verify.check_exhaustive_small_world()

    # spot-check the full prefix/suffix tables cell by cell against the
    # recursive enumerator on a seeded sample of the same family
    rng = np.random.default_rng(81)
    for _ in range(300):
        x_t, x_0 = random_pair(rng, 8, 4)
        pt = dp.prefix_table(x_t, x_0)
        st = dp.suffix_table(x_t, x_0)
        for i in range(len(x_t) + 1):
            for j in range(len(x_0) + 1):
                assert int(pt[i, j]) == dp.brute_count(x_t.ids[:i], x_0.ids[:j])
                assert int(st[i, j]) == dp.brute_count(x_t.ids[i:], x_0.ids[j:])


def test_c02_worked_examples():
    verify.check_worked_example_counts()


def test_c03_normalization_identities_bulk():
    rng = np.random.default_rng(303)
    for _ in range(10_000):
        x_t, x_0 = random_pair(rng, 40, 6)
        gap = x_0.content_len - x_t.content_len
        grid = dp.insertion_counts(x_t, x_0, 6)
        count = dp.subsequence_count(x_t, x_0)
        assert int(grid.sum()) == count * gap  # integer-exact split of the grid
        mat = dp.n_ratios(x_t, x_0, 6)
        assert mat.grand_sum == pytest.approx(gap, rel=1e-12, abs=1e-12)


def test_c04_log_domain_accuracy():
    rng = np.random.default_rng(404)
    compared = 0
    for _ in range(300):
        x_t, x_0 = random_pair(rng, 64, 6)
        try:
            exact = dp.n_ratios(x_t, x_0, 6, domain="exact").ratios
        except Overflow:
            continue
        via_log = dp.n_ratios(x_t, x_0, 6, domain="log").ratios
        pos = exact > 0
        assert np.all(via_log[~pos] == 0.0)
        rel = np.abs(via_log[pos] - exact[pos]) / exact[pos]
        assert rel.size == 0 or rel.max() <= 1e-9
        compared += 1
    assert compared >= 250

    verify.check_long_pair_log_accuracy()


def test_c05_forward_process_correctness():
    instances = [Sequence((0, 1, 2, 1, 3)), Sequence((0, 1, 1, 2))]
    for x_0, t, seed in [(instances[0], 0.6, 50), (instances[1], 0.35, 51)]:
        states = list(oracle.subsequence_enumeration(x_0))
        exact = {
            ids: transition_prob(Sequence(ids), x_0, 0.0, t) for ids in states
        }
        assert sum(exact.values()) == pytest.approx(1.0, abs=1e-9)
        rng = np.random.default_rng(seed)
        counts = {ids: 0 for ids in states}
        draws = 100_000
        for _ in range(draws):
            counts[forward_sample(x_0, t, rng).ids] += 1
        tv = 0.5 * sum(abs(counts[ids] / draws - exact[ids]) for ids in states)
        assert tv <= 0.01

    # the kernel normalizes at other times too
    for t in (0.1, 0.5, 0.9):
        total = sum(
            transition_prob(Sequence(ids), instances[0], 0.0, t)
            for ids in oracle.subsequence_enumeration(instances[0])
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def test_c06_insertion_bound_over_tiny_family():
    verify.check_score_bound_family()


def test_c07_cross_entropy_matches_score_entropy_when_normalized():
    rng = np.random.default_rng(707)
    for _ in range(1000):
        x_t, x_0 = random_pair(rng, 12, 5)
        if x_0.content_len == x_t.content_len:
            continue
        missing = x_0.content_len - x_t.content_len
        scores = rng.uniform(0.1, 2.0, size=(len(x_t), 5))
        scores[:, 0] = 0.0
        scores *= missing / scores.sum()
        dise = objective.dise_loss(scores, x_t, x_0, 0.5).total
        dice = objective.dice_loss(scores, x_t, x_0, 0.5).total
        assert dice == pytest.approx(dise, rel=1e-9, abs=1e-9)

    # the cross entropy bottoms out at zero on the exact targets
    for seed in range(50):
        r = np.random.default_rng(7000 + seed)
        x_t, x_0 = random_pair(r, 10, 4)
        if x_0.content_len == x_t.content_len:
            continue
        ratios = dp.n_ratios(x_t, x_0, 4).ratios
        assert objective.dice_loss(ratios, x_t, x_0, 0.5).total == pytest.approx(
            0.0, abs=1e-12
        )


def test_c08_gradient_correctness_both_modes():
    rng = np.random.default_rng(808)
    for mode in ("dise", "dice"):
        worst = 0.0
        for _ in range(50):
            m = int(rng.integers(3, 7))
            content = tuple(int(v) for v in rng.integers(1, 4, size=m))
            x_0 = Sequence((0,) + content)
            n = int(rng.integers(0, m))
            keep = sorted(rng.choice(m, size=n, replace=False).tolist())
            x_t = Sequence((0,) + tuple(content[i] for i in keep))
            base = scorer_mod.ScorerParams.init(4, mode, k=m if mode == "dice" else None)
            theta = rng.normal(0.0, 0.5, base.theta.shape)
            tb = None if base.time_bias is None else rng.normal(0.0, 0.5, base.time_bias.shape)
            params = scorer_mod.ScorerParams(mode, theta, tb, base.k)
            t = float(rng.uniform(0.15, 0.9))
            worst = max(worst, scorer_mod.gradcheck(params, x_t, x_0, t))
        assert worst <= 1e-5


def test_c09_oracle_generation_converges():
    verify.check_population_sampling()


def test_c10_toy_training_learns_lengths():
    # synthetic corpus: alphabet prefixes, so gap contexts carry position and
    # the scorer family can genuinely represent the length statistics
    base = "abcdefghijkl"
    rng = np.random.default_rng(424)
    raw = 3 + rng.geometric(0.25, size=4000)
    lens = raw[(raw >= 4) & (raw <= 12)][:500]
    assert len(lens) == 500
    lines = [base[: int(n)] for n in lens]
    corpus_lengths = np.array([len(l) for l in lines])

    vocab = Vocab.build(sorted(set("".join(lines))))
    assert len(vocab) <= 20
    seqs = [Sequence((0,) + tuple(vocab.id_of(c) for c in line)) for line in lines]
    corpus = Corpus(seqs, vocab)

    params = scorer_mod.ScorerParams.init(len(vocab), "dise")
    trained, metrics = scorer_mod.train(
        params,
        corpus,
        {"epochs": 312, "batch": 32, "lr": 0.05, "optimizer": "adam", "seed": 31},
    )
    assert len(metrics) <= 5000
    first = np.mean([m["loss"] for m in metrics[:100]])
    last = np.mean([m["loss"] for m in metrics[-100:]])
    assert last < 0.5 * first

    cfg = sampler_mod.SamplerConfig(steps=32, seed=77)
    traces, _ = sampler_mod.batch_generate(scorer_mod.score, trained, cfg, 500)
    gen_lengths = np.array([tr.final.content_len for tr in traces])
    assert length_cdf_distance(corpus_lengths, gen_lengths) <= 0.1


def test_c11_dp_scaling_exponent(tmp_path):
    metrics = tmp_path / "bench.jsonl"
    code = cli.main([
        "bench", "--lengths", "256,512,1024,2048", "--batch", "2", "--reps", "3",
        "--metrics", str(metrics),
    ])
    assert code == 0
    rows = [json.loads(line) for line in metrics.read_text().splitlines()]
    exponent = rows[-1]["exponent"]
    assert 1.0 < exponent < 2.0


def test_c12_fixed_seed_runs_are_byte_reproducible(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(["abcab", "bcaab", "aabbc", "cabab", "bbaac"] * 3) + "\n")
    ckpt = tmp_path / "m.ckpt"
    metrics = tmp_path / "metrics.jsonl"
    train_argv = [
        "train", "--corpus", str(corpus), "--epochs", "4", "--seed", "13",
        "--checkpoint-out", str(ckpt), "--metrics", str(metrics), "--no-timing",
    ]
    train_grabs = []
    for _ in range(2):
        assert cli.main(train_argv) == 0
        train_grabs.append((metrics.read_bytes(), ckpt.read_bytes()))
    assert train_grabs[0] == train_grabs[1]

    out = tmp_path / "samples.jsonl"
    sample_argv = [
        "sample", "--checkpoint", str(ckpt), "--steps", "8", "--count", "5",
        "--seed", "11", "--out", str(out),
    ]
    sample_grabs = []
    for _ in range(2):
        assert cli.main(sample_argv) == 0
        sample_grabs.append(out.read_bytes())
    assert sample_grabs[0] == sample_grabs[1]
