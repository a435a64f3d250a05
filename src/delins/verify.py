"""Self-check suites: fast identity checks plus exhaustive tiny sweeps.

The quick level re-derives the load-bearing identities on the spot (counts
against brute force, ratio normalization, schedule algebra, objective
agreement, gradients, sampler determinism) and finishes well under a
minute.  The full level adds the exhaustive small-world sweeps and a
population-level sampling test against the exact tiny-instance posterior.

Every check calls into the library through the module objects, so a broken
build of any engine shows up as a FAIL here rather than as silent drift.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import dp, objective, oracle, sampler, scorer
from .errors import ConfigError
from .process import T_MAX, forward_sample, sigma, sigma_bar, survival_prob, transition_prob
from .seqcore import Sequence


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _seq(*ids):
    return Sequence((0,) + tuple(ids))


def _random_pair(rng, max_len: int, vocab_size: int) -> tuple[Sequence, Sequence]:
    n = int(rng.integers(1, max_len + 1))
    content = tuple(int(v) for v in rng.integers(1, vocab_size, size=n))
    keep = sorted(
        rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist()
    )
    return _seq(*(content[i] for i in keep)), _seq(*content)


# ---------------------------------------------------------------------------
# quick checks


def check_worked_example_counts() -> str:
    bag, babgbag = _seq(2, 1, 3), _seq(2, 1, 2, 3, 2, 1, 3)
    n = dp.subsequence_count(bag, babgbag)
    assert n == 5, f"expected 5 embeddings, got {n}"
    grid = dp.insertion_counts(_seq(2), _seq(2, 2, 2), 3)
    assert int(grid.sum()) == int(2 * dp.subsequence_count(_seq(2), _seq(2, 2, 2)))
    return "count 5 and the multiplicity grid both reproduced"


def check_ratio_grand_sum_identity() -> str:
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(300):
        x_t, x_0 = _random_pair(rng, 24, 6)
        diff = x_0.content_len - x_t.content_len
        for domain in ("exact", "log"):
            mat = dp.n_ratios(x_t, x_0, 6, domain=domain)
            rel = abs(mat.grand_sum - diff) / max(1, diff)
            worst = max(worst, rel)
            assert rel <= 1e-9, (domain, x_t.ids, x_0.ids, rel)
    return f"300 pairs, both domains, worst rel err {worst:.2e}"


def check_count_split_identity() -> str:
    rng = np.random.default_rng(102)
    for _ in range(200):
        x_t, x_0 = _random_pair(rng, 20, 5)
        total = int(dp.insertion_counts(x_t, x_0, 5).sum())
        n = int(dp.subsequence_count(x_t, x_0))
        gap = x_0.content_len - x_t.content_len
        assert total == n * gap, (x_t.ids, x_0.ids, total, n)
    return "200 pairs, insertion grids total N * (length gap)"


def check_schedule_algebra() -> str:
    assert math.isclose(sigma(0.5), 2.0, rel_tol=1e-12)
    assert math.isclose(sigma_bar(0.5), math.log(2.0), rel_tol=1e-12)
    assert math.isclose(survival_prob(0.0, 0.5), 0.5, rel_tol=1e-12)
    a = survival_prob(0.0, 0.25) * survival_prob(0.25, 0.7)
    assert math.isclose(a, survival_prob(0.0, 0.7), rel_tol=1e-12)
    return "closed forms and composition hold"


def _distinct_subsequences(x_0: Sequence) -> list[Sequence]:
    content = x_0.content
    seen = set()
    for r in range(len(content) + 1):
        for combo in itertools.combinations(content, r):
            seen.add(combo)
    return [_seq(*c) for c in sorted(seen, key=lambda c: (len(c), c))]


def check_transition_normalization() -> str:
    for x_0 in (_seq(1, 2), _seq(1, 2, 1), _seq(2, 2, 1)):
        for t in (0.3, 0.8):
            total = sum(
                transition_prob(x_t, x_0, 0.0, t)
                for x_t in _distinct_subsequences(x_0)
            )
            assert abs(total - 1.0) <= 1e-9, (x_0.ids, t, total)
    return "forward kernels sum to one over the subsequence lattice"


def check_forward_sample_agreement() -> str:
    rng = np.random.default_rng(103)
    x_0, t = _seq(1, 2), 0.5
    counts: dict[tuple, int] = {}
    n = 20_000
    for _ in range(n):
        ids = forward_sample(x_0, t, rng).ids
        counts[ids] = counts.get(ids, 0) + 1
    tv = 0.5 * sum(
        abs(counts.get(x.ids, 0) / n - transition_prob(x, x_0, 0.0, t))
        for x in _distinct_subsequences(x_0)
    )
    assert tv < 0.02, f"TV {tv}"
    return f"20k draws, TV {tv:.4f} against the exact kernel"


def check_objective_agreement() -> str:
    rng = np.random.default_rng(104)
    x_0, k = _seq(1, 2, 1), 3
    worst = 0.0
    for _ in range(200):
        keep = sorted(rng.choice(3, rng.integers(0, 4), replace=False).tolist())
        x_t = _seq(*(x_0.content[i] for i in keep))
        t = 0.05 + 0.9 * rng.random()
        s = rng.uniform(0.1, 3.0, size=(len(x_t), 3))
        s[:, 0] = 0.0
        missing = k - x_t.content_len
        if s[:, 1:].sum() == 0:
            continue
        s[:, 1:] *= missing / s[:, 1:].sum()
        if missing == 0:
            continue
        a = objective.dise_loss(s, x_t, x_0, t).total
        b = objective.dice_loss(s, x_t, x_0, t).total
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    assert worst <= 1e-9, f"objectives disagree by {worst}"
    return f"normalized matrices: losses agree, worst rel gap {worst:.2e}"


def check_oracle_objective_bound() -> str:
    dist = oracle.TinyDistribution.uniform([_seq(1, 2), _seq(2, 1)])
    provider = lambda x, t: oracle.exact_insertion_matrix(dist, x, t)
    concrete = oracle.concrete_provider_from_matrix(provider)
    gaps = []
    for t in (0.25, 0.6, 0.9):
        dise = oracle.exact_dise(dist, provider, t)
        dse = oracle.exact_dse(dist, concrete, t)
        assert dise >= dse - 1e-9, (t, dise, dse)
        gaps.append(dise - dse)
    return f"score-entropy bound holds, gaps {['%.2e' % g for g in gaps]}"


def check_gradients() -> str:
    worst = 0.0
    for mode, k in (("dise", None), ("dice", 4)):
        params = scorer.ScorerParams.init(3, mode, k=k)
        rng = np.random.default_rng(105)
        params.theta[:] = rng.normal(0, 0.3, size=params.theta.shape)
        if params.time_bias is not None:
            params.time_bias[:] = rng.normal(0, 0.3, size=params.time_bias.shape)
        err = scorer.gradcheck(params, _seq(1, 2), _seq(1, 2, 1, 2), 0.45)
        worst = max(worst, err)
    assert worst <= 1e-5, f"gradcheck rel err {worst}"
    return f"finite differences agree, worst rel err {worst:.2e}"


def check_sampler_determinism() -> str:
    grid = sampler.timestep_grid(7, "cosine")
    assert grid[0] == 1.0 and grid[-1] == 0.0 and np.all(np.diff(grid) < 0)
    params = scorer.ScorerParams.init(3, "dise")
    cfg = sampler.SamplerConfig(steps=10, seed=7)
    a = sampler.generate(scorer.score, params, cfg)
    b = sampler.generate(scorer.score, params, cfg)
    assert [x.ids for _, x in a.snapshots] == [x.ids for _, x in b.snapshots]
    traces, _ = sampler.batch_generate(scorer.score, params, cfg, 3)
    for i, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(3)):
        lone = sampler.generate(scorer.score, params, cfg, rng=np.random.default_rng(child))
        assert [x.ids for _, x in traces[i].snapshots] == [x.ids for _, x in lone.snapshots], (
            f"batched walker {i} differs from generate on its child stream"
        )
        assert traces[i].stats == lone.stats, f"batched walker {i} stats differ"
    return "grids well formed; repeated runs identical; batched walkers equal lone runs"


def check_log_fallback() -> str:
    # C(80, 30) overflows uint64 and lands on the float rung; C(1100, 550)
    # overflows float64 too and lands on log.  Both keep the grand-sum identity.
    details = []
    for n, m, rung in ((30, 80, "float"), (550, 1100, "log")):
        mat = dp.n_ratios_auto(_seq(*([1] * n)), _seq(*([1] * m)), 2)
        assert mat.domain == rung, f"C({m}, {n}) landed on {mat.domain}, not {rung}"
        assert np.all(np.isfinite(mat.ratios))
        rel = abs(mat.grand_sum - (m - n)) / (m - n)
        assert rel <= 1e-6, f"{rung} grand sum rel err {rel}"
        details.append(f"{rung} grand sum rel err {rel:.2e}")
    return "overflowing pairs handled: " + ", ".join(details)


# ---------------------------------------------------------------------------
# full-level checks


def check_exhaustive_small_world() -> str:
    pairs = 0
    for vocab_size, max_len in ((3, 4), (2, 5)):
        for n in range(max_len + 1):
            for content in itertools.product(range(1, vocab_size + 1), repeat=n):
                x_0 = _seq(*content)
                for sub_ids, expected in oracle.subsequence_enumeration(x_0).items():
                    x_t = Sequence(sub_ids)
                    assert int(dp.subsequence_count(x_t, x_0)) == expected
                    grid = dp.insertion_counts(x_t, x_0, vocab_size + 1)
                    gap = x_0.content_len - x_t.content_len
                    assert int(grid.sum()) == expected * gap
                    pairs += 1
    return f"{pairs} (state, sequence) pairs match enumeration"


def check_score_bound_family() -> str:
    world = [_seq(1), _seq(2), _seq(1, 2), _seq(2, 1), _seq(1, 1)]
    checked = 0
    for support in itertools.combinations(world, 2):
        dist = oracle.TinyDistribution.uniform(list(support))
        provider = (
            lambda x, t, d=dist: oracle.exact_insertion_matrix(d, x, t)
        )
        concrete = oracle.concrete_provider_from_matrix(provider)
        for t in (0.35, 0.75):
            dise = oracle.exact_dise(dist, provider, t)
            dse = oracle.exact_dse(dist, concrete, t)
            assert dise >= dse - 1e-9, (support, t)
            checked += 1
    return f"{checked} (support, time) combinations satisfy the bound"


def check_population_sampling() -> str:
    dist = oracle.TinyDistribution.uniform([_seq(1, 2), _seq(2, 1)])
    finals, stats = population_sample(dist, steps=256, count=20_000, seed=11)
    tv = population_tv(dist, finals)
    assert tv <= 0.05, f"TV {tv}"
    clamp_rate = stats["clamp_events"] / max(1, stats["gap_steps"])
    assert clamp_rate < 0.01, f"clamp rate {clamp_rate}"
    return f"20k walkers at 256 steps: TV {tv:.4f}, clamp rate {clamp_rate:.2e}"


def check_long_pair_log_accuracy() -> str:
    rng = np.random.default_rng(106)
    content = tuple(int(v) for v in rng.integers(1, 4, size=256))
    keep = sorted(rng.choice(256, size=128, replace=False).tolist())
    x_0 = _seq(*content)
    x_t = _seq(*(content[i] for i in keep))
    mat = dp.n_ratios(x_t, x_0, 4, domain="log")
    assert np.all(np.isfinite(mat.ratios))
    rel = abs(mat.grand_sum - 128.0) / 128.0
    assert rel <= 1e-6, f"grand sum rel err {rel}"
    return f"length-256 pair: finite ratios, grand sum rel err {rel:.2e}"


# ---------------------------------------------------------------------------
# population-level sampling (exact aggregation of the per-walker process)


def _leap_outcomes(p_ins: np.ndarray, cond: np.ndarray):
    """All joint per-gap outcomes of one leap with their probabilities.

    Walkers in the same state are exchangeable, so one enumeration serves
    the whole population.
    """
    outcomes: list[tuple[float, tuple]] = [(1.0, ())]
    for i in range(len(p_ins)):
        options: list[tuple[float, int | None]] = [(1.0 - p_ins[i], None)]
        if p_ins[i] > 0.0:
            for v in np.nonzero(cond[i])[0]:
                options.append((float(p_ins[i] * cond[i, v]), int(v)))
        outcomes = [
            (prob * q, ins if v is None else ins + ((i, v),))
            for prob, ins in outcomes
            for q, v in options
            if prob * q > 0.0
        ]
    return outcomes


def population_sample(
    dist,
    steps: int,
    count: int,
    seed: int | None,
) -> tuple[dict[tuple, int], dict]:
    """Run `count` oracle-guided walkers at once, grouped by state.

    Distributionally identical to `count` independent generate() calls with
    oracle-exact scores: the per-gap probabilities come from the same
    production code, and walkers sharing a state draw from the same joint
    outcome law, so the population splits multinomially.  Off-lattice
    states (reachable only by simultaneous-insertion leaps) are absorbing.
    Returns final state counts and {gap_steps, clamp_events} totals.
    """
    rng = np.random.default_rng(seed)
    times = sampler.timestep_grid(steps)
    population: dict[tuple, int] = {(0,): count}
    dead: dict[tuple, int] = {}
    matrix_cache: dict[tuple, np.ndarray | None] = {}
    gap_steps = 0
    clamp_events = 0
    for k in range(steps):
        t, t_next = float(times[k]), float(times[k + 1])
        dt = t - t_next
        nxt: dict[tuple, int] = {}
        for ids, c in sorted(population.items()):
            x = Sequence(ids)
            key = (ids, round(t, 15))
            if key not in matrix_cache:
                try:
                    matrix_cache[key] = oracle.exact_insertion_matrix(dist, x, min(t, T_MAX))
                except oracle.ZeroDenominator:
                    matrix_cache[key] = None
            mat = matrix_cache[key]
            if mat is None:
                dead[ids] = dead.get(ids, 0) + c
                continue
            p_ins, cond, clamped = sampler.gap_insertion_probabilities(mat, t, dt)
            gap_steps += len(x) * c
            clamp_events += int(clamped.sum()) * c
            outcomes = _leap_outcomes(p_ins, cond)
            probs = np.array([p for p, _ in outcomes])
            draws = rng.multinomial(c, probs / probs.sum())
            for (prob, ins), m in zip(outcomes, draws):
                if m == 0:
                    continue
                y = x
                for i, v in sorted(ins, reverse=True):
                    y = y.insert_after(i, v)
                nxt[y.ids] = nxt.get(y.ids, 0) + int(m)
        population = nxt
    for ids, c in dead.items():
        population[ids] = population.get(ids, 0) + c
    return population, {"gap_steps": gap_steps, "clamp_events": clamp_events}


def population_tv(dist, finals: dict[tuple, int]) -> float:
    """Total variation between final-state frequencies and the target."""
    total = sum(finals.values())
    support = {x.ids: p for x, p in dist.support}
    tv = 0.0
    for ids, c in finals.items():
        tv += abs(c / total - support.get(ids, 0.0))
    for ids, p in support.items():
        if ids not in finals:
            tv += p
    return 0.5 * tv


# ---------------------------------------------------------------------------
# suite runner

QUICK_CHECKS = [
    ("worked-example-counts", check_worked_example_counts),
    ("ratio-grand-sum-identity", check_ratio_grand_sum_identity),
    ("count-split-identity", check_count_split_identity),
    ("schedule-algebra", check_schedule_algebra),
    ("transition-normalization", check_transition_normalization),
    ("forward-sample-agreement", check_forward_sample_agreement),
    ("objective-agreement", check_objective_agreement),
    ("oracle-objective-bound", check_oracle_objective_bound),
    ("gradients", check_gradients),
    ("sampler-determinism", check_sampler_determinism),
    ("log-fallback", check_log_fallback),
]

FULL_CHECKS = [
    ("exhaustive-small-world", check_exhaustive_small_world),
    ("score-bound-family", check_score_bound_family),
    ("population-sampling", check_population_sampling),
    ("long-pair-log-accuracy", check_long_pair_log_accuracy),
]


def run(level: str = "quick") -> list[CheckResult]:
    """Run the named suite; a check fails by raising, never by exiting."""
    if level == "quick":
        checks = list(QUICK_CHECKS)
    elif level == "full":
        checks = QUICK_CHECKS + FULL_CHECKS
    else:
        raise ConfigError(f"unknown verify level {level!r}")
    results = []
    for name, fn in checks:
        start = perf_counter()
        try:
            detail = fn() or ""
            ok = True
        except Exception as exc:  # a failing check must not kill the suite
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        results.append(CheckResult(name, ok, detail, perf_counter() - start))
    return results
