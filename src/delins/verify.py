"""Self-check suites: fast identity checks plus exhaustive tiny sweeps.

The quick level re-derives the load-bearing identities on the spot (counts
against brute force, ratio normalization, schedule algebra, objective
agreement, gradients, sampler determinism) in under a second.  The full
level adds the checks acceptance criteria c01, c04, c06 and c09 call, at
their sizes: the exhaustive count sweep, long log-domain pairs, the
score-entropy bound over tiny supports and population-level sampling; the
README gives its wall time.

Every check calls into the library through the module objects, so a broken
build of any engine shows up as a FAIL here rather than as silent drift.
Checks raise AssertionError themselves, so `python -O` keeps them.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import dp, objective, oracle, sampler, scorer
from .errors import ConfigError, Overflow
from .process import T_MAX, forward_sample, sigma, sigma_bar, survival_prob, transition_prob
from .seqcore import Batch, Sequence


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _seq(*ids):
    return Sequence((0,) + tuple(ids))


def _require(ok, fmt: str, *args) -> None:
    """Fail the check unless ok; the message fmt.format(*args) is built only on failure."""
    if not ok:
        raise AssertionError(fmt.format(*args))


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
    """c02: bag in babgbag under either labelling of b and a, and bag in baag."""
    g = 3
    for b, a in ((1, 2), (2, 1)):
        n = dp.subsequence_count(_seq(b, a, g), _seq(b, a, b, g, b, a, g))
        _require(n == 5, "expected 5 embeddings, got {}", n)
    b, a = 1, 2
    bag, baag = _seq(b, a, g), _seq(b, a, a, g)
    n = dp.subsequence_count(bag, baag)
    _require(n == 2, "expected 2 embeddings of bag in baag, got {}", n)
    # inserting a after position 1 or 2 of (bos b a g) both give (bos b a a g)
    grid = dp.insertion_counts(bag, baag, 4)
    expected = np.zeros((4, 4), dtype=np.uint64)
    expected[1, a] = expected[2, a] = 1
    _require(np.array_equal(grid, expected) and int(grid.sum()) == 2, "bag -> baag grid {}", grid)
    grid = dp.insertion_counts(_seq(2), _seq(2, 2, 2), 3)
    n = dp.subsequence_count(_seq(2), _seq(2, 2, 2))
    _require(int(grid.sum()) == int(2 * n), "grid of a in aaa sums to {}, N {}", grid.sum(), n)
    return "counts 5 and 2 and both multiplicity grids reproduced"


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
            _require(rel <= 1e-9, "{} {} in {}: rel err {}", domain, x_t.ids, x_0.ids, rel)
    return f"300 pairs, both domains, worst rel err {worst:.2e}"


def check_count_split_identity() -> str:
    rng = np.random.default_rng(102)
    for _ in range(200):
        x_t, x_0 = _random_pair(rng, 20, 5)
        total = int(dp.insertion_counts(x_t, x_0, 5).sum())
        n = int(dp.subsequence_count(x_t, x_0))
        gap = x_0.content_len - x_t.content_len
        _require(total == n * gap, "{} in {}: grid total {}, N {}", x_t.ids, x_0.ids, total, n)
    return "200 pairs, insertion grids total N * (length gap)"


def check_schedule_algebra() -> str:
    composed = survival_prob(0.0, 0.25) * survival_prob(0.25, 0.7)
    for got, want in ((sigma(0.5), 2.0), (sigma_bar(0.5), math.log(2.0)),
                      (survival_prob(0.0, 0.5), 0.5), (composed, survival_prob(0.0, 0.7))):
        _require(math.isclose(got, want, rel_tol=1e-12), "{} is not {}", got, want)
    return "closed forms and composition hold"


def check_transition_normalization() -> str:
    for x_0 in (_seq(1, 2), _seq(1, 2, 1), _seq(2, 2, 1)):
        for t in (0.3, 0.8):
            total = sum(
                transition_prob(Sequence(ids), x_0, 0.0, t)
                for ids in oracle.subsequence_enumeration(x_0)
            )
            _require(abs(total - 1.0) <= 1e-9, "{} at t={}: total {}", x_0.ids, t, total)
    return "forward kernels sum to one over the subsequence lattice"


def check_forward_sample_agreement() -> str:
    rng = np.random.default_rng(103)
    x_0, t = _seq(1, 2), 0.3  # survival 0.7, so a draw handed t in place of it fails
    n = 20_000
    draws = Batch(np.tile(x_0.ids, n), np.full(n, len(x_0)))  # one packed draw, as training makes
    survivals = np.full(n, survival_prob(0.0, t))  # what the packed draw reads
    counts = Counter(x_t.ids for x_t in forward_sample(draws, survivals, rng.random(n * len(x_0))))
    tv = 0.5 * sum(
        abs(counts.get(ids, 0) / n - transition_prob(Sequence(ids), x_0, 0.0, t))
        for ids in oracle.subsequence_enumeration(x_0)
    )
    _require(tv < 0.02, "TV {}", tv)
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
        s[:, 1:] *= missing / s[:, 1:].sum()
        if missing == 0:
            continue
        a = objective.dise_loss(s, x_t, x_0, t).total
        b = objective.dice_loss(s, x_t, x_0, t).total
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    _require(worst <= 1e-9, "objectives disagree by {}", worst)
    return f"normalized matrices: losses agree, worst rel gap {worst:.2e}"


def _score_bound_gaps(support, times) -> list[float]:
    """DISE - DSE at each time of the uniform distribution over support, scored by
    its exact insertion matrix and the concrete scores recast from it."""
    dist = oracle.TinyDistribution.uniform(list(support))
    provider = lambda x, t: oracle.exact_insertion_matrix(dist, x, t)
    concrete = oracle.concrete_provider_from_matrix(provider)
    return [oracle.exact_dise(dist, provider, t) - oracle.exact_dse(dist, concrete, t)
            for t in times]


def check_oracle_objective_bound() -> str:
    gaps = _score_bound_gaps([_seq(1, 2), _seq(2, 1)], (0.25, 0.6, 0.9))
    _require(all(g >= -1e-9 for g in gaps), "DISE - DSE at t = 0.25, 0.6, 0.9: {}", gaps)
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
    _require(worst <= 1e-5, "gradcheck rel err {}", worst)
    return f"finite differences agree, worst rel err {worst:.2e}"


def check_sampler_determinism() -> str:
    grid = sampler.timestep_grid(7, "cosine")
    _require(grid[0] == 1.0 and grid[-1] == 0.0 and np.all(np.diff(grid) < 0), "bad grid {}", grid)
    params = scorer.ScorerParams.init(3, "dise")
    cfg = sampler.SamplerConfig(steps=10, seed=7)
    a = sampler.generate(scorer.score, params, cfg)
    b = sampler.generate(scorer.score, params, cfg)
    _require([x.ids for _, x in a.snapshots] == [x.ids for _, x in b.snapshots], "reruns differ")
    traces, _ = sampler.batch_generate(scorer.score, params, cfg, 3)
    for i, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(3)):
        lone = sampler.generate(scorer.score, params, cfg, rng=np.random.default_rng(child))
        _require(
            [x.ids for _, x in traces[i].snapshots] == [x.ids for _, x in lone.snapshots],
            "batched walker {} differs from generate on its child stream", i,
        )
        _require(traces[i].stats == lone.stats, "batched walker {} stats differ", i)
    return "grids well formed; repeated runs identical; batched walkers equal lone runs"


def check_log_fallback() -> str:
    # C(80, 30) overflows uint64 and lands on the float rung; C(1100, 550)
    # overflows float64 too and lands on log.  Both keep the grand-sum identity.
    details = []
    for n, m, rung in ((30, 80, "float"), (550, 1100, "log")):
        mat = dp.n_ratios_auto(_seq(*([1] * n)), _seq(*([1] * m)), 2)
        _require(mat.domain == rung, "C({}, {}) landed on {}, not {}", m, n, mat.domain, rung)
        rel = abs(mat.grand_sum - (m - n)) / (m - n)
        _require(np.all(np.isfinite(mat.ratios)) and rel <= 1e-6, "{} grand sum: {}", rung, rel)
        details.append(f"{rung} grand sum rel err {rel:.2e}")
    return "overflowing pairs handled: " + ", ".join(details)


# ---------------------------------------------------------------------------
# full-level checks, one per acceptance criterion they serve


def check_exhaustive_small_world() -> str:
    """c01: every x_0 over tokens {1, 2, 3} with 0-8 tokens, against the
    enumeration of its subsequences: each count, each grid cell by cell, and
    each grid's sum, which also covers the bos column."""
    pairs = 0
    for m in range(9):
        for content in itertools.product((1, 2, 3), repeat=m):
            x_0 = _seq(*content)
            enum = oracle.subsequence_enumeration(x_0)
            grids = dp.batched_insertion_counts([(ids, x_0) for ids in enum], 4)
            for (ids, n), grid in zip(enum.items(), grids):
                count, rows = dp.subsequence_count(ids, x_0), grid.tolist()
                want = [[enum.get(ids[: i + 1] + (v,) + ids[i + 1 :], 0) for v in (1, 2, 3)]
                        for i in range(len(ids))]
                total = n * (m + 1 - len(ids))  # N times the length gap
                if count != n or [r[1:] for r in rows] != want or sum(map(sum, rows)) != total:
                    raise AssertionError(f"{ids} in {x_0.ids}: count {count}, grid {rows}; "
                                         f"enumeration {n}, {want}")
                pairs += 1
    _require(pairs > 500_000, "only {} pairs", pairs)
    return f"{pairs} (state, sequence) pairs match enumeration, grids cell by cell"


def check_long_pair_log_accuracy() -> str:
    """c04: length-256 pairs keeping half their tokens overflow uint64, while
    the log domain stays finite and keeps the grand-sum identity to 1e-6."""
    worst = 0.0
    for seed in (106, 2000, 2001, 2002, 2003, 2004):
        rng = np.random.default_rng(seed)
        content = tuple(int(v) for v in rng.integers(1, 4, size=256))
        keep = sorted(rng.choice(256, size=128, replace=False).tolist())
        x_0, x_t = _seq(*content), _seq(*(content[i] for i in keep))
        try:
            dp.n_ratios(x_t, x_0, 4, domain="exact")
        except Overflow:
            pass
        else:
            raise AssertionError(f"seed {seed}: the exact domain did not overflow")
        mat = dp.n_ratios(x_t, x_0, 4, domain="log")
        rel = abs(mat.grand_sum - 128.0) / 128.0
        _require(np.all(np.isfinite(mat.ratios)) and rel <= 1e-6, "seed {}: sum err {}", seed, rel)
        worst = max(worst, rel)
    return f"6 length-256 pairs: exact overflows, log finite, worst grand sum rel err {worst:.2e}"


def check_score_bound_family() -> str:
    """c06: DISE >= DSE for every uniform support of each family at each time,
    with equality where no state is reachable by two different insertions."""
    def supports(world, sizes):
        return [s for k in sizes for s in itertools.combinations(world, k)]

    families = [  # (supports, times, equality)
        (supports([_seq(1), _seq(2), _seq(1, 2), _seq(2, 1), _seq(1, 1)], (2,)),
         (0.35, 0.75), False),
        (supports([_seq(1, 2), _seq(2, 1), _seq(1, 1), _seq(1, 2, 1), _seq(2)], (1, 2)),
         (0.25, 0.5, 0.8), False),
        ([[_seq(1, 2, 3)], [_seq(1, 2), _seq(2, 1)]], (0.3, 0.7), True),
    ]
    counts = []
    for family, times, equal in families:
        gaps = [g for support in family for g in _score_bound_gaps(support, times)]
        _require(all(g >= -1e-9 and (not equal or abs(g) <= 1e-9) for g in gaps),
                 "DISE - DSE {} over {} at t = {}", gaps, [[x.ids for x in s] for s in family],
                 times)
        counts.append(len(gaps))
    _require(counts == [20, 45, 4], "{} (support, time) combinations", counts)
    return " + ".join(map(str, counts)) + " (support, time) combinations satisfy the bound"


def check_population_sampling() -> str:
    """c09: oracle-guided walkers reach the exact target, 20k at 256 steps and
    100k per grid of 32-512 steps, whose TV shrinks as the grid doubles."""
    dist = oracle.TinyDistribution.uniform([_seq(1, 2), _seq(2, 1)])
    finals, stats = population_sample(dist, steps=256, count=20_000, seed=11)
    tv = population_tv(dist, finals)
    clamp_rate = stats["clamp_events"] / max(1, stats["gap_steps"])
    _require(tv <= 0.05 and clamp_rate < 0.01, "20k walkers: TV {}, clamp rate {}", tv, clamp_rate)
    tvs = []
    for steps in (32, 64, 128, 256, 512):
        finals, stats = population_sample(dist, steps, 100_000, seed=100 + steps)
        tvs.append(population_tv(dist, finals))
        _require(stats["clamp_events"] <= 0.01 * max(stats["gap_steps"], 1),
                 "{} steps: {} clamp events", steps, stats)
    # shrinks as the grid doubles, within noise
    _require(tvs[-1] <= 0.05 and all(fine <= coarse + 0.01 for coarse, fine in zip(tvs, tvs[1:])),
             "TV at 32-512 steps {}", tvs)
    return (f"20k walkers at 256 steps: TV {tv:.4f}, clamp rate {clamp_rate:.2e}; "
            f"100k at 32-512 steps: TV {tvs[0]:.4f} -> {tvs[-1]:.4f}")


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
    gap_steps = 0
    clamp_events = 0
    for k in range(steps):
        t, t_next = float(times[k]), float(times[k + 1])
        dt = t - t_next
        nxt: dict[tuple, int] = {}
        for ids, c in sorted(population.items()):
            x = Sequence(ids)
            try:
                mat = oracle.exact_insertion_matrix(dist, x, min(t, T_MAX))
            except oracle.ZeroDenominator:
                dead[ids] = dead.get(ids, 0) + c
                continue
            p_ins, masked, clamped = sampler.gap_insertion_probabilities(mat, t, dt)
            gap_steps += len(x) * c
            clamp_events += int(clamped.sum()) * c
            outcomes = _leap_outcomes(p_ins, sampler.conditional_rows(masked))
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
    # a target state no walker reached adds its whole probability
    return 0.5 * sum(abs(finals.get(ids, 0) / total - support.get(ids, 0.0))
                     for ids in finals | support)


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
    if level not in ("quick", "full"):
        raise ConfigError(f"unknown verify level {level!r}")
    results = []
    for name, fn in QUICK_CHECKS + (FULL_CHECKS if level == "full" else []):
        start = perf_counter()
        try:
            detail = fn() or ""
            ok = True
        except Exception as exc:  # a failing check must not kill the suite
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        results.append(CheckResult(name, ok, detail, perf_counter() - start))
    return results
