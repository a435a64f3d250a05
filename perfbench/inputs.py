"""Seeded input generators for the benchmark workloads.

The library only ever sees what these return; the same seed gives the same
inputs.  Callers put the checkout's ``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import itertools

import numpy as np

from delins.seqcore import Corpus, Sequence, Vocab

ALPHABET = "abcdefghijkl"  # c10: alphabet prefixes, V = 13 with bos
LONG_VOCAB = 16            # as in `delins bench`
LONG_LENGTHS = (256, 512, 1024, 2048)
LONG_BATCH = 4
SWEEP_VOCAB = 4            # bos plus the three letters of acceptance c01
SWEEP_MAX_LEN = 6
DICE_K = 8
DICE_LETTERS = 4


def c10_corpus(rng, size: int = 500) -> Corpus:
    """Alphabet prefixes of 4..12 letters, lengths 3 + Geometric(0.25) as in c10.

    The vocab always holds all twelve letters, so V = 13 for every seed.
    """
    raw = 3 + rng.geometric(0.25, size=8 * size)
    lens = raw[(raw >= 4) & (raw <= 12)][:size]
    vocab = Vocab.build(list(ALPHABET))
    seqs = [Sequence((0,) + tuple(vocab.id_of(c) for c in ALPHABET[: int(n)])) for n in lens]
    return Corpus(seqs, vocab)


def dice_corpus(rng, size: int = 256) -> Corpus:
    """Uniform random strings of exactly DICE_K tokens over DICE_LETTERS letters."""
    vocab = Vocab.build([chr(ord("a") + i) for i in range(DICE_LETTERS)])
    ids = rng.integers(1, DICE_LETTERS + 1, size=(size, DICE_K))
    return Corpus([Sequence((0,) + tuple(int(v) for v in row)) for row in ids], vocab)


def long_pair(rng, n: int) -> tuple[Sequence, Sequence]:
    """(x_t, x_0) with |x_0| = n content tokens and x_t a random half of them."""
    content = tuple(int(v) for v in rng.integers(1, LONG_VOCAB, size=n))
    keep = sorted(rng.choice(n, size=n // 2, replace=False).tolist())
    return Sequence((0,) + tuple(content[i] for i in keep)), Sequence((0,) + content)


def long_batches(rng) -> dict[int, list[tuple[Sequence, Sequence]]]:
    return {n: [long_pair(rng, n) for _ in range(LONG_BATCH)] for n in LONG_LENGTHS}


def sweep_x0s(rng) -> list[Sequence]:
    """Every x_0 over the letters 1..3 with 0..SWEEP_MAX_LEN content tokens, seeded order."""
    out = [
        Sequence((0,) + content)
        for n in range(SWEEP_MAX_LEN + 1)
        for content in itertools.product(range(1, SWEEP_VOCAB), repeat=n)
    ]
    return [out[i] for i in rng.permutation(len(out))]


def table_bytes(pairs) -> int:
    """Bytes of the stacked DP table one batched sweep over pairs allocates.

    Computed from padded shapes: (max|x_0|+1) x batch x 2 lanes x (max|x_t|+1)
    cells of 8 bytes (uint64 or float64).
    """
    n_max = max(len(x_t) for x_t, _ in pairs)
    m_max = max(len(x_0) for _, x_0 in pairs)
    return (m_max + 1) * len(pairs) * 2 * (n_max + 1) * 8


def cells(pairs) -> int:
    """DP cells the pairs need: (|x_t|+1)(|x_0|+1) each, bos included."""
    return sum((len(x_t) + 1) * (len(x_0) + 1) for x_t, x_0 in pairs)


def rng_for(seed: int, *stream: int):
    """Independent generator for one named input stream of a seed."""
    return np.random.default_rng([seed, *stream])
