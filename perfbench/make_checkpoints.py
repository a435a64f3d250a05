"""Rebuild the two fixed checkpoints the `sample` workload loads.

    python3 perfbench/make_checkpoints.py      # from the repository root

* ckpt/dise.ckpt: dise scorer trained on the c10 corpus (corpus seed 424,
  train seed 31, 312 epochs, batch 32, adam, lr 0.05, as in acceptance c10).
* ckpt/dice.ckpt: dice scorer, k = 8, trained on 256 uniform strings of 8
  tokens over 4 letters (corpus seed 8, train seed 5, 40 epochs).

Only needed when the checkpoint format changes; the files are committed.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from delins import scorer  # noqa: E402

HERE = Path(__file__).resolve().parent


def main() -> int:
    out = HERE / "ckpt"
    out.mkdir(exist_ok=True)
    corpus = inputs.c10_corpus(np.random.default_rng(424))
    params, metrics = scorer.train(
        scorer.ScorerParams.init(len(corpus.vocab), "dise"), corpus,
        {"epochs": 312, "batch": 32, "lr": 0.05, "optimizer": "adam", "seed": 31},
    )
    scorer.save(params, out / "dise.ckpt")
    print(f"dise: {len(metrics)} steps, final loss {metrics[-1]['loss']:.4f}")

    corpus = inputs.dice_corpus(np.random.default_rng(8))
    params, metrics = scorer.train(
        scorer.ScorerParams.init(len(corpus.vocab), "dice", k=inputs.DICE_K), corpus,
        {"epochs": 40, "batch": 32, "lr": 0.05, "optimizer": "adam", "seed": 5},
    )
    scorer.save(params, out / "dice.ckpt")
    print(f"dice: {len(metrics)} steps, final loss {metrics[-1]['loss']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
