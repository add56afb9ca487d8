"""Write the pinned model files that `tests/test_model_format.py` loads.

Usage: PYTHONPATH=src python tests/data/make_model_files.py [out_dir]

Trains one model per method on the `test_dispatch_io.make_training` setup,
saves each as `model.<tag>.npz`, and stores a window batch with every
model's scores for it in `expected_scores.npz`. Run it only to pin a new
on-disk format on purpose: the test checks that files written by the code
that made them still load and score exactly the same.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from appauth.encode import Vocabulary
from appauth.models import METHOD_TAGS, TrainConfig, baum_welch, save_model, train_user_model


def main(out_dir: Path) -> None:
    vocab = Vocabulary(["a", "b", "c"])
    train = np.random.default_rng(0).integers(0, vocab.unknown_base, size=400).astype(np.int64)
    config = TrainConfig(n_states=3, max_iter=6, seed=1)
    windows = np.random.default_rng(42).integers(0, vocab.size, size=(40, 12))
    base = baum_welch(train, vocab.size, config.n_states, config.max_iter, config.tol, config.seed)
    scores = {}
    for tag in METHOD_TAGS:
        model = train_user_model(tag, train, vocab, config, base=base)
        save_model(model, out_dir / f"model.{tag}.npz", owner="user42")
        scores[tag] = model.score_windows(windows)
    np.savez(out_dir / "expected_scores.npz", windows=windows, **scores)


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent)
