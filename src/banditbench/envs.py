"""Round streams the harness can run policies against.

Classification datasets become indicator-reward bandits via the transform
pipeline in the data module.  The synthetic streams (nonlinear cosine reward,
linear reward, and a mushroom-like categorical task) exist for benchmark runs
that do not depend on external files.
"""

from __future__ import annotations

import numpy as np

from .data import (BLOCK_ROWS, BanditRound, LabeledDataset,
                   classification_rounds, duplicate_half, ingest_csv,
                   ingest_idx, parse_schema)

# Each synthetic stream: its task seed, which fixes the task direction so
# every repeat faces the same reward function, and its expected reward of
# unit contexts `raw` (n, K, raw_dim) along that direction.  `raw @ a` on the
# stack is one (K, raw_dim) product per round; one product over the n*K rows
# would round some rewards differently.
_TASK_SEED = 0x5EED
SYNTHETIC = {
    "synthetic-nonlinear": (_TASK_SEED, lambda raw, a: np.cos(3.0 * raw @ a)),
    "synthetic-linear": (_TASK_SEED + 1, lambda raw, w: raw @ w),
}


def synthetic_rounds(name: str, n_arms: int, raw_dim: int, horizon: int, seed,
                     noise_sd: float = 0.1,
                     duplicate: bool = True) -> list[BanditRound]:
    """Per-arm random unit contexts with Gaussian noise on the stream's
    reward: cos(3 x.a) for synthetic-nonlinear, x.w for synthetic-linear.
    With duplicate, each context x is played as [x/sqrt(2); x/sqrt(2)].

    Built BLOCK_ROWS rounds at a time: one normal draw per block holds each
    round's (K, raw_dim) contexts followed by its K noise terms, the numbers
    that drawing one round at a time gives.  Each round holds views into its
    block's arrays."""
    task_seed, reward = SYNTHETIC[name]
    direction = np.random.default_rng(task_seed).standard_normal(raw_dim)
    direction /= np.linalg.norm(direction)
    rng = np.random.default_rng(seed)
    K, d = n_arms, raw_dim
    rounds = []
    for start in range(0, horizon, BLOCK_ROWS):
        n = min(BLOCK_ROWS, horizon - start)
        draws = rng.standard_normal((n, K * d + K))
        raw = draws[:, :K * d].reshape(n, K, d)
        raw = raw / np.linalg.norm(raw, axis=2, keepdims=True)
        expected = reward(raw, direction)
        rewards = expected + noise_sd * draws[:, K * d:]
        contexts = duplicate_half(raw) if duplicate else raw
        rounds.extend(map(BanditRound, contexts, expected, rewards))
    return rounds


def mushroom_like() -> LabeledDataset:
    """Deterministic categorical stand-in for the UCI mushroom table.

    8124 rows, 22 categorical columns, 2 classes.  Two latent binary factors
    drive the table: ten columns echo each factor (with 10% flip noise) and
    the label is their XOR.  Every single column is uncorrelated with the
    label, so a linear model on the one-hot encoding stays at chance, while
    the factors dominate the context geometry and a network can learn the
    interaction.  The one-hot columns are written straight into one table.
    """
    n = 8124
    rng = np.random.default_rng(_TASK_SEED + 2)
    u = rng.integers(0, 2, size=n)
    v = rng.integers(0, 2, size=n)
    labels = (u ^ v).astype(np.int64)
    # ten echoes of each factor, each flipped in 10% of the rows
    flips = [rng.random(n) < 0.1 for _ in range(20)]
    n_levels = [int(k) for k in rng.integers(4, 9, size=2)]

    table = np.zeros((n, 40 + sum(n_levels)))
    rows = np.arange(n)
    for j in range(20):
        echo = (u if j < 10 else v) ^ flips[j]
        table[rows, 2 * j + echo] = 1.0
    offset = 40
    for k in n_levels:
        table[rows, offset + rng.integers(0, k, size=n)] = 1.0
        offset += k
    return LabeledDataset(table, labels, n_classes=2,
                          provenance="synthetic mushroom-like")


def load_dataset(spec: str, schema: str | None = None) -> LabeledDataset:
    """The labeled dataset a spec names: mushroom-like, csv:<path> (with a
    schema file, whose label line names the label column) or
    idx:<images>,<labels>."""
    if spec == "mushroom-like":
        return mushroom_like()
    if spec.startswith("csv:"):
        if schema is None:
            raise ValueError("csv datasets need a schema file (--schema)")
        types, label = parse_schema(schema)
        return ingest_csv(spec[4:], label, types)
    if spec.startswith("idx:"):
        images, _, labels = spec[4:].partition(",")
        return ingest_idx(images, labels)
    raise ValueError(f"unknown dataset {spec!r}")


def dataset_rounds(dataset: LabeledDataset, seed, horizon: int,
                   duplicate: bool = True) -> list[BanditRound]:
    """The bandit rounds of the first `horizon` rows in the seed's row order;
    only those rows are built."""
    if horizon > len(dataset):
        raise ValueError(f"horizon {horizon} exceeds dataset size {len(dataset)}")
    rows = np.random.default_rng(seed).permutation(len(dataset))[:horizon]
    played = LabeledDataset(dataset.features[rows], dataset.labels[rows],
                            dataset.n_classes)
    return classification_rounds(played, duplicate=duplicate)
