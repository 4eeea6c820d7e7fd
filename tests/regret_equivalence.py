"""The regret-equivalence check shared by tests that compare an algorithm
with a reference implementation over fixed episode seeds."""

import numpy as np


def assert_regret_equivalent(real, ref):
    """Mean terminal regret of the two lists of episodes (one per seed, in
    the same seed order) within one pooled stderr; and per episode, sigma
    equal to rtol 1e-9 for as long as both chose the same arms."""
    a = np.array([t.total_regret for t in real])
    b = np.array([t.total_regret for t in ref])
    pooled = np.sqrt((a.var(ddof=1) + b.var(ddof=1)) / len(a))
    assert abs(a.mean() - b.mean()) <= pooled
    for x, y in zip(real, ref):
        n = next((i for i, (r, q) in enumerate(zip(x.rounds, y.rounds))
                  if r["arm"] != q["arm"]), len(x.rounds))
        np.testing.assert_allclose([r["sigma"] for r in x.rounds[:n]],
                                   [r["sigma"] for r in y.rounds[:n]],
                                   rtol=1e-9)
