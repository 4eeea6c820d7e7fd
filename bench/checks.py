"""Checks of the program's outputs against computations made apart from it.

None of them compares with a stored copy of earlier output: regret is
recomputed from the round stream, learning is judged against the uniform
policy's analytic regret, determinism by a re-run, and the posterior scale
by a dense solve over the features that entered the design matrix.  Each
check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np

from banditbench import harness, posterior

# Relative tolerance of sigma against the dense solve; the rank-one
# Sherman-Morrison path agrees with it to ~1e-12 after hundreds of updates.
SIGMA_RTOL = 1e-6


def expected_rewards(config, seed) -> np.ndarray:
    """(T, K) expected rewards of the stream the harness ran, fetched anew."""
    rounds = harness.build_rounds(config, seed)
    return np.array([r.expected_rewards
                     for r in itertools.islice(rounds, config.horizon)])


def regret_accounting(rows: list[dict], expected: np.ndarray,
                      indicator: bool) -> list[str]:
    """Per-round regret max - chosen expected reward is >= 0 and sums to the
    trace's cum_regret; on a classification stream reward = 1 - regret."""
    if len(rows) != len(expected):
        return [f"trace has {len(rows)} rounds, stream {len(expected)}"]
    arms = np.array([row["arm"] for row in rows])
    regret = expected.max(axis=1) - expected[np.arange(len(rows)), arms]
    failures = []
    if np.any(regret < 0):
        failures.append("negative per-round regret")
    cum = np.array([row["cum_regret"] for row in rows])
    if not np.allclose(np.cumsum(regret), cum, rtol=1e-9, atol=1e-9):
        bad = int(np.argmax(~np.isclose(np.cumsum(regret), cum,
                                        rtol=1e-9, atol=1e-9)))
        failures.append(f"cum_regret disagrees with the stream from round "
                        f"{bad + 1}: {cum[bad]!r} vs {np.cumsum(regret)[bad]!r}")
    if not np.allclose([row["regret"] for row in rows], regret, atol=1e-9):
        failures.append("per-round regret disagrees with the stream")
    if indicator:
        rewards = np.array([row["reward"] for row in rows])
        if not np.array_equal(rewards, 1.0 - regret):
            failures.append("reward != 1 - regret on a classification stream")
    return failures


def uniform_regret(expected: np.ndarray) -> float:
    """Expected regret of the uniform policy: sum_t (max - mean)."""
    return float(np.sum(expected.max(axis=1) - expected.mean(axis=1)))


def learning(episodes: dict, regrets: dict) -> tuple[list[str], dict]:
    """Mean terminal regret of each judged episode label, as a share of the
    uniform policy's expected regret on the same streams, is below its
    limit.  regrets: label -> (terminal regrets, uniform regrets)."""
    failures, ratios = [], {}
    for label, (finals, uniforms) in regrets.items():
        ratios[label] = ratio = float(np.sum(finals) / np.sum(uniforms))
        limit = episodes[label].learning_limit
        if limit is not None and not ratio < limit:
            failures.append(f"{label}: mean regret {ratio:.3f} of uniform "
                            f"(limit {limit})")
    return failures, ratios


def determinism(first: list[dict], again: list[dict]) -> list[str]:
    """A re-run reproduces the trace exactly, apart from wall-clock fields."""
    def strip(rows):
        return [{k: v for k, v in row.items() if k != "wall_us"} for row in rows]
    a, b = strip(first), strip(again)
    if a == b:
        return []
    bad = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
               min(len(a), len(b)))
    return [f"re-run differs from round {bad + 1}"]


class PosteriorRecorder:
    """Records the features entering DesignMatrix.update, and the matrix."""

    def __enter__(self):
        self.design = None
        self.features: list[np.ndarray] = []
        self._original = original = posterior.DesignMatrix.update

        def update(design, g):
            if self.design is None:
                self.design = design
            if design is self.design:
                self.features.append(np.array(g, dtype=np.float64))
            return original(design, g)

        posterior.DesignMatrix.update = update
        return self

    def __exit__(self, *exc):
        posterior.DesignMatrix.update = self._original


def posterior_solve(design, features: np.ndarray) -> list[str]:
    """sigma(g) = sqrt(reg g^T (reg I + sum g_i g_i^T / m)^-1 g / m), by a
    dense solve (full mode) or elementwise (diagonal mode).  The probes are
    the last four recorded features and four random directions."""
    reg, m = design.reg, design.width
    scale = np.linalg.norm(features[-1]) / np.sqrt(features.shape[1])
    rng = np.random.default_rng(0)
    probes = np.vstack([features[-4:],
                        scale * rng.standard_normal((4, features.shape[1]))])
    got = np.array([design.sigma(g) for g in probes])
    if design.mode == "full":
        U = reg * np.eye(features.shape[1]) + features.T @ features / m
        quad = np.einsum("kp,pk->k", probes, np.linalg.solve(U, probes.T))
    else:
        diag = reg + np.sum(features * features, axis=0) / m
        quad = np.sum(probes * probes / diag, axis=1)
    want = np.sqrt(reg * quad / m)
    if np.allclose(got, want, rtol=SIGMA_RTOL, atol=0.0):
        return []
    worst = float(np.max(np.abs(got - want) / want))
    return [f"posterior sigma ({design.mode}) off the dense solve by {worst:.2e}"]


def check_run(results, judge_learning: bool = True) -> tuple[list[str], dict]:
    """Every check on the completed episodes of one run: the failures, and
    each episode label's regret as a share of uniform."""
    failures = []
    episodes = {r.episode.label: r.episode for r in results}
    regrets = defaultdict(lambda: ([], []))
    for r in results:
        if r.trace is None:
            continue
        expected = expected_rewards(r.config, r.trace.seed)
        indicator = not r.config.dataset.startswith("synthetic")
        failures += [f"{r.episode.label} seed {r.trace.seed}: {msg}"
                     for msg in regret_accounting(r.trace.rounds, expected,
                                                  indicator)]
        regrets[r.episode.label][0].append(r.trace.total_regret)
        regrets[r.episode.label][1].append(uniform_regret(expected))
    learned, ratios = learning(episodes, regrets)
    if judge_learning:
        failures += learned

    first = next((r for r in results if r.trace is not None), None)
    if first is not None:
        with PosteriorRecorder() as rec:
            again = harness.run_episode(first.config, 0)
        failures += determinism(first.trace.rounds, again.rounds)
        if rec.design is not None:
            failures += posterior_solve(rec.design, np.array(rec.features))
    return failures, ratios
