"""The benchmark's workloads: the episodes each one runs, and their seeds.

A workload is a cycle of episodes that a run repeats whole until its time is
spent.  Every episode gets its own seed, derived from the workload seed and
the episode's index in the run, so two workload seeds never replay the same
episodes (the harness's own `base_seed ^ repeat_index` would).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from banditbench.harness import ExperimentConfig
from banditbench.nn import TrainConfig
from banditbench.policies import PolicyConfig

# The acceptance config of tests/test_acceptance.py: width 32, depth 2,
# SGD x10 at lr 1e-4 on batches of 64, diagonal posterior, training stops
# after round 1000.
SGD10 = TrainConfig(step_size=1e-4, iterations=10, reg=1.0, mode="sgd",
                    batch_size=64)
ACCEPTANCE = dict(nu=0.1, reg=1.0, train=SGD10, posterior="diagonal",
                  width=32, depth=2, stop_train=1000)


@dataclass(frozen=True)
class Episode:
    """One episode of a workload's cycle."""

    label: str
    config: ExperimentConfig        # base_seed is replaced per episode
    # The run's mean terminal regret of this episode must stay below this
    # share of the uniform policy's expected regret; None: not judged.
    learning_limit: float | None


def _episode(label, dataset, algorithm, horizon, learning_limit, delay=0,
             **policy):
    return Episode(label, ExperimentConfig(
        dataset=dataset,
        policy=PolicyConfig(algorithm=algorithm, **{**ACCEPTANCE, **policy}),
        horizon=horizon, repeats=1, delay=delay, n_arms=4, raw_dim=8,
        noise_sd=0.1), learning_limit)


# Each run completes at least this many cycles, so that the learning limits
# judge a mean over several episodes of each algorithm.  Single mushroom-like
# episodes of NeuralTS and delayed NeuralUCB reach 0.93 and 0.94 of uniform
# regret (limit 0.9), and means over three reached 0.75, so that workload
# averages four.  A synthetic-full-posterior episode takes about 9 s, and its
# memory-bound posterior update swings by up to 25% with the load on the
# shared host, so it times four, about 36 s, whatever --seconds is.
MIN_CYCLES = {"synthetic-neural": 3, "synthetic-full-posterior": 4,
              "mushroom-baselines": 4}


# Each learning limit is at least 1.5 times the worst single-episode ratio to
# uniform regret measured at the seed commit, but at most 0.9; see README.md.
WORKLOADS: dict[str, tuple[Episode, ...]] = {
    # Network training is most of the work: nn.train dominates NeuralTS here
    # and is all of bootstrap-NN's observe.  The diagonal posterior is small,
    # so this is the control for posterior changes.
    "synthetic-neural": (
        _episode("neural-ts", "synthetic-nonlinear", "neural-ts", 2000, 0.35),
        _episode("bootstrap-nn", "synthetic-nonlinear", "bootstrap-nn", 300,
                 0.9),
    ),
    # Width 100 gives p = 1700 gradient features; the full-posterior update
    # and sigma are most of the work, training little: the control for nn.
    "synthetic-full-posterior": (
        _episode("neural-ts-full", "synthetic-nonlinear", "neural-ts", 200,
                 0.9, width=100, posterior="full"),
    ),
    # The only classification stream (all 8124 rows are built whatever T
    # is), the only block-sparse contexts, the kernel and linear baselines
    # and the delayed-reward protocol.  LinTS sits at chance on mushroom-like
    # by design (its label is an XOR of the columns), so it is not judged.
    "mushroom-baselines": (
        _episode("neural-ts", "mushroom-like", "neural-ts", 1000, 0.9),
        _episode("neural-ucb-delay32", "mushroom-like", "neural-ucb", 1000,
                 0.9, delay=32),
        _episode("kernel-ts", "mushroom-like", "kernel-ts", 1000, 0.2),
        _episode("lin-ts", "mushroom-like", "lin-ts", 1000, None),
    ),
}


def episode_seed(workload_seed: int, index: int) -> int:
    """The seed of the index-th episode of a run with this workload seed."""
    state = np.random.SeedSequence([workload_seed, index]).generate_state(
        1, np.uint64)
    return int(state[0])


def seeded(episode: Episode, workload_seed: int, index: int,
           horizon: int | None = None) -> ExperimentConfig:
    """The episode's config with its derived seed (and optionally a shorter
    horizon, which only the benchmark's own tests use)."""
    config = replace(episode.config,
                     base_seed=episode_seed(workload_seed, index))
    if horizon is not None:
        config = replace(config, horizon=min(horizon, config.horizon))
    return config
