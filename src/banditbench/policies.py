"""Bandit policies behind a single select/observe interface.

Neural Thompson sampling and its deterministic UCB twin keep the ridge
posterior over gradient features, the linear baselines the same posterior over
the contexts themselves, and the kernelized baselines its dual form over an
RBF Gram matrix; epsilon-greedy and the bootstrap ensemble explore without a
posterior.  Until the stop-train round, the four network policies grow one
(context, reward) history and train their networks as one stack with one
nn.train call per observe: one network, or the bootstrap ensemble's
n_networks, each with the indices of the history rows it includes.  select
never mutates policy state (beyond its own RNG stream) and observe never
touches the selection RNG, so (seed, config, data order) fixes the decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nn import (Batches, NetShape, ParamStack, TrainConfig, draw_batches,
                 forward_batch, grad, grad_batch, init_params, train)
from .posterior import DesignMatrix, Rows


@dataclass
class Decision:
    """Outcome of one selection: chosen arm plus the per-arm scores behind it."""

    arm: int
    scores: np.ndarray
    means: np.ndarray
    sigmas: np.ndarray


@dataclass(frozen=True)
class PolicyConfig:
    """Everything needed to build one policy instance."""

    algorithm: str
    nu: float = 0.1
    reg: float = 1.0
    train: TrainConfig = field(default_factory=TrainConfig)
    posterior: str = "diagonal"
    stop_train: int = 1000
    eps: float = 0.05
    n_networks: int = 10
    include_prob: float = 0.8
    bandwidth: float = 1.0
    width: int = 100
    depth: int = 2

    def __post_init__(self):
        if not 0.0 <= self.nu < np.inf:
            raise ValueError(f"nu must be nonnegative and finite, got {self.nu}")
        if not 0.0 < self.reg < np.inf:
            raise ValueError(f"reg must be positive and finite, got {self.reg}")
        if self.stop_train < 0:
            raise ValueError("stop_train must be >= 0")
        if self.posterior not in ("diagonal", "full"):
            raise ValueError(f"unknown posterior {self.posterior!r}; "
                             "choose from 'diagonal', 'full'")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must be in [0, 1]")
        if not 0.0 <= self.include_prob <= 1.0:
            raise ValueError("include_prob must be in [0, 1]")
        if self.n_networks < 1:
            raise ValueError("n_networks must be >= 1")
        if not 0.0 < self.bandwidth < np.inf:
            raise ValueError(f"bandwidth must be positive and finite, "
                             f"got {self.bandwidth}")


class Policy:
    """select(contexts) -> Decision; observe(context, reward) -> None."""

    def select(self, contexts: np.ndarray) -> Decision:
        raise NotImplementedError

    def observe(self, context: np.ndarray, reward: float) -> None:
        raise NotImplementedError


def decide(means: np.ndarray, widths: np.ndarray, nu: float, thompson: bool,
           rng: np.random.Generator | None) -> Decision:
    """The pick rule of every scoring policy: the arm of the largest score,
    ties to the lowest index.

    UCB adds nu * widths to the means.  Thompson sampling adds nu * widths
    times one standard normal draw per arm from rng, and draws nothing when
    nu is 0, so a greedy pick is decide(means, zeros, 0.0, True, None).
    """
    if not thompson:
        scores = means + nu * widths
    elif nu == 0.0:
        scores = means.copy()
    else:
        scores = means + nu * widths * rng.standard_normal(len(means))
    return Decision(int(np.argmax(scores)), scores, means, widths)


def _check_reward(reward: float) -> None:
    if not math.isfinite(reward):
        raise ValueError("reward must be finite")


class _NetworkPolicy(Policy):
    """Seeding, networks and stop-train gate of the network policies.

    SeedSequence(seed) spawns the selection stream, the observation stream
    and one seed per network, in that order.  nets[j] is network j (views
    into theta) and histories[j] the history rows it includes, each with
    probability include_prob (always when it is None).
    A step size that training would reject is rejected here, before round 1.
    """

    def __init__(self, shape: NetShape, cfg: PolicyConfig, seed,
                 n_networks: int = 1, include_prob: float | None = None):
        if cfg.stop_train != 0:
            cfg.train.check_step(shape.width)
        children = np.random.SeedSequence(seed).spawn(2 + n_networks)
        self.select_rng = np.random.default_rng(children[0])
        self.observe_rng = np.random.default_rng(children[1])
        self.cfg = cfg
        self.theta0 = ParamStack.of([init_params(shape, s) for s in children[2:]])
        self.theta = self.theta0.copy()
        self.nets = [self.theta.member(j) for j in range(n_networks)]
        self.net = self.nets[0]
        self.histories = [Rows(dtype=np.intp) for _ in range(n_networks)]
        self.contexts = Rows((shape.input_dim,))
        self.rewards = Rows()
        self.include_prob = include_prob
        self.t = 0

    def observe(self, context: np.ndarray, reward: float) -> None:
        """Until the stop-train round, appends (context, reward) to the
        history and trains every network from where it stands (a warm start).
        In network order, each network includes the row (the draw comes from
        the observation stream) and then draws its minibatches: the order in
        which networks fitted one at a time would draw.  Past that round no
        fit reads the history, so nothing is stored."""
        _check_reward(reward)
        self.t += 1
        if self.t > self.cfg.stop_train:
            return
        self.contexts.append(context)
        row = self.rewards.append(float(reward))
        batches = []
        for history in self.histories:
            if (self.include_prob is None
                    or self.observe_rng.random() < self.include_prob):
                history.append(row)
            batches.append(draw_batches(history.array, self.cfg.train,
                                        self.observe_rng))
        data = Batches(self.contexts.array, self.rewards.array,
                       [len(history) for history in self.histories], batches)
        train(self.theta0, self.theta, data, self.cfg.train)


class NeuralBandit(_NetworkPolicy):
    """NeuralTS (thompson) or NeuralUCB: means from the network, widths from a
    design matrix over its gradient features, both from one network pass.
    The features reach the design as per-layer factors (nn.FactorRows),
    which its dual form stores as they are."""

    def __init__(self, shape: NetShape, cfg: PolicyConfig, seed, thompson: bool):
        super().__init__(shape, cfg, seed)
        self.thompson = thompson
        self.design = DesignMatrix(shape.n_params, cfg.reg, shape.width,
                                   mode=cfg.posterior)

    def select(self, contexts: np.ndarray) -> Decision:
        means, feats = grad_batch(self.net, contexts)
        return decide(means, self.design.sigma(feats), self.cfg.nu,
                      self.thompson, self.select_rng)

    def observe(self, context: np.ndarray, reward: float) -> None:
        super().observe(context, reward)
        try:
            self.design.update(grad(self.net, context))
        except np.linalg.LinAlgError as err:
            # only a full-mode design can degenerate, and only the network
            # policies can choose the diagonal one
            raise np.linalg.LinAlgError(f"{err} or use --posterior diag") from err


class EpsGreedyNN(_NetworkPolicy):
    """Greedy on the network output, uniform with probability eps."""

    def select(self, contexts: np.ndarray) -> Decision:
        means = forward_batch(self.net, contexts)
        decision = decide(means, np.zeros_like(means), 0.0, True, None)
        if self.cfg.eps > 0.0 and self.select_rng.random() < self.cfg.eps:
            decision.arm = int(self.select_rng.integers(len(means)))
        return decision


class BootstrapNN(_NetworkPolicy):
    """Ensemble of networks trained on independently subsampled histories."""

    def __init__(self, shape: NetShape, cfg: PolicyConfig, seed):
        super().__init__(shape, cfg, seed, cfg.n_networks, cfg.include_prob)

    def select(self, contexts: np.ndarray) -> Decision:
        pick = int(self.select_rng.integers(len(self.nets)))
        means = forward_batch(self.nets[pick], contexts)
        return decide(means, np.zeros_like(means), 0.0, True, None)


class LinearPolicy(Policy):
    """Ridge baseline on a design matrix of width 1 over the contexts;
    Thompson sampling or UCB scoring on its means.  Under the dot product
    (LinTS/UCB) the width is sqrt(x^T U^-1 x), the design's sigma / sqrt(reg).
    Under the RBF Gram of a bandwidth (KernelTS/UCB) it is the sigma, and the
    posterior takes no rows past the stop-train round."""

    def __init__(self, dim: int, cfg: PolicyConfig, seed, thompson: bool,
                 bandwidth: float | None = None):
        child = np.random.SeedSequence(seed).spawn(1)[0]
        self.select_rng = np.random.default_rng(child)
        self.cfg = cfg
        self.thompson = thompson
        self.design = DesignMatrix(dim, cfg.reg, 1, "full", bandwidth)
        self.t = 0

    def select(self, contexts: np.ndarray) -> Decision:
        means, widths = self.design.posterior(contexts)
        if self.design.bandwidth is None:
            widths = widths / np.sqrt(self.cfg.reg)
        return decide(means, widths, self.cfg.nu, self.thompson,
                      self.select_rng)

    def observe(self, context: np.ndarray, reward: float) -> None:
        _check_reward(reward)
        self.t += 1
        if self.design.bandwidth is None or self.t <= self.cfg.stop_train:
            self.design.observe(context, reward)


class UniformRandom(Policy):
    """Pulls a uniformly random arm; the regret baseline."""

    def __init__(self, seed):
        self.select_rng = np.random.default_rng(np.random.SeedSequence(seed))

    def select(self, contexts: np.ndarray) -> Decision:
        K = np.atleast_2d(contexts).shape[0]
        arm = int(self.select_rng.integers(K))
        return Decision(arm, np.zeros(K), np.zeros(K), np.zeros(K))

    def observe(self, context: np.ndarray, reward: float) -> None:
        pass


ALGORITHMS = ("neural-ts", "neural-ucb", "lin-ts", "lin-ucb", "kernel-ts",
              "kernel-ucb", "eps-greedy", "bootstrap-nn", "uniform")


def make_policy(cfg: PolicyConfig, input_dim: int, seed) -> Policy:
    """Construct the policy named by cfg.algorithm for contexts of input_dim."""
    algo = cfg.algorithm
    thompson = algo.endswith("-ts")
    if algo in ("neural-ts", "neural-ucb", "eps-greedy", "bootstrap-nn"):
        shape = NetShape(input_dim, cfg.width, cfg.depth)
        if algo in ("neural-ts", "neural-ucb"):
            return NeuralBandit(shape, cfg, seed, thompson)
        if algo == "eps-greedy":
            return EpsGreedyNN(shape, cfg, seed)
        return BootstrapNN(shape, cfg, seed)
    if algo in ("lin-ts", "lin-ucb", "kernel-ts", "kernel-ucb"):
        bandwidth = cfg.bandwidth if algo.startswith("kernel") else None
        return LinearPolicy(input_dim, cfg, seed, thompson, bandwidth)
    if algo == "uniform":
        return UniformRandom(seed)
    raise ValueError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
