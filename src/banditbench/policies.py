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

from dataclasses import dataclass, field

import numpy as np

from .nn import (Batches, NetShape, ParamStack, TrainConfig, draw_batches,
                 forward_batch, grad, grad_batch, init_params, train)
from .posterior import BorderedInverse, DesignMatrix, Rows


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


def score(means: np.ndarray, widths: np.ndarray, nu: float, thompson: bool,
          rng: np.random.Generator) -> np.ndarray:
    """Per-arm scores, whose argmax (ties to the lowest index) is the pick.

    UCB adds nu * widths to the means.  Thompson sampling adds nu * widths
    times one standard normal draw per arm from rng, and draws nothing when
    nu is 0.
    """
    if not thompson:
        return means + nu * widths
    if nu == 0.0:
        return means.copy()
    return means + nu * widths * rng.standard_normal(len(means))


def _check_reward(reward: float) -> None:
    if not np.isfinite(reward):
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
    design matrix over its gradient features, both from one network pass."""

    def __init__(self, shape: NetShape, cfg: PolicyConfig, seed, thompson: bool):
        super().__init__(shape, cfg, seed)
        self.thompson = thompson
        self.design = DesignMatrix(shape.n_params, cfg.reg, shape.width,
                                   mode=cfg.posterior)

    def select(self, contexts: np.ndarray) -> Decision:
        means, feats = grad_batch(self.net, contexts)
        sigmas = self.design.sigma(feats)
        scores = score(means, sigmas, self.cfg.nu, self.thompson, self.select_rng)
        return Decision(int(np.argmax(scores)), scores, means, sigmas)

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
        arm = int(np.argmax(means))
        if self.cfg.eps > 0.0 and self.select_rng.random() < self.cfg.eps:
            arm = int(self.select_rng.integers(len(means)))
        return Decision(arm, means.copy(), means, np.zeros_like(means))


class BootstrapNN(_NetworkPolicy):
    """Ensemble of networks trained on independently subsampled histories."""

    def __init__(self, shape: NetShape, cfg: PolicyConfig, seed):
        super().__init__(shape, cfg, seed, cfg.n_networks, cfg.include_prob)

    def select(self, contexts: np.ndarray) -> Decision:
        pick = int(self.select_rng.integers(len(self.nets)))
        means = forward_batch(self.nets[pick], contexts)
        return Decision(int(np.argmax(means)), means.copy(), means,
                        np.zeros_like(means))


class LinearPolicy(Policy):
    """Shared-ridge linear baseline; Thompson sampling or UCB scoring.  Its
    posterior is the design matrix U over the contexts themselves (width 1):
    mean x^T U^-1 b, width sqrt(x^T U^-1 x), the design's sigma / sqrt(reg)."""

    def __init__(self, dim: int, cfg: PolicyConfig, seed, thompson: bool):
        children = np.random.SeedSequence(seed).spawn(2)
        self.select_rng = np.random.default_rng(children[0])
        self.cfg = cfg
        self.thompson = thompson
        self.design = DesignMatrix(dim, cfg.reg, 1, "full")
        self.b = np.zeros(dim)

    def select(self, contexts: np.ndarray) -> Decision:
        X = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
        means = X @ self.design.solve(self.b)
        widths = self.design.sigma(X) / np.sqrt(self.cfg.reg)
        scores = score(means, widths, self.cfg.nu, self.thompson, self.select_rng)
        return Decision(int(np.argmax(scores)), scores, means, widths)

    def observe(self, context: np.ndarray, reward: float) -> None:
        _check_reward(reward)
        x = np.asarray(context, dtype=np.float64)
        self.design.update(x)
        self.b += reward * x


class KernelPolicy(Policy):
    """RBF-kernel ridge baseline; Thompson sampling or UCB scoring.

    The kernel matrix A = Gram + reg*I is held as the factor R of its inverse
    (A^-1 = R^T R), about t^2/2 doubles in panels that are never copied.  R
    grows by one row per observation, and w = R r by one entry.  With V the
    arms' (K, t) kernel block times R^T, the means are V w and the variances
    1 - |v|^2, both frozen once the stop-training round passes.
    """

    def __init__(self, dim: int, cfg: PolicyConfig, seed, thompson: bool):
        children = np.random.SeedSequence(seed).spawn(2)
        self.select_rng = np.random.default_rng(children[0])
        self.cfg = cfg
        self.thompson = thompson
        self.X = Rows((dim,))
        self.sq_norms = Rows()
        self.r = Rows()
        self.w = Rows()
        self.k_inv = BorderedInverse()
        self.t = 0

    def _kernel(self, X: np.ndarray) -> np.ndarray:
        """k(x, h) for each row x of X and each history row h: (rows, t).
        The squared distances are expanded as |x|^2 - 2 x.h + |h|^2 and
        clamped at 0, which rounding can cross for a repeated row."""
        D = X @ self.X.array.T
        D *= -2.0
        D += np.einsum("kd,kd->k", X, X)[:, None]
        D += self.sq_norms.array
        np.maximum(D, 0.0, out=D)
        D *= -self.cfg.bandwidth
        return np.exp(D, out=D)

    def select(self, contexts: np.ndarray) -> Decision:
        X = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
        # with no history the products are empty: means 0.0, widths 1.0
        V = self.k_inv.whiten(self._kernel(X))
        means = V @ self.w.array
        widths = np.sqrt(np.maximum(1.0 - np.einsum("kt,kt->k", V, V), 0.0))
        scores = score(means, widths, self.cfg.nu, self.thompson, self.select_rng)
        return Decision(int(np.argmax(scores)), scores, means, widths)

    def observe(self, context: np.ndarray, reward: float) -> None:
        _check_reward(reward)
        self.t += 1
        if self.t > self.cfg.stop_train:
            return
        x = np.asarray(context, dtype=np.float64)
        # k(x, x) = 1, so the new diagonal entry is 1 + reg
        if self.k_inv.add(self._kernel(x[None])[0], 1.0 + self.cfg.reg) <= 0.0:
            raise np.linalg.LinAlgError(
                f"kernel matrix is numerically singular after {len(self.r)} "
                f"observations (reg={float(self.cfg.reg)!r}); raise --lambda")
        self.X.append(x)
        self.sq_norms.append(float(x @ x))
        self.r.append(float(reward))
        self.w.append(float(self.k_inv.row(len(self.r) - 1) @ self.r.array))


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
    if algo in ("lin-ts", "lin-ucb"):
        return LinearPolicy(input_dim, cfg, seed, thompson)
    if algo in ("kernel-ts", "kernel-ucb"):
        return KernelPolicy(input_dim, cfg, seed, thompson)
    if algo == "uniform":
        return UniformRandom(seed)
    raise ValueError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
