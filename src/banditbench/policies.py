"""Bandit policies behind a single select/observe interface.

Neural Thompson sampling and its deterministic UCB twin share the gradient
feature posterior; the linear and kernelized baselines use their closed-form
ridge posteriors; epsilon-greedy and the bootstrap ensemble explore without a
posterior.  The four network policies keep one growing (context, reward)
history and train their networks as one stack with one nn.train call per
observe: one network, or the bootstrap ensemble's n_networks, each with the
indices of the history rows it includes.  select never mutates policy state
(beyond its own RNG stream) and observe never touches the selection RNG, so
the decision sequence is fully determined by (seed, config, data order).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nn import (Batches, NetShape, ParamStack, TrainConfig, draw_batches,
                 forward_batch, grad, grad_batch, init_params, train)
from .posterior import DesignMatrix


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
    stop_train: int | None = 1000
    eps: float = 0.05
    n_networks: int = 10
    include_prob: float = 0.8
    bandwidth: float = 1.0
    width: int = 100
    depth: int = 2
    warm_start: bool = True

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError("nu must be nonnegative")
        if self.posterior not in ("diagonal", "full"):
            raise ValueError(f"unknown posterior {self.posterior!r}; "
                             "choose from 'diagonal', 'full'")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must be in [0, 1]")
        if not 0.0 <= self.include_prob <= 1.0:
            raise ValueError("include_prob must be in [0, 1]")
        if self.n_networks < 1:
            raise ValueError("n_networks must be >= 1")


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


class _Rows:
    """An array grown one row at a time, in place, by capacity doubling."""

    def __init__(self, row_shape: tuple = (), dtype=np.float64):
        self._data = np.empty((0, *row_shape), dtype=dtype)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def append(self, row) -> int:
        """Stores row and returns its index."""
        if self._n == len(self._data):
            grown = np.empty((max(16, 2 * self._n), *self._data.shape[1:]),
                             dtype=self._data.dtype)
            grown[:self._n] = self._data
            self._data = grown
        self._data[self._n] = row
        self._n += 1
        return self._n - 1

    @property
    def array(self) -> np.ndarray:
        return self._data[:self._n]


class _Net:
    """One network of a stack: its weights as views into the stack, and the
    indices of the history rows it trains on."""

    def __init__(self, theta0, theta):
        self.theta0 = theta0
        self.theta = theta
        self.history = _Rows(dtype=np.intp)


class _NetworkPolicy(Policy):
    """Seeding, networks and stop-train gate of the network policies.

    SeedSequence(seed) spawns the selection stream, the observation stream
    and one seed per network, in that order.
    """

    def __init__(self, shape: NetShape, cfg: PolicyConfig, seed,
                 n_networks: int = 1):
        children = np.random.SeedSequence(seed).spawn(2 + n_networks)
        self.select_rng = np.random.default_rng(children[0])
        self.observe_rng = np.random.default_rng(children[1])
        self.cfg = cfg
        self.theta0 = ParamStack.of([init_params(shape, s) for s in children[2:]])
        self.theta = self.theta0.copy()
        self.nets = [_Net(self.theta0.member(j), self.theta.member(j))
                     for j in range(n_networks)]
        self.net = self.nets[0]
        self.contexts = _Rows((shape.input_dim,))
        self.rewards = _Rows()
        self.t = 0

    def _fit(self, context: np.ndarray, reward: float,
             include_prob: float | None = None) -> int:
        """Appends (context, reward) to the history and, until the stop-train
        round, trains every network.  Returns how many networks included the
        row.

        In network order, each network includes the row (with probability
        include_prob, drawn from the observation stream; always when it is
        None) and then draws its minibatches: the order in which networks
        fitted one at a time would draw.
        """
        _check_reward(reward)
        self.t += 1
        fit = self.cfg.stop_train is None or self.t <= self.cfg.stop_train
        self.contexts.append(context)
        row = self.rewards.append(float(reward))
        batches, included = [], 0
        for net in self.nets:
            if include_prob is None or self.observe_rng.random() < include_prob:
                net.history.append(row)
                included += 1
            if fit:
                batches.append(draw_batches(net.history.array, self.cfg.train,
                                            self.observe_rng))
        if fit:
            if not self.cfg.warm_start:
                for W, W0 in zip(self.theta.layers, self.theta0.layers):
                    W[...] = W0
            data = Batches(self.contexts.array, self.rewards.array,
                           [len(net.history) for net in self.nets], batches)
            train(self.theta0, self.theta, data, self.cfg.train)
        return included

    def observe(self, context: np.ndarray, reward: float) -> None:
        self._fit(context, reward)


class _NeuralBandit(_NetworkPolicy):
    """Shared plumbing for NeuralTS / NeuralUCB: network + design matrix."""

    def __init__(self, shape: NetShape, cfg: PolicyConfig, seed):
        super().__init__(shape, cfg, seed)
        self.design = DesignMatrix(shape.n_params, cfg.reg, shape.width,
                                   mode=cfg.posterior)

    def _scores(self, means: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
        return score(means, sigmas, self.cfg.nu, self.thompson, self.select_rng)

    def select(self, contexts: np.ndarray) -> Decision:
        contexts = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
        means = forward_batch(self.net.theta, contexts)
        feats = grad_batch(self.net.theta, contexts)
        sigmas = np.array([self.design.sigma(g) for g in feats])
        scores = self._scores(means, sigmas)
        return Decision(int(np.argmax(scores)), scores, means, sigmas)

    def observe(self, context: np.ndarray, reward: float) -> None:
        super().observe(context, reward)
        self.design.update(grad(self.net.theta, context))


class NeuralTS(_NeuralBandit):
    """Thompson sampling on the scalar reward posterior of the network."""

    thompson = True


class NeuralUCB(_NeuralBandit):
    """Deterministic twin: score = mean + nu * sigma."""

    thompson = False


class EpsGreedyNN(_NetworkPolicy):
    """Greedy on the network output, uniform with probability eps."""

    def select(self, contexts: np.ndarray) -> Decision:
        contexts = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
        means = forward_batch(self.net.theta, contexts)
        arm = int(np.argmax(means))
        if self.cfg.eps > 0.0 and self.select_rng.random() < self.cfg.eps:
            arm = int(self.select_rng.integers(len(means)))
        return Decision(arm, means.copy(), means, np.zeros_like(means))


class BootstrapNN(_NetworkPolicy):
    """Ensemble of networks trained on independently subsampled histories."""

    def __init__(self, shape: NetShape, cfg: PolicyConfig, seed):
        super().__init__(shape, cfg, seed, cfg.n_networks)
        self.n_included = 0
        self.n_offered = 0

    def select(self, contexts: np.ndarray) -> Decision:
        contexts = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
        pick = int(self.select_rng.integers(len(self.nets)))
        means = forward_batch(self.nets[pick].theta, contexts)
        return Decision(int(np.argmax(means)), means.copy(), means,
                        np.zeros_like(means))

    def observe(self, context: np.ndarray, reward: float) -> None:
        self.n_included += self._fit(context, reward, self.cfg.include_prob)
        self.n_offered += len(self.nets)


class LinearPolicy(Policy):
    """Shared-ridge linear baseline; Thompson sampling or UCB scoring."""

    def __init__(self, dim: int, cfg: PolicyConfig, seed, thompson: bool):
        children = np.random.SeedSequence(seed).spawn(2)
        self.select_rng = np.random.default_rng(children[0])
        self.cfg = cfg
        self.thompson = thompson
        self.a_inv = np.eye(dim) / cfg.reg
        self.b = np.zeros(dim)

    def select(self, contexts: np.ndarray) -> Decision:
        X = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
        mu = self.a_inv @ self.b
        means = X @ mu
        widths = np.sqrt(np.maximum(np.einsum("ki,ij,kj->k", X, self.a_inv, X), 0.0))
        scores = score(means, widths, self.cfg.nu, self.thompson, self.select_rng)
        return Decision(int(np.argmax(scores)), scores, means, widths)

    def observe(self, context: np.ndarray, reward: float) -> None:
        _check_reward(reward)
        x = np.asarray(context, dtype=np.float64)
        u = self.a_inv @ x
        # a_inv stays exactly symmetric: u_i u_j == u_j u_i
        self.a_inv -= np.outer(u, u) / (1.0 + float(x @ u))
        self.b += reward * x


class KernelPolicy(Policy):
    """RBF-kernel ridge baseline; Thompson sampling or UCB scoring.

    The kernel matrix inverse grows by bordered rank-one updates and is frozen
    once the stop-training round passes (the history stops growing).
    """

    def __init__(self, cfg: PolicyConfig, seed, thompson: bool):
        children = np.random.SeedSequence(seed).spawn(2)
        self.select_rng = np.random.default_rng(children[0])
        self.cfg = cfg
        self.thompson = thompson
        self.X: np.ndarray | None = None
        self.r = np.zeros(0)
        self.k_inv = np.zeros((0, 0))
        self.t = 0

    def _kvec(self, x: np.ndarray) -> np.ndarray:
        diff = self.X - x[None, :]
        return np.exp(-self.cfg.bandwidth * np.sum(diff * diff, axis=1))

    def select(self, contexts: np.ndarray) -> Decision:
        X = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
        K = X.shape[0]
        if self.X is None:
            means = np.zeros(K)
            widths = np.ones(K)
        else:
            alpha = self.k_inv @ self.r
            means = np.empty(K)
            widths = np.empty(K)
            for k in range(K):
                kv = self._kvec(X[k])
                means[k] = float(kv @ alpha)
                widths[k] = np.sqrt(max(1.0 - float(kv @ self.k_inv @ kv), 0.0))
        scores = score(means, widths, self.cfg.nu, self.thompson, self.select_rng)
        return Decision(int(np.argmax(scores)), scores, means, widths)

    def observe(self, context: np.ndarray, reward: float) -> None:
        _check_reward(reward)
        self.t += 1
        if self.cfg.stop_train is not None and self.t > self.cfg.stop_train:
            return
        x = np.asarray(context, dtype=np.float64)
        if self.X is None:
            self.X = x[None, :]
            self.r = np.array([float(reward)])
            self.k_inv = np.array([[1.0 / (1.0 + self.cfg.reg)]])
            return
        kv = self._kvec(x)
        c = 1.0 + self.cfg.reg
        u = self.k_inv @ kv
        s = c - float(kv @ u)
        n = len(self.r)
        new = np.empty((n + 1, n + 1))
        new[:n, :n] = self.k_inv + np.outer(u, u) / s
        new[:n, n] = -u / s
        new[n, :n] = -u / s
        new[n, n] = 1.0 / s
        self.k_inv = new
        self.X = np.vstack([self.X, x])
        self.r = np.append(self.r, float(reward))


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
    if algo in ("neural-ts", "neural-ucb", "eps-greedy", "bootstrap-nn"):
        shape = NetShape(input_dim, cfg.width, cfg.depth)
        if algo == "neural-ts":
            return NeuralTS(shape, cfg, seed)
        if algo == "neural-ucb":
            return NeuralUCB(shape, cfg, seed)
        if algo == "eps-greedy":
            return EpsGreedyNN(shape, cfg, seed)
        return BootstrapNN(shape, cfg, seed)
    if algo == "lin-ts":
        return LinearPolicy(input_dim, cfg, seed, thompson=True)
    if algo == "lin-ucb":
        return LinearPolicy(input_dim, cfg, seed, thompson=False)
    if algo == "kernel-ts":
        return KernelPolicy(cfg, seed, thompson=True)
    if algo == "kernel-ucb":
        return KernelPolicy(cfg, seed, thompson=False)
    if algo == "uniform":
        return UniformRandom(seed)
    raise ValueError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
