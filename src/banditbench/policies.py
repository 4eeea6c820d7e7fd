"""Bandit policies behind a single select/observe interface.

Neural Thompson sampling and its deterministic UCB twin share the gradient
feature posterior; the linear and kernelized baselines use their closed-form
ridge posteriors; epsilon-greedy and the bootstrap ensemble explore without a
posterior.  select never mutates policy state (beyond its own RNG stream) and
observe never touches the selection RNG, so the decision sequence is fully
determined by (seed, config, data order).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nn import NetShape, TrainConfig, forward_batch, grad, grad_batch, init_params, train
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


def _argmax_lowest(scores: np.ndarray) -> int:
    # np.argmax already breaks ties toward the lowest index
    return int(np.argmax(scores))


class _NeuralNet:
    """One trainable network with its own history and warm-started parameters."""

    def __init__(self, shape: NetShape, seed, cfg: TrainConfig, warm_start: bool):
        self.cfg = cfg
        self.warm_start = warm_start
        self.theta0 = init_params(shape, seed)
        self.theta = self.theta0.copy()
        self.history: list[tuple[np.ndarray, float]] = []

    def add(self, x: np.ndarray, r: float) -> None:
        self.history.append((np.asarray(x, dtype=np.float64), float(r)))

    def fit(self, rng: np.random.Generator) -> None:
        start = self.theta if self.warm_start else self.theta0
        self.theta = train(self.theta0, start, self.history, self.cfg, rng)


class _NeuralBandit(Policy):
    """Shared plumbing for NeuralTS / NeuralUCB: network + design matrix."""

    def __init__(self, shape: NetShape, cfg: PolicyConfig, seed):
        children = np.random.SeedSequence(seed).spawn(3)
        self.select_rng = np.random.default_rng(children[0])
        self.observe_rng = np.random.default_rng(children[1])
        self.cfg = cfg
        self.net = _NeuralNet(shape, children[2], cfg.train, cfg.warm_start)
        self.design = DesignMatrix(shape.n_params, cfg.reg, shape.width,
                                   mode="full" if cfg.posterior == "full" else "diagonal")
        self.t = 0

    def _scores(self, means: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def select(self, contexts: np.ndarray) -> Decision:
        contexts = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
        means = forward_batch(self.net.theta, contexts)
        feats = grad_batch(self.net.theta, contexts)
        sigmas = np.array([self.design.sigma(g) for g in feats])
        scores = self._scores(means, sigmas)
        return Decision(_argmax_lowest(scores), scores, means, sigmas)

    def observe(self, context: np.ndarray, reward: float) -> None:
        if not np.isfinite(reward):
            raise ValueError("reward must be finite")
        self.t += 1
        self.net.add(context, reward)
        if self.cfg.stop_train is None or self.t <= self.cfg.stop_train:
            self.net.fit(self.observe_rng)
        self.design.update(grad(self.net.theta, context))


class NeuralTS(_NeuralBandit):
    """Thompson sampling on the scalar reward posterior of the network."""

    def _scores(self, means, sigmas):
        if self.cfg.nu == 0.0:
            return means.copy()
        noise = self.select_rng.standard_normal(len(means))
        return means + self.cfg.nu * sigmas * noise


class NeuralUCB(_NeuralBandit):
    """Deterministic twin: score = mean + nu * sigma."""

    def _scores(self, means, sigmas):
        return means + self.cfg.nu * sigmas


class EpsGreedyNN(Policy):
    """Greedy on the network output, uniform with probability eps."""

    def __init__(self, shape: NetShape, cfg: PolicyConfig, seed):
        children = np.random.SeedSequence(seed).spawn(3)
        self.select_rng = np.random.default_rng(children[0])
        self.observe_rng = np.random.default_rng(children[1])
        self.cfg = cfg
        self.net = _NeuralNet(shape, children[2], cfg.train, cfg.warm_start)
        self.t = 0

    def select(self, contexts: np.ndarray) -> Decision:
        contexts = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
        means = forward_batch(self.net.theta, contexts)
        arm = _argmax_lowest(means)
        if self.cfg.eps > 0.0 and self.select_rng.random() < self.cfg.eps:
            arm = int(self.select_rng.integers(len(means)))
        return Decision(arm, means.copy(), means, np.zeros_like(means))

    def observe(self, context: np.ndarray, reward: float) -> None:
        self.t += 1
        self.net.add(context, reward)
        if self.cfg.stop_train is None or self.t <= self.cfg.stop_train:
            self.net.fit(self.observe_rng)


class BootstrapNN(Policy):
    """Ensemble of networks trained on independently subsampled histories."""

    def __init__(self, shape: NetShape, cfg: PolicyConfig, seed):
        children = np.random.SeedSequence(seed).spawn(2 + cfg.n_networks)
        self.select_rng = np.random.default_rng(children[0])
        self.observe_rng = np.random.default_rng(children[1])
        self.cfg = cfg
        self.nets = [_NeuralNet(shape, s, cfg.train, cfg.warm_start)
                     for s in children[2:]]
        self.t = 0
        self.n_included = 0
        self.n_offered = 0

    def select(self, contexts: np.ndarray) -> Decision:
        contexts = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
        pick = int(self.select_rng.integers(len(self.nets)))
        means = forward_batch(self.nets[pick].theta, contexts)
        return Decision(_argmax_lowest(means), means.copy(), means,
                        np.zeros_like(means))

    def observe(self, context: np.ndarray, reward: float) -> None:
        self.t += 1
        do_train = self.cfg.stop_train is None or self.t <= self.cfg.stop_train
        for net in self.nets:
            self.n_offered += 1
            if self.observe_rng.random() < self.cfg.include_prob:
                self.n_included += 1
                net.add(context, reward)
            if do_train:
                net.fit(self.observe_rng)


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
        if self.thompson:
            if self.cfg.nu == 0.0:
                scores = means.copy()
            else:
                scores = means + self.cfg.nu * widths * \
                    self.select_rng.standard_normal(len(means))
        else:
            scores = means + self.cfg.nu * widths
        return Decision(_argmax_lowest(scores), scores, means, widths)

    def observe(self, context: np.ndarray, reward: float) -> None:
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
        if self.thompson:
            if self.cfg.nu == 0.0:
                scores = means.copy()
            else:
                scores = means + self.cfg.nu * widths * \
                    self.select_rng.standard_normal(K)
        else:
            scores = means + self.cfg.nu * widths
        return Decision(_argmax_lowest(scores), scores, means, widths)

    def observe(self, context: np.ndarray, reward: float) -> None:
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
