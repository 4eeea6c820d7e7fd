"""Stacked training gives every network the bits of training it alone.

`SeedNeuralNet`, `seed_train` and `SeedBootstrapNN` below are the one-network-
at-a-time trainer and ensemble that the stacked loop replaced: each network
restacked its own history and ran its own GD/SGD loop.  The stacked policies
must reproduce their parameters byte for byte after every observe.
"""

import numpy as np
import pytest

from banditbench import harness, policies
from banditbench.harness import ExperimentConfig, run_episode
from banditbench.nn import (Batches, NetShape, ParamStack, TrainConfig,
                            TrainingDiverged, draw_batches, forward_batch,
                            init_params, train)
from banditbench.policies import (BootstrapNN, Decision, PolicyConfig,
                                  make_policy)
from helpers import flat, without_wall_clock


def _seed_forward_cached(theta, X):
    m = theta.shape.width
    pre = []
    A = X
    for W in theta.layers[:-1]:
        Z = A @ W[0].T
        pre.append(Z)
        A = np.maximum(Z, 0.0)
    out = np.sqrt(m) * (A @ theta.layers[-1][0].T)[:, 0]
    return out, pre


def _seed_backward_weighted(theta, X, pre, seed):
    m = theta.shape.width
    acts = [X] + [np.maximum(Z, 0.0) for Z in pre]
    grads = [None] * len(theta.layers)
    delta = np.sqrt(m) * seed[:, None] * np.ones((X.shape[0], 1))
    grads[-1] = delta.T @ acts[-1]
    back = delta @ theta.layers[-1][0]
    for l in range(len(theta.layers) - 2, -1, -1):
        delta = back * (pre[l] > 0.0)
        grads[l] = delta.T @ acts[l]
        if l > 0:
            back = delta @ theta.layers[l][0]
    return grads


def seed_train(theta0, theta_init, dataset, cfg, rng=None):
    m = theta0.shape.width
    if cfg.step_size * m * cfg.reg >= 1.0:
        raise ValueError("the regularization contraction diverges")
    if not dataset:
        return theta_init.copy()
    if cfg.mode == "sgd" and rng is None:
        rng = np.random.default_rng(0)
    X = np.asarray([x for x, _ in dataset], dtype=np.float64)
    r = np.asarray([rw for _, rw in dataset], dtype=np.float64)
    n = len(dataset)
    theta = theta_init.copy()
    for _ in range(cfg.iterations):
        if cfg.mode == "gd":
            Xb, rb = X, r
        else:
            idx = rng.integers(0, n, size=min(cfg.batch_size, n))
            Xb, rb = X[idx], r[idx]
        out, pre = _seed_forward_cached(theta, Xb)
        resid = out - rb
        if not np.all(np.isfinite(resid)):
            raise TrainingDiverged("non-finite residuals during training")
        if cfg.mode == "sgd":
            resid = resid * (n / len(rb))
        grads = _seed_backward_weighted(theta, Xb, pre, resid)
        for l, (W, W0, G) in enumerate(zip(theta.layers, theta0.layers, grads)):
            theta.layers[l] = W - cfg.step_size * (G + m * cfg.reg * (W - W0))
    return theta


class SeedNeuralNet:
    def __init__(self, shape, seed, cfg):
        self.cfg = cfg
        self.theta0 = init_params(shape, seed)
        self.theta = self.theta0.copy()
        self.history = []

    def add(self, x, r):
        self.history.append((np.asarray(x, dtype=np.float64), float(r)))

    def fit(self, rng):
        self.theta = seed_train(self.theta0, self.theta, self.history,
                                self.cfg, rng)


class SeedBootstrapNN(BootstrapNN):
    """The ensemble as it was: ten separate fits per observe."""

    def __init__(self, shape, cfg, seed):
        children = np.random.SeedSequence(seed).spawn(2 + cfg.n_networks)
        self.select_rng = np.random.default_rng(children[0])
        self.observe_rng = np.random.default_rng(children[1])
        self.cfg = cfg
        self.nets = [SeedNeuralNet(shape, s, cfg.train) for s in children[2:]]
        self.t = 0

    def observe(self, context, reward):
        self.t += 1
        do_train = self.t <= self.cfg.stop_train
        for net in self.nets:
            if self.observe_rng.random() < self.cfg.include_prob:
                net.add(context, reward)
            if do_train:
                net.fit(self.observe_rng)

    def select(self, contexts):
        pick = int(self.select_rng.integers(len(self.nets)))
        means = forward_batch(self.nets[pick].theta, contexts)
        return Decision(int(np.argmax(means)), means.copy(), means,
                        np.zeros_like(means))


SGD8 = TrainConfig(step_size=0.002, iterations=6, reg=0.37, mode="sgd",
                  batch_size=8)
GD = TrainConfig(step_size=0.002, iterations=4, reg=0.6, mode="gd")


def boot_cfg(**kw):
    values = dict(algorithm="bootstrap-nn", train=SGD8, width=8, depth=2,
                  n_networks=3, include_prob=0.8, stop_train=1000)
    values.update(kw)
    return PolicyConfig(**values)


def contexts_stream(rounds, dim, seed=0):
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((rounds, dim // 2))
    half /= np.linalg.norm(half, axis=1, keepdims=True)
    return np.hstack([half, half]) / np.sqrt(2.0), rng.uniform(-1, 1, rounds)


def assert_same_ensembles(cfg, rounds=24, dim=6, seed=5):
    shape = NetShape(dim, cfg.width, cfg.depth)
    new = BootstrapNN(shape, cfg, seed)
    old = SeedBootstrapNN(shape, cfg, seed)
    X, r = contexts_stream(rounds, dim)
    lengths = set()
    for t, (x, reward) in enumerate(zip(X, r), start=1):
        new.observe(x, reward)
        old.observe(x, reward)
        for a, b in zip(new.nets, old.nets):
            assert flat(a).tobytes() == flat(b.theta).tobytes()
        # past the stop round the seed ensemble still includes rows and
        # draws from the observation stream; no fit reads either
        if t <= cfg.stop_train:
            lengths.add(tuple(len(history) for history in new.histories))
            for a, b in zip(new.histories, old.nets):
                assert len(a) == len(b.history)
            assert new.observe_rng.random() == old.observe_rng.random()
    return lengths


class TestBootstrapMatchesSeparateFits:
    def test_ragged_sgd_groups(self):
        lengths = assert_same_ensembles(boot_cfg())
        # networks held different row counts below the batch size, so
        # they stepped in groups of different batch lengths
        assert any(len(set(min(n, 8) for n in ls)) > 1 for ls in lengths)

    def test_gd_mode(self):
        assert_same_ensembles(boot_cfg(train=GD))

    def test_stop_train(self):
        assert_same_ensembles(boot_cfg(stop_train=7))

    def test_include_prob_zero(self):
        lengths = assert_same_ensembles(boot_cfg(include_prob=0.0))
        assert lengths == {(0, 0, 0)}

    def test_ten_networks_deeper(self):
        assert_same_ensembles(boot_cfg(n_networks=10, depth=3, width=6),
                              rounds=40)


@pytest.mark.parametrize("n, batch", [(5, 8), (7, 3), (1000, 64)])
def test_one_draw_call_is_the_per_iteration_stream(n, batch):
    # draw_batches makes one rng.integers call per network; the old trainer
    # made one per iteration
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    a.random(), b.random()
    cfg = TrainConfig(step_size=1e-3, iterations=7, mode="sgd", batch_size=batch)
    expected = np.stack([a.integers(0, n, size=min(batch, n)) for _ in range(7)])
    np.testing.assert_array_equal(draw_batches(np.arange(n), cfg, b), expected)
    assert a.random() == b.random()


class TestSingleNetworkMatchesSeed:
    @pytest.mark.parametrize("cfg", [SGD8, GD, TrainConfig(step_size=0.002,
                                                           iterations=0,
                                                           mode="gd")])
    def test_train_on_pairs(self, cfg):
        # one network trained on (context, reward) pairs as a stack of one
        shape = NetShape(6, 8, 3)
        theta0 = init_params(shape, 3)
        X, r = contexts_stream(20, 6, seed=2)
        data = list(zip(X, r))
        start = seed_train(theta0, theta0, data[:5], cfg, np.random.default_rng(1))
        before = flat(start).tobytes()
        new = ParamStack.of([start])
        batches = Batches(X, r, [len(X)], [draw_batches(
            np.arange(len(X)), cfg, np.random.default_rng(7))])
        train(ParamStack.of([theta0]), new, batches, cfg)
        old = seed_train(theta0, start, data, cfg, np.random.default_rng(7))
        assert flat(new.member(0)).tobytes() == flat(old).tobytes()
        assert flat(start).tobytes() == before

    @pytest.mark.parametrize("algorithm", ["neural-ts", "eps-greedy"])
    def test_policy_networks(self, algorithm):
        cfg = PolicyConfig(algorithm=algorithm, train=SGD8, width=8, depth=2,
                           stop_train=15)
        policy = make_policy(cfg, 6, 9)
        ref = SeedNeuralNet(NetShape(6, 8, 2),
                            np.random.SeedSequence(9).spawn(3)[2], SGD8)
        rng = np.random.default_rng(np.random.SeedSequence(9).spawn(3)[1])
        X, r = contexts_stream(20, 6, seed=3)
        for t, (x, reward) in enumerate(zip(X, r), start=1):
            policy.observe(x, reward)
            ref.add(x, reward)
            if t <= 15:
                ref.fit(rng)
            assert flat(policy.net).tobytes() == flat(ref.theta).tobytes()


class TestTraces:
    def test_bootstrap_trace_matches_seed_ensemble(self, monkeypatch):
        config = ExperimentConfig(
            dataset="synthetic-nonlinear", horizon=40, repeats=1, n_arms=3,
            raw_dim=4, policy=boot_cfg(n_networks=4, width=6))

        def rows():
            return without_wall_clock(run_episode(config, 0).rounds)

        real = rows()
        monkeypatch.setattr(policies, "BootstrapNN", SeedBootstrapNN)
        assert isinstance(harness.make_policy(config.policy, 8, 0),
                          SeedBootstrapNN)
        assert rows() == real


class TestDivergence:
    def diverging(self, **kw):
        cfg = TrainConfig(**{"step_size": 0.2, "iterations": 200, "reg": 1.0,
                             "mode": "gd", **kw})
        rng = np.random.default_rng(0)
        data = [(rng.standard_normal(4) * 30.0, 100.0) for _ in range(12)]
        return cfg, data

    def test_message_names_the_run_and_a_remedy(self):
        cfg, data = self.diverging()
        theta0 = ParamStack.of([init_params(NetShape(4, 4, 2), 0)])
        batches = Batches(np.array([x for x, _ in data]),
                          np.array([v for _, v in data]), [len(data)],
                          [draw_batches(np.arange(len(data)), cfg, None)])
        with pytest.raises(TrainingDiverged) as info:
            train(theta0, theta0.copy(), batches, cfg)
        msg = str(info.value)
        for part in ("network 0", "of 200 (gd)", "on 12 history rows",
                     "step_size=0.2,", "width 4", "reg 1.0.",
                     "lower --lr or use --train-mode sgd"):
            assert part in msg

    def test_ensemble_names_the_network(self):
        cfg, data = self.diverging(mode="sgd", batch_size=4)
        boot = BootstrapNN(NetShape(4, 4, 2),
                           boot_cfg(train=cfg, width=4, include_prob=0.5), 1)
        with pytest.raises(TrainingDiverged) as info:
            for x, reward in data:
                boot.observe(x, reward)
        msg = str(info.value)
        assert "(sgd, batch_size 4)" in msg and "lower --lr" in msg
        assert "--train-mode" not in msg
        net = int(msg.split("network ")[1].split()[0])
        rows = int(msg.split(" history rows")[0].rsplit(" ", 1)[1])
        assert 0 <= net < 3 and rows == len(boot.histories[net])

