import numpy as np
import pytest

from banditbench.data import duplicate_half, normalize_unit
from banditbench.nn import NetShape, TrainConfig, forward_batch
from banditbench.policies import (BootstrapNN, Decision, EpsGreedyNN,
                                  KernelPolicy, LinearPolicy, NeuralTS,
                                  NeuralUCB, PolicyConfig, UniformRandom,
                                  make_policy)

FAST_TRAIN = TrainConfig(step_size=0.001, iterations=5)


def neural_cfg(algorithm, **kw):
    defaults = dict(algorithm=algorithm, nu=0.1, reg=1.0, train=FAST_TRAIN,
                    posterior="full", width=8, depth=2, stop_train=1000)
    defaults.update(kw)
    return PolicyConfig(**defaults)


def random_contexts(rng, n_arms, dim):
    raw = rng.standard_normal((n_arms, dim // 2))
    return np.stack([duplicate_half(normalize_unit(x)) for x in raw])


class TestNeuralTS:
    def test_nu_zero_is_greedy(self):
        rng = np.random.default_rng(0)
        policy = make_policy(neural_cfg("neural-ts", nu=0.0), 4, seed=1)
        for _ in range(5):
            contexts = random_contexts(rng, 3, 4)
            decision = policy.select(contexts)
            np.testing.assert_array_equal(decision.scores, decision.means)
            assert decision.arm == int(np.argmax(decision.means))
            policy.observe(contexts[decision.arm], float(rng.uniform()))

    def test_argmax_on_means(self):
        policy = make_policy(neural_cfg("neural-ts", nu=0.0), 4, seed=2)
        decision = Decision(int(np.argmax([0.1, 0.9, 0.3])), None, None, None)
        assert decision.arm == 1  # documented argmax semantics
        # and through the full path: identical contexts give equal scores,
        # ties break to the lowest index
        contexts = np.tile(random_contexts(np.random.default_rng(1), 1, 4), (3, 1))
        assert policy.select(contexts).arm == 0

    def test_fresh_state_selection_frequencies(self):
        # all means are 0 at theta_0 on duplicated-half contexts, so the arm
        # pull distribution is P(arm k's Gaussian is the max); estimate that
        # with a direct Monte-Carlo oracle using the same sigma values
        policy = make_policy(neural_cfg("neural-ts", nu=1.0), 6, seed=3)
        contexts = random_contexts(np.random.default_rng(2), 3, 6)
        first = policy.select(contexts)
        np.testing.assert_allclose(first.means, 0.0, atol=1e-9)
        sig = first.sigmas

        oracle_rng = np.random.default_rng(3)
        draws = oracle_rng.standard_normal((200_000, 3)) * sig[None, :]
        expected = np.bincount(np.argmax(draws, axis=1), minlength=3) / 200_000

        counts = np.zeros(3)
        for _ in range(10_000):
            counts[policy.select(contexts).arm] += 1
        chi2 = float(np.sum((counts - 10_000 * expected) ** 2
                            / (10_000 * expected)))
        # dof = 2: p-value exp(-chi2/2) > 0.01 means chi2 < 9.21
        assert chi2 < 9.21

    def test_select_does_not_mutate_state(self):
        policy = make_policy(neural_cfg("neural-ts"), 4, seed=4)
        contexts = random_contexts(np.random.default_rng(3), 2, 4)
        theta_before = policy.net.theta.flat.copy()
        logdet_before = policy.design.logdet
        for _ in range(10):
            policy.select(contexts)
        np.testing.assert_array_equal(policy.net.theta.flat, theta_before)
        assert policy.design.logdet == logdet_before

    def test_stop_train_zero_freezes_parameters(self):
        policy = make_policy(neural_cfg("neural-ts", stop_train=0), 4, seed=5)
        theta0 = policy.net.theta0.flat.copy()
        contexts = random_contexts(np.random.default_rng(4), 2, 4)
        logdet_before = policy.design.logdet
        for k in range(4):
            policy.observe(contexts[k % 2], 1.0)
        np.testing.assert_array_equal(policy.net.theta.flat, theta0)
        assert policy.design.logdet > logdet_before  # U still accumulates

    def test_observe_is_stateful_no_dedup(self):
        contexts = random_contexts(np.random.default_rng(5), 2, 4)

        def run(n):
            policy = make_policy(neural_cfg("neural-ts"), 4, seed=6)
            for _ in range(n):
                policy.observe(contexts[0], 1.0)
            return policy.design.logdet

        assert run(2) != run(1)

    def test_logdet_matches_recomputation(self):
        policy = make_policy(neural_cfg("neural-ts"), 4, seed=7)
        rng = np.random.default_rng(6)
        from banditbench.nn import grad
        expected = policy.design.dim * np.log(policy.design.reg)
        for _ in range(6):
            ctx = random_contexts(rng, 1, 4)[0]
            inv_before = policy.design.inverse
            # theta after this observe is what enters the update feature
            policy.observe(ctx, float(rng.uniform()))
            g = grad(policy.net.theta, ctx)
            expected += np.log(1.0 + float(g @ inv_before @ g) / policy.design.width)
        assert policy.design.logdet == pytest.approx(expected, abs=1e-8)

    def test_reward_must_be_finite(self):
        policy = make_policy(neural_cfg("neural-ts"), 4, seed=8)
        with pytest.raises(ValueError):
            policy.observe(np.ones(4) / 2.0, np.nan)

    def test_seed_reproducibility(self):
        def decisions(seed):
            rng = np.random.default_rng(9)
            policy = make_policy(neural_cfg("neural-ts"), 4, seed=seed)
            out = []
            for _ in range(6):
                contexts = random_contexts(rng, 3, 4)
                d = policy.select(contexts)
                out.append(d.arm)
                policy.observe(contexts[d.arm], float(rng.uniform()))
            return out

        assert decisions(11) == decisions(11)


class TestNeuralUCB:
    def test_nu_zero_matches_ts(self):
        rng = np.random.default_rng(10)
        ts = make_policy(neural_cfg("neural-ts", nu=0.0), 4, seed=12)
        ucb = make_policy(neural_cfg("neural-ucb", nu=0.0), 4, seed=12)
        for _ in range(5):
            contexts = random_contexts(rng, 3, 4)
            a, b = ts.select(contexts), ucb.select(contexts)
            assert a.arm == b.arm
            reward = float(rng.uniform())
            ts.observe(contexts[a.arm], reward)
            ucb.observe(contexts[b.arm], reward)

    def test_equal_sigma_greedy(self):
        policy = make_policy(neural_cfg("neural-ucb", nu=0.5), 4, seed=13)
        means = np.array([0.3, -0.1, 0.7])
        scores = policy._scores(means, np.ones(3))
        assert int(np.argmax(scores)) == int(np.argmax(means))

    def test_larger_bonus_wins(self):
        policy = make_policy(neural_cfg("neural-ucb", nu=0.1), 4, seed=14)
        scores = policy._scores(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        assert int(np.argmax(scores)) == 1

    def test_deterministic_given_state(self):
        policy = make_policy(neural_cfg("neural-ucb"), 4, seed=15)
        contexts = random_contexts(np.random.default_rng(11), 3, 4)
        first = policy.select(contexts)
        second = policy.select(contexts)
        assert first.arm == second.arm
        np.testing.assert_array_equal(first.scores, second.scores)


class TestLinear:
    def test_fresh_unit_width(self):
        policy = LinearPolicy(3, neural_cfg("lin-ucb", reg=1.0, nu=1.0), 0,
                              thompson=False)
        decision = policy.select(np.array([[1.0, 0.0, 0.0]]))
        assert decision.sigmas[0] == pytest.approx(1.0)

    def test_scalar_ridge_mean(self):
        policy = LinearPolicy(1, neural_cfg("lin-ucb", reg=1.0, nu=0.0), 0,
                              thompson=False)
        policy.observe(np.array([1.0]), 1.0)
        policy.observe(np.array([1.0]), 0.0)
        decision = policy.select(np.array([[1.0]]))
        assert decision.means[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_ts_nu_zero_is_greedy(self):
        rng = np.random.default_rng(12)
        ts = LinearPolicy(3, neural_cfg("lin-ts", nu=0.0), 1, thompson=True)
        greedy = LinearPolicy(3, neural_cfg("lin-ucb", nu=0.0), 1, thompson=False)
        for _ in range(10):
            X = rng.standard_normal((4, 3))
            a, b = ts.select(X), greedy.select(X)
            assert a.arm == b.arm
            r = float(rng.uniform())
            ts.observe(X[a.arm], r)
            greedy.observe(X[b.arm], r)

    def test_inverse_tracks_direct_solve(self):
        rng = np.random.default_rng(13)
        reg = 0.7
        policy = LinearPolicy(5, neural_cfg("lin-ucb", reg=reg), 0, thompson=False)
        A = reg * np.eye(5)
        b = np.zeros(5)
        for _ in range(100):
            x = rng.standard_normal(5)
            r = float(rng.uniform())
            policy.observe(x, r)
            A += np.outer(x, x)
            b += r * x
        np.testing.assert_allclose(policy.a_inv, np.linalg.inv(A), atol=1e-8)
        np.testing.assert_allclose(policy.b, b, atol=1e-12)

    def test_inverse_exactly_symmetric_without_resymmetrising(self):
        rng = np.random.default_rng(14)
        policy = LinearPolicy(7, neural_cfg("lin-ucb", reg=0.3), 0, thompson=False)
        ref = np.eye(7) / 0.3
        for _ in range(60):
            x = rng.standard_normal(7)
            policy.observe(x, float(rng.uniform()))
            u = ref @ x
            ref -= np.outer(u, u) / (1.0 + float(x @ u))
            ref = (ref + ref.T) / 2.0
        np.testing.assert_array_equal(policy.a_inv, policy.a_inv.T)
        np.testing.assert_array_equal(policy.a_inv, ref)


class TestKernel:
    def test_fresh_variance_one(self):
        policy = KernelPolicy(neural_cfg("kernel-ts", bandwidth=1.0), 0,
                              thompson=True)
        decision = policy.select(np.ones((2, 3)))
        np.testing.assert_allclose(decision.sigmas, 1.0)
        np.testing.assert_allclose(decision.means, 0.0)

    def test_interpolation_limit(self):
        cfg = neural_cfg("kernel-ucb", bandwidth=1.0, reg=1e-10, nu=0.0)
        policy = KernelPolicy(cfg, 0, thompson=False)
        x = np.array([0.3, -0.2])
        policy.observe(x, 0.7)
        decision = policy.select(x[None, :])
        assert decision.means[0] == pytest.approx(0.7, abs=1e-6)
        assert decision.sigmas[0] == pytest.approx(0.0, abs=1e-4)

    def test_dense_solve_oracle(self):
        rng = np.random.default_rng(14)
        gamma, reg = 1.0, 1.0
        cfg = neural_cfg("kernel-ucb", bandwidth=gamma, reg=reg, nu=0.0)
        policy = KernelPolicy(cfg, 0, thompson=False)
        X = rng.standard_normal((3, 2))
        r = rng.uniform(size=3)
        for x, ri in zip(X, r):
            policy.observe(x, float(ri))

        def kfun(a, b):
            return np.exp(-gamma * np.sum((a - b) ** 2))

        K = np.array([[kfun(a, b) for b in X] for a in X])
        query = rng.standard_normal(2)
        kv = np.array([kfun(query, b) for b in X])
        mean = kv @ np.linalg.solve(K + reg * np.eye(3), r)
        var = kfun(query, query) - kv @ np.linalg.solve(K + reg * np.eye(3), kv)
        decision = policy.select(query[None, :])
        assert decision.means[0] == pytest.approx(mean, abs=1e-10)
        assert decision.sigmas[0] ** 2 == pytest.approx(var, abs=1e-10)

    def test_frozen_after_stop_round(self):
        cfg = neural_cfg("kernel-ts", stop_train=2)
        policy = KernelPolicy(cfg, 0, thompson=True)
        rng = np.random.default_rng(15)
        for _ in range(5):
            policy.observe(rng.standard_normal(3), float(rng.uniform()))
        assert len(policy.r) == 2


class TestEpsGreedy:
    def test_eps_one_uniform(self):
        policy = make_policy(neural_cfg("eps-greedy", eps=1.0, stop_train=0), 4,
                             seed=16)
        contexts = random_contexts(np.random.default_rng(16), 4, 4)
        counts = np.zeros(4)
        for _ in range(10_000):
            counts[policy.select(contexts).arm] += 1
        np.testing.assert_allclose(counts / 10_000, 0.25, atol=0.02)

    def test_eps_zero_greedy(self):
        policy = make_policy(neural_cfg("eps-greedy", eps=0.0), 4, seed=17)
        contexts = random_contexts(np.random.default_rng(17), 3, 4)
        means = forward_batch(policy.net.theta, contexts)
        assert policy.select(contexts).arm == int(np.argmax(means))

    def test_non_greedy_frequency(self):
        # eps=0.1, K=10: each specific non-greedy arm is hit by the uniform
        # branch w.p. 0.01 per round
        policy = make_policy(neural_cfg("eps-greedy", eps=0.1, stop_train=0), 4,
                             seed=18)
        contexts = random_contexts(np.random.default_rng(18), 10, 4)
        greedy = int(np.argmax(forward_batch(policy.net.theta, contexts)))
        n = 20_000
        counts = np.zeros(10)
        for _ in range(n):
            counts[policy.select(contexts).arm] += 1
        p = 0.01
        se = np.sqrt(p * (1 - p) / n)
        for k in range(10):
            if k == greedy:
                continue
            assert counts[k] / n == pytest.approx(p, abs=3 * se)


class TestBootstrap:
    def test_degenerate_matches_eps_greedy(self):
        rng = np.random.default_rng(19)
        boot = make_policy(neural_cfg("bootstrap-nn", n_networks=1,
                                      include_prob=1.0), 4, seed=20)
        greedy = make_policy(neural_cfg("eps-greedy", eps=0.0), 4, seed=20)
        for _ in range(6):
            contexts = random_contexts(rng, 3, 4)
            a, b = boot.select(contexts), greedy.select(contexts)
            assert a.arm == b.arm
            r = float(rng.uniform())
            boot.observe(contexts[a.arm], r)
            greedy.observe(contexts[b.arm], r)

    def test_q_zero_never_trains(self):
        boot = make_policy(neural_cfg("bootstrap-nn", n_networks=3,
                                      include_prob=0.0), 4, seed=21)
        init = [net.theta0.flat.copy() for net in boot.nets]
        rng = np.random.default_rng(20)
        for _ in range(5):
            boot.observe(random_contexts(rng, 1, 4)[0], 1.0)
        for net, theta0 in zip(boot.nets, init):
            assert not net.history
            np.testing.assert_array_equal(net.theta.flat, theta0)

    def test_inclusion_frequency(self):
        cfg = neural_cfg("bootstrap-nn", n_networks=2, include_prob=0.8,
                         stop_train=0)
        boot = make_policy(cfg, 4, seed=22)
        rng = np.random.default_rng(21)
        for _ in range(500):
            boot.observe(random_contexts(rng, 1, 4)[0], 1.0)
        frac = boot.n_included / boot.n_offered
        se = np.sqrt(0.8 * 0.2 / boot.n_offered)
        assert frac == pytest.approx(0.8, abs=3 * se)


class TestUniform:
    def test_uniform_frequencies(self):
        policy = UniformRandom(seed=23)
        counts = np.zeros(5)
        contexts = np.zeros((5, 2))
        for _ in range(10_000):
            counts[policy.select(contexts).arm] += 1
        np.testing.assert_allclose(counts / 10_000, 0.2, atol=0.02)


class TestFactory:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            make_policy(neural_cfg("nope"), 4, 0)

    def test_all_algorithms_constructible(self):
        from banditbench.policies import ALGORITHMS
        for algo in ALGORITHMS:
            policy = make_policy(neural_cfg(algo), 4, seed=0)
            decision = policy.select(random_contexts(np.random.default_rng(0), 2, 4))
            assert 0 <= decision.arm < 2

    def test_unknown_posterior_rejected(self):
        with pytest.raises(ValueError, match="posterior"):
            neural_cfg("neural-ts", posterior="Full")


LEARNING = ["neural-ts", "neural-ucb", "lin-ts", "lin-ucb", "kernel-ts",
            "kernel-ucb", "eps-greedy", "bootstrap-nn"]


@pytest.mark.parametrize("algorithm", LEARNING)
def test_nan_reward_rejected(algorithm):
    policy = make_policy(neural_cfg(algorithm), 4, seed=24)
    contexts = random_contexts(np.random.default_rng(24), 2, 4)
    policy.observe(contexts[0], 0.5)
    with pytest.raises(ValueError, match="reward must be finite"):
        policy.observe(contexts[1], np.nan)
    assert np.all(np.isfinite(policy.select(contexts).scores))
