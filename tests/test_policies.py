import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from helpers import flat, inverse
from regret_equivalence import assert_regret_equivalent

from banditbench import nn
from banditbench.data import duplicate_half, normalize_unit
from banditbench.harness import ExperimentConfig, run_episode
from banditbench.nn import NetShape, TrainConfig, forward_batch
from banditbench.policies import (BootstrapNN, Decision, EpsGreedyNN,
                                  KernelPolicy, LinearPolicy, NeuralBandit,
                                  PolicyConfig, UniformRandom, make_policy,
                                  score)

FAST_TRAIN = TrainConfig(step_size=0.001, iterations=5, mode="gd")


def neural_cfg(algorithm, **kw):
    defaults = dict(algorithm=algorithm, nu=0.1, reg=1.0, train=FAST_TRAIN,
                    posterior="full", width=8, depth=2, stop_train=1000)
    defaults.update(kw)
    return PolicyConfig(**defaults)


def random_contexts(rng, n_arms, dim):
    raw = rng.standard_normal((n_arms, dim // 2))
    return duplicate_half(normalize_unit(raw))


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
        theta_before = flat(policy.net.theta)
        logdet_before = policy.design.logdet
        for _ in range(10):
            policy.select(contexts)
        np.testing.assert_array_equal(flat(policy.net.theta), theta_before)
        assert policy.design.logdet == logdet_before

    def test_stop_train_zero_freezes_parameters(self):
        policy = make_policy(neural_cfg("neural-ts", stop_train=0), 4, seed=5)
        theta0 = flat(policy.theta0.member(0))
        contexts = random_contexts(np.random.default_rng(4), 2, 4)
        logdet_before = policy.design.logdet
        for k in range(4):
            policy.observe(contexts[k % 2], 1.0)
        np.testing.assert_array_equal(flat(policy.net.theta), theta0)
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
            inv_before = inverse(policy.design)
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

    def test_degenerate_update_names_both_remedies(self):
        # frozen weights give one context the same feature every time, and
        # at reg=1e-20 its copies soon round U to a singular matrix
        policy = make_policy(neural_cfg("neural-ts", reg=1e-20, stop_train=0),
                             2, seed=0)
        x = np.array([0.6, 0.8])
        with pytest.raises(np.linalg.LinAlgError,
                           match="; raise --lambda or use --posterior diag$"):
            for _ in range(40):
                policy.observe(x, 1.0)


class TestNeuralBandit:
    @pytest.mark.parametrize("algorithm,thompson", [("neural-ts", True),
                                                    ("neural-ucb", False)])
    def test_make_policy_sets_the_scoring_rule(self, algorithm, thompson):
        policy = make_policy(neural_cfg(algorithm), 4, seed=0)
        assert type(policy) is NeuralBandit
        assert policy.thompson is thompson

    @pytest.mark.parametrize("algorithm", ["neural-ts", "neural-ucb"])
    def test_select_runs_one_forward_pass(self, monkeypatch, algorithm):
        rng = np.random.default_rng(4)
        policy = make_policy(neural_cfg(algorithm), 4, seed=3)
        for _ in range(3):
            policy.observe(random_contexts(rng, 1, 4)[0], float(rng.uniform()))
        passes = []
        forward_cached = nn._forward_cached

        def counted(*args):
            passes.append(1)
            return forward_cached(*args)

        monkeypatch.setattr(nn, "_forward_cached", counted)
        policy.select(random_contexts(rng, 3, 4))
        assert len(passes) == 1


class TestDefaultTraining:
    def test_default_neural_ts_completes_a_synthetic_episode(self):
        # GD x100 at lr 1e-3 diverges in round 107 of this episode
        config = ExperimentConfig("synthetic-nonlinear",
                                  PolicyConfig("neural-ts"), horizon=300,
                                  repeats=1)
        assert len(run_episode(config, 0).rounds) == 300


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
        scores = score(means, np.ones(3), policy.cfg.nu, policy.thompson,
                       policy.select_rng)
        assert int(np.argmax(scores)) == int(np.argmax(means))

    def test_larger_bonus_wins(self):
        policy = make_policy(neural_cfg("neural-ucb", nu=0.1), 4, seed=14)
        scores = score(np.array([0.0, 0.0]), np.array([1.0, 2.0]),
                       policy.cfg.nu, policy.thompson, policy.select_rng)
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
        np.testing.assert_allclose(inverse(policy.design), np.linalg.inv(A),
                                   atol=1e-8)
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
        inv = inverse(policy.design)
        np.testing.assert_array_equal(inv, inv.T)
        np.testing.assert_allclose(inv, ref, rtol=1e-9)

    @pytest.mark.parametrize("algorithm,dim", [("lin-ts", 37), ("lin-ucb", 70)])
    def test_matches_outer_product_update(self, algorithm, dim):
        # 300 observations cross from the dual to the primal form (at 23 and
        # 42), at dims that are not multiples of the 32-row update blocks
        cfg = neural_cfg(algorithm, reg=0.4, nu=0.3)
        thompson = algorithm == "lin-ts"
        policy = LinearPolicy(dim, cfg, 31, thompson)
        ref = OuterProductLinearPolicy(dim, cfg, 31, thompson)
        rng = np.random.default_rng(31)
        for _ in range(300):
            contexts = rng.standard_normal((4, dim))
            got, want = policy.select(contexts), ref.select(contexts)
            assert got.arm == want.arm
            for name in ("scores", "means", "sigmas"):
                np.testing.assert_allclose(getattr(got, name),
                                           getattr(want, name), rtol=1e-9)
            reward = float(rng.uniform())
            policy.observe(contexts[got.arm], reward)
            ref.observe(contexts[got.arm], reward)
            inv = inverse(policy.design)
            np.testing.assert_array_equal(inv, inv.T)
            np.testing.assert_allclose(inv, ref.a_inv, rtol=1e-9, atol=1e-15)
        assert policy.design._inv is not None

    def test_holds_less_than_one_dim_by_dim_array(self):
        # fewer than 0.6 * dim observations keep the posterior in dual form:
        # t x dim features and a t x t inverse, not a dim x dim inverse
        dim = 2000
        rng = np.random.default_rng(32)
        tracemalloc.start()
        try:
            policy = LinearPolicy(dim, neural_cfg("lin-ts"), 32, thompson=True)
            for _ in range(50):
                contexts = rng.standard_normal((4, dim))
                decision = policy.select(contexts)
                policy.observe(contexts[decision.arm], float(rng.uniform()))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dim * dim * 8

    def test_regret_matches_outer_product_policy(self, monkeypatch):
        # 16 fixed episode seeds on synthetic-linear (dim 16, so the posterior
        # leaves the dual form at round 10), once with the shared posterior
        # and once with the dense inverse of the reference policy
        from banditbench import policies
        config = episode_config("lin-ts", "synthetic-linear")
        real = episodes(config)
        monkeypatch.setattr(policies, "LinearPolicy", OuterProductLinearPolicy)
        assert_regret_equivalent(real, episodes(config))


def episode_config(algorithm, dataset):
    return ExperimentConfig(dataset=dataset, horizon=60, repeats=1, n_arms=4,
                            raw_dim=8, policy=neural_cfg(algorithm, nu=0.3,
                                                         reg=0.5))


def episodes(config):
    return [run_episode(replace(config, base_seed=s), 0) for s in range(16)]


class OuterProductLinearPolicy:
    """The linear baseline as it was before it shared the posterior: a dense
    inverse of A = reg*I + sum x x^T, with one np.outer temporary per
    observation."""

    def __init__(self, dim, cfg, seed, thompson):
        children = np.random.SeedSequence(seed).spawn(2)
        self.select_rng = np.random.default_rng(children[0])
        self.cfg = cfg
        self.thompson = thompson
        self.a_inv = np.eye(dim) / cfg.reg
        self.b = np.zeros(dim)

    def select(self, contexts):
        X = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
        mu = self.a_inv @ self.b
        means = X @ mu
        widths = np.sqrt(np.maximum(np.einsum("ki,ij,kj->k", X, self.a_inv, X), 0.0))
        scores = score(means, widths, self.cfg.nu, self.thompson, self.select_rng)
        return Decision(int(np.argmax(scores)), scores, means, widths)

    def observe(self, context, reward):
        x = np.asarray(context, dtype=np.float64)
        u = self.a_inv @ x
        self.a_inv -= np.outer(u, u) / (1.0 + float(x @ u))
        self.b += reward * x


class TestKernel:
    def test_fresh_variance_one(self):
        policy = KernelPolicy(3, neural_cfg("kernel-ts", bandwidth=1.0), 0,
                              thompson=True)
        decision = policy.select(np.ones((2, 3)))
        np.testing.assert_allclose(decision.sigmas, 1.0)
        np.testing.assert_allclose(decision.means, 0.0)

    def test_interpolation_limit(self):
        cfg = neural_cfg("kernel-ucb", bandwidth=1.0, reg=1e-10, nu=0.0)
        policy = KernelPolicy(2, cfg, 0, thompson=False)
        x = np.array([0.3, -0.2])
        policy.observe(x, 0.7)
        decision = policy.select(x[None, :])
        assert decision.means[0] == pytest.approx(0.7, abs=1e-6)
        assert decision.sigmas[0] == pytest.approx(0.0, abs=1e-4)

    def test_dense_solve_oracle(self):
        rng = np.random.default_rng(14)
        gamma, reg = 1.0, 1.0
        cfg = neural_cfg("kernel-ucb", bandwidth=gamma, reg=reg, nu=0.0)
        policy = KernelPolicy(2, cfg, 0, thompson=False)
        n = 45  # crosses the 16 -> 32 -> 64 capacity doublings
        X = rng.standard_normal((n, 2))
        r = rng.uniform(size=n)
        for x, ri in zip(X, r):
            policy.observe(x, float(ri))

        def kfun(a, b):
            return np.exp(-gamma * np.sum((a - b) ** 2))

        K = np.array([[kfun(a, b) for b in X] for a in X])
        query = rng.standard_normal(2)
        kv = np.array([kfun(query, b) for b in X])
        mean = kv @ np.linalg.solve(K + reg * np.eye(n), r)
        var = kfun(query, query) - kv @ np.linalg.solve(K + reg * np.eye(n), kv)
        decision = policy.select(query[None, :])
        assert decision.means[0] == pytest.approx(mean, abs=1e-10)
        assert decision.sigmas[0] ** 2 == pytest.approx(var, abs=1e-10)

    def test_frozen_after_stop_round(self):
        cfg = neural_cfg("kernel-ts", stop_train=2)
        policy = KernelPolicy(3, cfg, 0, thompson=True)
        rng = np.random.default_rng(15)
        for _ in range(5):
            policy.observe(rng.standard_normal(3), float(rng.uniform()))
        assert len(policy.r) == 2

    @pytest.mark.parametrize("algorithm,stop_train", [("kernel-ts", 60),
                                                      ("kernel-ucb", 37)])
    def test_decisions_match_reallocating_inverse(self, algorithm, stop_train):
        # 50 observations cross the 16 -> 32 -> 64 capacity doublings
        cfg = neural_cfg(algorithm, bandwidth=0.7, reg=0.4, nu=0.3,
                         stop_train=stop_train)
        policy = KernelPolicy(5, cfg, 21, thompson=algorithm == "kernel-ts")
        ref = ReallocatingKernelPolicy(cfg, 21,
                                       thompson=algorithm == "kernel-ts")
        rng = np.random.default_rng(21)
        for _ in range(50):
            contexts = rng.standard_normal((4, 5))
            got, want = policy.select(contexts), ref.select(contexts)
            assert got.arm == want.arm
            for name in ("scores", "means", "sigmas"):
                np.testing.assert_allclose(getattr(got, name),
                                           getattr(want, name), rtol=1e-9)
            reward = float(rng.uniform())
            policy.observe(contexts[got.arm], reward)
            ref.observe(contexts[got.arm], reward)
            R = policy.k_inv.factor
            np.testing.assert_allclose(R.T @ R, ref.k_inv, rtol=1e-9)
        assert len(policy.r) == len(ref.r) == min(stop_train, 50)

    def test_regret_matches_reallocating_policy(self, monkeypatch):
        # 16 fixed episode seeds per dataset, once scoring the arms through
        # the grown factor of the inverse and once arm by arm on a
        # reallocated inverse; mushroom-like repeats rows, whose expanded
        # distances are clamped
        from banditbench import policies
        configs = [episode_config("kernel-ts", dataset)
                   for dataset in ("synthetic-nonlinear", "mushroom-like")]
        real = [episodes(config) for config in configs]
        monkeypatch.setattr(
            policies, "KernelPolicy",
            lambda dim, cfg, seed, thompson: ReallocatingKernelPolicy(
                cfg, seed, thompson))
        for got, config in zip(real, configs):
            assert_regret_equivalent(got, episodes(config))

    def test_kernel_block_matches_difference_form(self):
        # unit-norm history rows like the mushroom-like contexts, scored
        # again with fresh rows: a repeated row's expanded distance rounds to
        # a few ulps either side of 0, and the clamp keeps k(x, x) <= 1
        rng = np.random.default_rng(22)
        cfg = neural_cfg("kernel-ts", bandwidth=0.7)
        H = rng.standard_normal((200, 204))
        H /= np.linalg.norm(H, axis=1, keepdims=True)
        policy = KernelPolicy(204, cfg, 0, thompson=True)
        for h in H:
            policy.observe(h, float(rng.uniform()))
        X = np.vstack([H, rng.standard_normal((4, 204))])
        diff = X[:, None, :] - H[None, :, :]
        want = np.exp(-cfg.bandwidth * np.sum(diff * diff, axis=2))
        got = policy._kernel(X)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert np.all(np.diag(got) <= 1.0)

    def test_select_allocates_less_than_a_difference_array(self):
        # t=1000 history rows of d=204 (mushroom-like), K=2 arms: the
        # (K, t, d) float64 difference array alone would take 3.3 MB
        t, d, n_arms = 1000, 204, 2
        rng = np.random.default_rng(24)
        policy = KernelPolicy(d, neural_cfg("kernel-ts"), 24, thompson=True)
        H = rng.standard_normal((t, d))
        H /= np.linalg.norm(H, axis=1, keepdims=True)
        for h in H:
            policy.observe(h, float(rng.uniform()))
        contexts = H[:n_arms] + 0.1 * rng.standard_normal((n_arms, d))
        tracemalloc.start()
        try:
            policy.select(contexts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n_arms * t * d * 8

    def test_nonpositive_bandwidth_rejected(self):
        for bandwidth in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="bandwidth must be positive"):
                neural_cfg("kernel-ts", bandwidth=bandwidth)

    def test_singular_kernel_matrix_raises(self):
        # 1 + reg rounds to 1, so a repeated row's Schur complement is 0
        cfg = neural_cfg("kernel-ucb", reg=1e-20)
        policy = KernelPolicy(2, cfg, 0, thompson=False)
        x = np.array([0.3, -0.2])
        policy.observe(x, 0.5)
        with pytest.raises(np.linalg.LinAlgError, match="raise --lambda"):
            policy.observe(x, 0.5)
        assert len(policy.r) == 1


class ReallocatingKernelPolicy:
    """The kernel baseline as it was before its inverse grew in place: a new
    (n+1) x (n+1) inverse, and stacked X and r, every observation."""

    def __init__(self, cfg, seed, thompson):
        children = np.random.SeedSequence(seed).spawn(2)
        self.select_rng = np.random.default_rng(children[0])
        self.cfg = cfg
        self.thompson = thompson
        self.X = None
        self.r = np.zeros(0)
        self.k_inv = np.zeros((0, 0))
        self.t = 0

    def _kvec(self, x):
        diff = self.X - x[None, :]
        return np.exp(-self.cfg.bandwidth * np.sum(diff * diff, axis=1))

    def select(self, contexts):
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

    def observe(self, context, reward):
        self.t += 1
        if self.t > self.cfg.stop_train:
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
        init = [flat(boot.theta0.member(j)) for j in range(len(boot.nets))]
        rng = np.random.default_rng(20)
        for _ in range(5):
            boot.observe(random_contexts(rng, 1, 4)[0], 1.0)
        for net, theta0 in zip(boot.nets, init):
            assert not net.history
            np.testing.assert_array_equal(flat(net.theta), theta0)

    def test_inclusion_frequency(self):
        # rows are included until the stop round; no training is needed
        cfg = neural_cfg("bootstrap-nn", n_networks=2, include_prob=0.8,
                         stop_train=500,
                         train=TrainConfig(step_size=0.001, iterations=0,
                                           mode="gd"))
        boot = make_policy(cfg, 4, seed=22)
        rng = np.random.default_rng(21)
        for _ in range(500):
            boot.observe(random_contexts(rng, 1, 4)[0], 1.0)
        offered = 500 * len(boot.nets)
        frac = sum(len(net.history) for net in boot.nets) / offered
        se = np.sqrt(0.8 * 0.2 / offered)
        assert frac == pytest.approx(0.8, abs=3 * se)


class TestStopTrain:
    @pytest.mark.parametrize("algorithm", ["neural-ts", "neural-ucb",
                                           "eps-greedy", "bootstrap-nn"])
    def test_nothing_is_stored_past_the_stop_round(self, algorithm):
        policy = make_policy(neural_cfg(algorithm, stop_train=5), 4, seed=25)
        rng = np.random.default_rng(25)
        for _ in range(20):
            policy.observe(random_contexts(rng, 1, 4)[0], float(rng.uniform()))
        assert len(policy.contexts) == len(policy.rewards) == 5
        assert all(len(net.history) <= 5 for net in policy.nets)
        if algorithm in ("neural-ts", "neural-ucb"):
            # select reads the posterior, which takes every observation
            assert policy.design.n_updates == 20


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

    def test_negative_stop_train_rejected(self):
        # a negative round would otherwise mean never training, silently
        with pytest.raises(ValueError, match="stop_train must be >= 0"):
            neural_cfg("neural-ts", stop_train=-3)
        neural_cfg("neural-ts", stop_train=0)


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
