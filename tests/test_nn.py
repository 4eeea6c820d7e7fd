import numpy as np
import pytest

from banditbench.nn import (Batches, NetShape, ParamStack, TrainConfig,
                            draw_batches, forward_batch, grad, grad_batch,
                            init_params, train)
from banditbench.data import duplicate_half, normalize_unit
from banditbench.harness import ExperimentConfig, build_rounds
from banditbench.policies import PolicyConfig
from helpers import flat, from_flat


def small_hand_net():
    # d=2, m=2, L=2 with identity first layer and all-ones output layer
    shape = NetShape(2, 2, 2)
    return shape, ParamStack(shape, [np.eye(2)[None], np.array([[[1.0, 1.0]]])])


def fit(theta0, theta, data, cfg, rng=None):
    """theta trained on (context, reward) pairs as a stack of one network,
    as a new stack of one; theta is left as it was."""
    n = len(data)
    X = np.array([x for x, _ in data], dtype=np.float64).reshape(
        n, theta0.shape.input_dim)
    r = np.array([v for _, v in data], dtype=np.float64)
    stack = ParamStack.of([theta])
    batches = Batches(X, r, [n], [draw_batches(np.arange(n), cfg, rng)])
    train(ParamStack.of([theta0]), stack, batches, cfg)
    return stack.member(0)


def loss(theta, theta0, X, r, reg):
    """The regularized square loss that training descends:
    sum (f - r)^2 / 2 + m*reg*||theta - theta0||^2 / 2."""
    resid = forward_batch(theta, X) - r
    drift = flat(theta) - flat(theta0)
    return float(0.5 * np.sum(resid ** 2)
                 + 0.5 * theta.shape.width * reg * np.dot(drift, drift))


def random_param_vector(rng, shape):
    weights = flat(init_params(shape, int(rng.integers(1 << 31))))
    weights = weights + 0.1 * rng.standard_normal(shape.n_params)
    return from_flat(shape, weights)


class TestShape:
    def test_param_count(self):
        s = NetShape(6, 8, 3)
        assert s.n_params == 6 * 8 + 8 * 8 + 8

    @pytest.mark.parametrize("d,m,L", [(3, 4, 2), (4, 5, 2), (4, 4, 1), (0, 4, 2)])
    def test_invalid_shapes_rejected(self, d, m, L):
        with pytest.raises(ValueError):
            NetShape(d, m, L)

    def test_flat_roundtrip(self):
        s = NetShape(4, 6, 3)
        theta = init_params(s, 3)
        again = from_flat(s, flat(theta))
        for a, b in zip(theta.layers, again.layers):
            np.testing.assert_array_equal(a, b)


class TestInit:
    def test_block_structure(self):
        theta = init_params(NetShape(4, 4, 2), seed_val := 5)
        W1 = theta.layers[0][0]
        np.testing.assert_array_equal(W1[:2, 2:], 0.0)
        np.testing.assert_array_equal(W1[2:, :2], 0.0)
        np.testing.assert_array_equal(W1[:2, :2], W1[2:, 2:])

    def test_output_layer_mirrored(self):
        theta = init_params(NetShape(4, 8, 2), 9)
        w = theta.layers[-1][0, 0]
        np.testing.assert_array_equal(w[:4], -w[4:])

    def test_deterministic(self):
        s = NetShape(6, 8, 3)
        np.testing.assert_array_equal(flat(init_params(s, 11)),
                                      flat(init_params(s, 11)))

    def test_zero_output_on_duplicated_half(self):
        theta = init_params(NetShape(6, 8, 3), 7)
        x = duplicate_half(normalize_unit(np.array([1.0, -2.0, 0.5])))
        assert abs(forward_batch(theta, x[None])[0]) <= 1e-6

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError):
            NetShape(3, 4, 2)
        with pytest.raises(ValueError):
            NetShape(4, 3, 2)


class TestForward:
    def test_hand_example(self):
        _, theta = small_hand_net()
        out = forward_batch(theta, np.array([[1.0, -1.0]]))[0]
        assert out == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_zero_input(self):
        rng = np.random.default_rng(0)
        theta = random_param_vector(rng, NetShape(4, 6, 3))
        assert forward_batch(theta, np.zeros((1, 4)))[0] == 0.0

    def test_dimension_mismatch(self):
        _, theta = small_hand_net()
        with pytest.raises(ValueError):
            forward_batch(theta, np.array([[1.0, 2.0, 3.0]]))

    def test_positive_homogeneity_two_layer(self):
        rng = np.random.default_rng(1)
        theta = random_param_vector(rng, NetShape(4, 8, 2))
        x = rng.standard_normal(4)
        for c in (0.5, 2.0, 7.3):
            assert forward_batch(theta, c * x[None])[0] == pytest.approx(
                c * forward_batch(theta, x[None])[0], rel=1e-10)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        theta = random_param_vector(rng, NetShape(4, 6, 3))
        X = rng.standard_normal((5, 4))
        batch = forward_batch(theta, X)
        for i, x in enumerate(X):
            assert batch[i] == pytest.approx(forward_batch(theta, x[None])[0],
                                             abs=1e-12)


class TestGrad:
    def test_hand_example_output_layer(self):
        shape, theta = small_hand_net()
        g = np.asarray(grad(theta, np.array([1.0, -1.0])))
        # last two coords are the output-layer gradient sqrt(2)*ReLU(W1 x)
        np.testing.assert_allclose(g[-2:], [np.sqrt(2.0), 0.0], atol=1e-12)

    def test_zero_input_zero_gradient(self):
        rng = np.random.default_rng(3)
        theta = random_param_vector(rng, NetShape(4, 6, 3))
        np.testing.assert_array_equal(grad(theta, np.zeros(4)), 0.0)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(100):
            d = 2 * int(rng.integers(1, 5))
            m = 2 * int(rng.integers(1, 9))
            L = int(rng.integers(2, 5))
            shape = NetShape(d, m, L)
            theta = random_param_vector(rng, shape)
            x = rng.standard_normal(d)
            g = np.asarray(grad(theta, x))
            weights = flat(theta)
            idx = rng.choice(shape.n_params, size=min(10, shape.n_params),
                             replace=False)
            h = 1e-5
            for i in idx:
                up, dn = weights.copy(), weights.copy()
                up[i] += h
                dn[i] -= h
                fd = (forward_batch(from_flat(shape, up), x[None])[0]
                      - forward_batch(from_flat(shape, dn), x[None])[0]) / (2 * h)
                denom = max(abs(fd), abs(g[i]), 1e-8)
                worst = max(worst, abs(fd - g[i]) / denom)
        assert worst < 1e-4

    def test_grad_batch_matches_single(self):
        rng = np.random.default_rng(5)
        theta = random_param_vector(rng, NetShape(6, 4, 3))
        X = rng.standard_normal((4, 6))
        _, G = grad_batch(theta, X)
        for i, x in enumerate(X):
            np.testing.assert_allclose(G[i], grad(theta, x), atol=1e-12)

    @pytest.mark.parametrize("dataset", ["synthetic-nonlinear", "mushroom-like"])
    @pytest.mark.parametrize("depth", [2, 3])
    def test_grad_batch_outputs_are_forward_batch(self, dataset, depth):
        # the outputs of the gradient pass carry forward_batch's bits, on
        # weights moved off the init and the contexts of d=16 and d=204 streams
        config = ExperimentConfig(dataset, PolicyConfig("neural-ts"), horizon=30)
        rounds = build_rounds(config, 3)
        rng = np.random.default_rng(depth)
        theta = random_param_vector(
            rng, NetShape(rounds[0].contexts.shape[1], 32, depth))
        for r in rounds:
            out, _ = grad_batch(theta, r.contexts)
            assert out.tobytes() == forward_batch(theta, r.contexts).tobytes()


class TestTrain:
    def test_empty_dataset_fixed_point(self):
        shape = NetShape(4, 4, 2)
        theta0 = init_params(shape, 0)
        out = fit(theta0, theta0, [], TrainConfig(step_size=0.01, iterations=50,
                                                     mode="gd"))
        np.testing.assert_array_equal(flat(out), flat(theta0))

    def test_scalar_ridge_closed_form(self):
        # 1-parameter surrogate f(x; theta) = theta * x, one data point:
        # the GD limit is theta0 + x*(r - theta0*x)/(x^2 + m*reg)
        m, reg, x, r, theta0 = 1.0, 0.5, 2.0, 3.0, 0.25
        target = theta0 + x * (r - theta0 * x) / (x * x + m * reg)
        theta = theta0
        eta = 0.05
        for _ in range(2000):
            gradient = (theta * x - r) * x + m * reg * (theta - theta0)
            theta -= eta * gradient
        assert theta == pytest.approx(target, abs=1e-6)

    def test_full_batch_deterministic(self):
        shape = NetShape(4, 4, 2)
        theta0 = init_params(shape, 1)
        rng = np.random.default_rng(6)
        data = [(rng.standard_normal(4), float(rng.standard_normal()))
                for _ in range(5)]
        cfg = TrainConfig(step_size=0.01, iterations=30, mode="gd")
        a = fit(theta0, theta0, data, cfg)
        b = fit(theta0, theta0, data, cfg)
        np.testing.assert_array_equal(flat(a), flat(b))

    def test_network_fits_toward_targets(self):
        shape = NetShape(4, 16, 2)
        theta0 = init_params(shape, 2)
        rng = np.random.default_rng(7)
        data = [(rng.standard_normal(4), float(rng.uniform(-1, 1)))
                for _ in range(8)]
        cfg = TrainConfig(step_size=0.005, iterations=400, reg=0.01, mode="gd")
        theta = fit(theta0, theta0, data, cfg)
        X = np.asarray([x for x, _ in data])
        r = np.asarray([v for _, v in data])
        assert loss(theta, theta0, X, r, cfg.reg) < loss(theta0, theta0, X, r, cfg.reg)

    def test_monotone_descent_full_batch(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            shape = NetShape(4, 8, 2)
            theta0 = init_params(shape, trial)
            data = [(rng.standard_normal(4), float(rng.uniform(-1, 1)))
                    for _ in range(6)]
            X = np.asarray([x for x, _ in data])
            r = np.asarray([v for _, v in data])
            cfg = TrainConfig(step_size=0.002, iterations=1, reg=0.1, mode="gd")
            theta = theta0
            prev = loss(theta, theta0, X, r, cfg.reg)
            for _ in range(60):
                theta = fit(theta0, theta, data, cfg)
                cur = loss(theta, theta0, X, r, cfg.reg)
                assert cur <= prev + 1e-9
                prev = cur

    def test_step_size_invariant_enforced(self):
        shape = NetShape(4, 4, 2)
        theta0 = init_params(shape, 0)
        cfg = TrainConfig(step_size=0.5, iterations=5, reg=1.0,
                          mode="gd")  # eta*m*reg = 2
        with pytest.raises(ValueError):
            fit(theta0, theta0, [(np.ones(4), 1.0)], cfg)

    def test_sgd_mode_runs_and_is_seeded(self):
        shape = NetShape(4, 8, 2)
        theta0 = init_params(shape, 3)
        rng = np.random.default_rng(9)
        data = [(rng.standard_normal(4), float(rng.uniform(-1, 1)))
                for _ in range(10)]
        cfg = TrainConfig(step_size=0.002, iterations=50, mode="sgd", batch_size=4)
        a = fit(theta0, theta0, data, cfg, np.random.default_rng(42))
        b = fit(theta0, theta0, data, cfg, np.random.default_rng(42))
        np.testing.assert_array_equal(flat(a), flat(b))


def reference_grad_batch(layers, X, m):
    """Outputs and per-sample flat gradients of one network from its 2-D
    layers, written out layer by layer."""
    n = X.shape[0]
    acts, pre = [X], []
    for W in layers[:-1]:
        pre.append(acts[-1] @ W.T)
        acts.append(np.maximum(pre[-1], 0.0))
    out = np.sqrt(m) * (acts[-1] @ layers[-1].T)[:, 0]
    delta = np.sqrt(m) * np.ones((n, 1))
    grads = [np.einsum("ni,nj->nij", delta, acts[-1]).reshape(n, -1)]
    for l in range(len(layers) - 2, -1, -1):
        delta = (delta @ layers[l + 1]) * (pre[l] > 0.0)
        grads.insert(0, np.einsum("ni,nj->nij", delta, acts[l]).reshape(n, -1))
    return out, np.concatenate(grads, axis=1)


class TestParamStack:
    def test_layer_shapes_checked(self):
        shape = NetShape(4, 6, 3)
        stack = ParamStack.of([init_params(shape, s) for s in (1, 2)])
        with pytest.raises(ValueError, match="do not match"):
            ParamStack(shape, [W[0] for W in stack.layers])
        with pytest.raises(ValueError, match="do not match"):
            ParamStack(shape, [stack.layers[0], *(W[:1] for W in stack.layers[1:])])
        with pytest.raises(ValueError, match="do not match"):
            ParamStack(NetShape(4, 6, 2), stack.layers)

    @pytest.mark.parametrize("depth", [2, 3])
    def test_member_is_a_stack_of_one_network(self, depth):
        shape = NetShape(6, 8, depth)
        theta0 = ParamStack.of([init_params(shape, s) for s in (4, 5, 6)])
        theta = theta0.copy()
        nets = [theta.member(j) for j in range(3)]
        for j, net in enumerate(nets):
            assert isinstance(net, ParamStack) and len(net) == 1
            for W, Wj in zip(theta.layers, net.layers):
                assert np.shares_memory(W, Wj)
        rng = np.random.default_rng(depth)
        X, r = rng.standard_normal((12, 6)), rng.uniform(-1, 1, 12)
        cfg = TrainConfig(step_size=0.002, iterations=5, mode="sgd",
                          batch_size=4)
        batches = Batches(X, r, [12] * 3, [draw_batches(np.arange(12), cfg, rng)
                                           for _ in range(3)])
        before = [flat(net) for net in nets]
        train(theta0, theta, batches, cfg)
        for j, net in enumerate(nets):
            trained = np.concatenate([W[j].ravel() for W in theta.layers])
            assert flat(net).tobytes() == trained.tobytes()
            assert not np.array_equal(flat(net), before[j])
            layers = [W[j].copy() for W in theta.layers]
            out, feats = reference_grad_batch(layers, X, shape.width)
            assert forward_batch(net, X).tobytes() == out.tobytes()
            got_out, got_feats = grad_batch(net, X)
            assert got_out.tobytes() == out.tobytes()
            assert np.asarray(got_feats).tobytes() == feats.tobytes()
            one = reference_grad_batch(layers, X[:1], shape.width)[1][0]
            assert np.asarray(grad(net, X[0])).tobytes() == one.tobytes()

    def test_forward_takes_one_network(self):
        stack = ParamStack.of([init_params(NetShape(4, 6, 2), s) for s in (1, 2)])
        with pytest.raises(ValueError, match="one network"):
            forward_batch(stack, np.ones((3, 4)))
