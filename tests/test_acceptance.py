"""End-to-end acceptance scorecard.

Every numbered guarantee of the package gets exactly one test here, and every
test prints a single CRITERION line, so `pytest -v tests/test_acceptance.py`
reads as a pass/fail scorecard.  Tolerances and runtime ceilings are asserted,
not just reported.
"""

import json
import time

import numpy as np
import pytest

from banditbench import harness, ntk
from banditbench.data import duplicate_half, normalize_unit
from banditbench.harness import (ExperimentConfig, emit_outputs, run_episode,
                                 run_repeats, summarize)
from banditbench.nn import (NetShape, TrainConfig, forward_batch, grad,
                            grad_batch, init_params)
from banditbench.policies import Policy, PolicyConfig, make_policy
from banditbench.posterior import DesignMatrix
from helpers import (effdim_truncation_bound, flat, from_flat, inverse,
                     ntk_levels, without_wall_clock)

# every criterion's episodes play in-process
pytestmark = pytest.mark.usefixtures("in_process")

SGD10 = TrainConfig(step_size=1e-4, iterations=10, reg=1.0, mode="sgd",
                    batch_size=64)


def _policy(algorithm, train=SGD10, nu=0.1):
    return PolicyConfig(algorithm=algorithm, nu=nu, reg=1.0, train=train,
                        posterior="diagonal", width=32, depth=2,
                        stop_train=1000)


def _experiment(dataset, policy, delay=0):
    return ExperimentConfig(dataset=dataset, policy=policy, horizon=2000,
                            repeats=8, base_seed=0, delay=delay, n_arms=4,
                            raw_dim=8, noise_sd=0.1)


def _finals(traces):
    return np.array([tr.total_regret for tr in traces])


def _report(capfd, number, ok, detail):
    line = f"CRITERION {number:2d}: {'PASS' if ok else 'FAIL'} -- {detail}"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_gradient_oracle(capfd):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    h = 1e-5
    for _ in range(100):
        d = 2 * int(rng.integers(1, 5))       # d <= 8
        m = 2 * int(rng.integers(1, 9))       # m <= 16
        L = int(rng.integers(2, 5))           # L <= 4
        shape = NetShape(d, m, L)
        weights = flat(init_params(shape, int(rng.integers(1 << 31))))
        weights = weights + 0.1 * rng.standard_normal(shape.n_params)
        theta = from_flat(shape, weights)
        x = rng.standard_normal(d)
        g = np.asarray(grad(theta, x))
        for i in rng.choice(shape.n_params, size=min(25, shape.n_params),
                            replace=False):
            up, dn = weights.copy(), weights.copy()
            up[i] += h
            dn[i] -= h
            fd = (forward_batch(from_flat(shape, up), x[None])[0]
                  - forward_batch(from_flat(shape, dn), x[None])[0]) / (2 * h)
            worst = max(worst, abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-8))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 5.0
    _report(capfd, 1, ok,
            f"gradient vs central differences: max rel err {worst:.2e} "
            f"(< 1e-4), {elapsed:.1f}s (< 5s)")


def test_criterion_02_sherman_morrison(capfd):
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    p, width = 50, 4.0
    design = DesignMatrix(p, reg=1.0, width=width, mode="full")
    U = np.eye(p)
    for _ in range(200):
        g = rng.standard_normal(p)
        design.update(g)
        U += np.outer(g, g) / width
    err = float(np.max(np.abs(inverse(design) - np.linalg.inv(U))))
    elapsed = time.perf_counter() - start
    ok = err < 1e-8 and elapsed < 1.0
    _report(capfd, 2, ok,
            f"rank-1 inverse vs direct inversion after 200 updates: "
            f"max abs err {err:.2e} (< 1e-8), {elapsed:.2f}s (< 1s)")


def test_criterion_03_zero_at_init(capfd):
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst_ratio = 0.0
    for m in (16, 64, 256):
        for _ in range(100):
            raw = normalize_unit(rng.standard_normal(6))
            x = duplicate_half(raw)
            theta = init_params(NetShape(12, m, 3), int(rng.integers(1 << 31)))
            worst_ratio = max(worst_ratio,
                              abs(forward_batch(theta, x[None])[0])
                              / (1e-6 * np.sqrt(m)))
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 1.0 and elapsed < 2.0
    _report(capfd, 3, ok,
            f"|f(x;theta0)| on duplicated-half contexts, m in 16/64/256: "
            f"worst |f|/(1e-6 sqrt(m)) = {worst_ratio:.3f} (<= 1), "
            f"{elapsed:.1f}s (< 2s)")


def test_criterion_04_ntk_closed_form(capfd):
    start = time.perf_counter()
    # (a) single context: H = (L+1)/2
    diag_err = 0.0
    x = normalize_unit(np.array([0.3, -1.2, 0.7, 0.1]))[None, :]
    for L in (2, 3, 4):
        diag_err = max(diag_err,
                       abs(ntk.ntk_matrix(x, L)[0, 0] - (L + 1) / 2.0))

    # (b) every recursion entry vs 1e6-sample Monte Carlo, 20 unit pairs
    rng = np.random.default_rng(104)
    mc_ok = True
    for _ in range(20):
        pair = rng.standard_normal((2, 6))
        pair /= np.linalg.norm(pair, axis=1, keepdims=True)
        sigmas, _, derivs = ntk_levels(pair, 4)
        for lvl in range(len(sigmas) - 1):
            s = sigmas[lvl]
            chol = np.linalg.cholesky(
                np.array([[s[0, 0], s[0, 1]], [s[0, 1], s[1, 1]]])
                + 1e-14 * np.eye(2))
            z = rng.standard_normal((1_000_000, 2)) @ chol.T
            prod = 2.0 * np.maximum(z[:, 0], 0.0) * np.maximum(z[:, 1], 0.0)
            ind = 2.0 * ((z[:, 0] >= 0) & (z[:, 1] >= 0)).astype(float)
            if abs(sigmas[lvl + 1][0, 1] - prod.mean()) > \
                    3 * prod.std(ddof=1) / 1000.0 + 1e-9:
                mc_ok = False
            if abs(derivs[lvl][0, 1] - ind.mean()) > \
                    3 * ind.std(ddof=1) / 1000.0 + 1e-9:
                mc_ok = False

    # (c) empirical gradient Gram approaches H as the width grows
    raw = rng.standard_normal((6, 24))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    X = duplicate_half(raw)
    H = ntk.ntk_matrix(X, 2)
    med = {}
    for m in (256, 4096):
        errs = []
        for seed in range(10):
            theta = init_params(NetShape(X.shape[1], m, 2), seed)
            G = np.asarray(grad_batch(theta, X)[1])
            errs.append(np.abs(G @ G.T / m - H))
        med[m] = float(np.median(np.stack(errs)))
    gram_ok = med[4096] < med[256]

    elapsed = time.perf_counter() - start
    ok = diag_err < 1e-12 and mc_ok and gram_ok and elapsed < 120.0
    _report(capfd, 4, ok,
            f"NTK closed form: single-context err {diag_err:.1e} (< 1e-12); "
            f"MC 3-sigma {'ok' if mc_ok else 'VIOLATED'}; Gram median err "
            f"m=4096 {med[4096]:.4f} < m=256 {med[256]:.4f}; "
            f"{elapsed:.1f}s (< 2min)")


def test_criterion_05_effective_dimension(capfd):
    rng = np.random.default_rng(105)
    closed_err = 0.0
    for n, reg, budget in ((2, 1.0, 2), (3, 0.5, 10), (7, 2.0, 40)):
        report = ntk.effective_dimension(np.eye(n), reg=reg, budget=budget)
        expected = n * np.log(1 + 1 / reg) / np.log(1 + budget / reg)
        closed_err = max(closed_err, abs(report.eff_dim - expected))

    bound_ok = True
    for _ in range(20):
        n = int(rng.integers(2, 9))
        A = rng.standard_normal((n, n))
        H = A @ A.T / n
        budget = int(rng.integers(2, 60))
        report = ntk.effective_dimension(H, reg=1.0, budget=budget)
        bound, _ = effdim_truncation_bound(H, int(rng.integers(0, n + 1)),
                                           budget)
        # d_tilde * log(1 + budget) = logdet(I + H) <= trace-based bound
        if bound < report.eff_dim * np.log(1 + budget) - 1e-9:
            bound_ok = False
    ok = closed_err < 1e-10 and bound_ok
    _report(capfd, 5, ok,
            f"effective dimension: identity closed form err {closed_err:.1e} "
            f"(< 1e-10); truncation bound dominates on 20 random PSD: "
            f"{'ok' if bound_ok else 'VIOLATED'}")


def test_criterion_06_theory_parameters(capfd):
    floor = 1.0 / (22 * np.e * np.sqrt(np.pi))
    nu_err = max(
        abs(ntk.theory_nu(1.0, 0.0, 5.0, 100, 10, 1.0, 0.1) - 1.0),
        abs(ntk.theory_nu(1.0, 1.0, 1.0, 1, 1, 2.0, np.exp(-1.0))
            - (1.0 + np.sqrt(np.log(1.5) + 4.0))),
        abs(ntk.theory_nu(1.0, 1.0, 1.0, 1, 1, 2.0, np.exp(-1.0)) - 3.09892),
    )
    B_err = max(abs(ntk.theory_B(np.zeros(3), np.eye(3), 1.0) - floor),
                abs(ntk.theory_B(np.zeros(3), np.eye(3), 1.0) - 0.0094352),
                abs(ntk.theory_B(np.array([1.0, 0, 0]), np.eye(3), 1.0)
                    - np.sqrt(2.0)))
    rng = np.random.default_rng(106)
    floor_ok = True
    for _ in range(20):
        n = int(rng.integers(2, 10))
        A = rng.standard_normal((n, n))
        H = A @ A.T + n * np.eye(n)
        if ntk.theory_B(rng.standard_normal(n) * 1e-8, H,
                        np.linalg.eigvalsh(H)[0]) < floor:
            floor_ok = False
    ok = nu_err < 1e-6 and B_err < 1e-6 and floor_ok
    _report(capfd, 6, ok,
            f"theory parameters: nu examples err {nu_err:.1e}, B examples err "
            f"{B_err:.1e} (< 1e-6); B >= 1/(22 e sqrt(pi)): "
            f"{'always' if floor_ok else 'VIOLATED'}")


def test_criterion_07_synthetic_nonlinear(capfd):
    start = time.perf_counter()
    config = _experiment("synthetic-nonlinear", _policy("neural-ts"))
    curves = np.stack([tr.cum_regret for tr in run_repeats(config)])
    mean = curves.mean(axis=0)
    uniform = summarize(run_repeats(
        _experiment("synthetic-nonlinear", _policy("uniform"))))["mean"]
    ratio_uniform = mean[-1] / uniform
    ratio_rate = (mean[-1] / 2000.0) / (mean[499] / 500.0)
    elapsed = time.perf_counter() - start
    ok = ratio_uniform < 0.6 and ratio_rate < 0.7 and elapsed < 300.0
    _report(capfd, 7, ok,
            f"nonlinear synthetic T=2000, 8 seeds: NeuralTS regret "
            f"{mean[-1]:.0f} = {100 * ratio_uniform:.0f}% of uniform "
            f"(< 60%); per-round rate ratio {ratio_rate:.2f} (< 0.7); "
            f"{elapsed:.0f}s (< 5min)")


def test_criterion_08_linear_sanity(capfd):
    uniform = _finals(run_repeats(
        _experiment("synthetic-linear", _policy("uniform")))).mean()
    lin = _finals(run_repeats(
        _experiment("synthetic-linear", _policy("lin-ts")))).mean()
    neural = _finals(run_repeats(
        _experiment("synthetic-linear", _policy("neural-ts")))).mean()
    ok = lin < 0.4 * uniform and neural < 0.4 * uniform
    _report(capfd, 8, ok,
            f"linear synthetic T=2000, 8 seeds: LinTS at "
            f"{100 * lin / uniform:.1f}% and NeuralTS at "
            f"{100 * neural / uniform:.1f}% of uniform regret (< 40%)")


class _ProbeRecorder(Policy):
    """Wraps a deterministic policy; snapshots its probe scores per select."""

    def __init__(self, inner, probes):
        self.inner = inner
        self.probes = probes
        self.records = []

    def select(self, contexts):
        probe = self.inner.select(self.probes)
        self.records.append((probe.arm, probe.scores.tobytes()))
        return self.inner.select(contexts)

    def observe(self, context, reward):
        self.inner.observe(context, reward)


def test_criterion_09_delay_protocol(capfd, monkeypatch):
    rng = np.random.default_rng(109)
    raw = rng.standard_normal((4, 8))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    probes = duplicate_half(raw)

    frozen_ok = True
    for b in (1, 4, 32):
        recorder = None

        def wrap(cfg, dim, seed):
            nonlocal recorder
            recorder = _ProbeRecorder(make_policy(cfg, dim, seed), probes)
            return recorder

        monkeypatch.setattr(harness, "make_policy", wrap)
        cfg = ExperimentConfig(dataset="synthetic-nonlinear",
                               policy=_policy("neural-ucb"), horizon=64,
                               repeats=1, delay=b, n_arms=4, raw_dim=8)
        run_episode(cfg, 0)
        for i in range(1, 64):
            if i % b != 0 and recorder.records[i] != recorder.records[i - 1]:
                frozen_ok = False
    monkeypatch.setattr(harness, "make_policy", make_policy)

    cfg0 = ExperimentConfig(dataset="synthetic-nonlinear",
                            policy=_policy("neural-ucb"), horizon=60,
                            repeats=1, delay=0, n_arms=4, raw_dim=8)
    import dataclasses

    same_01 = without_wall_clock(run_episode(cfg0, 0).rounds) == \
        without_wall_clock(run_episode(dataclasses.replace(cfg0, delay=1),
                                       0).rounds)

    slow = TrainConfig(step_size=1e-4, iterations=2, reg=1.0, mode="sgd",
                       batch_size=64)
    b0 = _finals(run_repeats(
        _experiment("synthetic-nonlinear", _policy("neural-ucb", slow))))
    b32 = _finals(run_repeats(
        _experiment("synthetic-nonlinear", _policy("neural-ucb", slow),
                    delay=32)))
    wins = int(np.sum(b32 >= b0))

    ok = frozen_ok and same_01 and wins >= 6
    _report(capfd, 9, ok,
            f"delay protocol: frozen between flushes "
            f"{'exact' if frozen_ok else 'VIOLATED'}; b=0 == b=1 "
            f"{'yes' if same_01 else 'NO'}; NeuralUCB regret b=32 >= b=0 in "
            f"{wins}/8 paired seeds (>= 6)")


def test_criterion_10_categorical_scaled_run(capfd):
    start = time.perf_counter()
    strong = TrainConfig(step_size=1e-4, iterations=30, reg=1.0, mode="sgd",
                         batch_size=64)
    neural = _finals(run_repeats(
        _experiment("mushroom-like", _policy("neural-ts", strong))))
    lin = _finals(run_repeats(
        _experiment("mushroom-like", _policy("lin-ts"))))
    wins = int(np.sum(neural < lin))
    elapsed = time.perf_counter() - start
    ok = wins >= 6 and elapsed < 900.0
    _report(capfd, 10, ok,
            f"mushroom-like T=2000, 8 seeds: NeuralTS mean {neural.mean():.0f} "
            f"vs LinTS {lin.mean():.0f}, NeuralTS wins {wins}/8 paired seeds "
            f"(>= 6); {elapsed:.0f}s (< 15min)")


def test_criterion_11_determinism(capfd, tmp_path):
    config = ExperimentConfig(dataset="synthetic-nonlinear",
                              policy=_policy("neural-ts"), horizon=120,
                              repeats=2, n_arms=4, raw_dim=8)

    def emitted(sub):
        traces = run_repeats(config)
        emit_outputs(traces, summarize(traces), str(tmp_path / sub))
        out = []
        for i in range(2):
            with open(tmp_path / sub / f"trace_neural-ts_{i}.jsonl") as fh:
                out += without_wall_clock(map(json.loads, fh))
        return out

    ok = emitted("a") == emitted("b")
    _report(capfd, 11, ok,
            "repeat run with identical config and seeds: JSONL traces "
            + ("byte-identical (wall-clock excluded)" if ok else "DIFFER"))
