import numpy as np
import pytest

from banditbench import ntk
from banditbench.data import duplicate_half
from helpers import effdim_truncation_bound, ntk_levels


def random_unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def mc_level_estimates(cov, rng, n_samples=1_000_000):
    """Monte-Carlo estimate of (2E[max(u,0)max(v,0)], 2E[1(u>=0)1(v>=0)])
    with standard errors, for (u, v) ~ N(0, cov)."""
    chol = np.linalg.cholesky(cov + 1e-14 * np.eye(2))
    z = rng.standard_normal((n_samples, 2)) @ chol.T
    prod = 2.0 * np.maximum(z[:, 0], 0.0) * np.maximum(z[:, 1], 0.0)
    ind = 2.0 * ((z[:, 0] >= 0) & (z[:, 1] >= 0)).astype(float)
    return ((prod.mean(), prod.std(ddof=1) / np.sqrt(n_samples)),
            (ind.mean(), ind.std(ddof=1) / np.sqrt(n_samples)))


class TestNtkMatrix:
    def test_single_context_depth_two(self):
        x = np.array([1.0, 0.0])
        H = ntk.ntk_matrix(x[None, :], 2)
        assert H[0, 0] == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_diagonal_law(self, depth):
        rng = np.random.default_rng(0)
        X = np.stack([random_unit(rng, 6) for _ in range(4)])
        H = ntk.ntk_matrix(X, depth)
        np.testing.assert_allclose(np.diag(H), (depth + 1) / 2.0, atol=1e-12)

    def test_orthogonal_pair_off_diagonal(self):
        X = np.eye(2)
        sigmas, htildes, _ = ntk_levels(X, 2)
        assert sigmas[-1][0, 1] == pytest.approx(1.0 / np.pi, abs=1e-12)
        assert htildes[-1][0, 1] == pytest.approx(1.0 / np.pi, abs=1e-12)
        assert ntk.ntk_matrix(X, 2)[0, 1] == pytest.approx(1.0 / np.pi, abs=1e-12)

    def test_duplicated_context_rank_deficient(self):
        x = random_unit(np.random.default_rng(1), 4)
        H = ntk.ntk_matrix(np.stack([x, x]), 2)
        np.testing.assert_allclose(H[0], H[1], atol=1e-12)
        assert abs(np.linalg.eigvalsh(H)[0]) < 1e-10

    def test_symmetric_psd(self):
        rng = np.random.default_rng(2)
        X = np.stack([random_unit(rng, 8) for _ in range(6)])
        H = ntk.ntk_matrix(X, 3)
        np.testing.assert_allclose(H, H.T, atol=1e-14)
        assert np.linalg.eigvalsh(H)[0] >= -1e-8 * np.linalg.norm(H)

    @pytest.mark.parametrize("depth", [2, 3])
    def test_is_the_last_level_of_the_recursion(self, depth):
        # H = (H-tilde + Sigma) / 2 at the last level, made exactly symmetric
        rng = np.random.default_rng(6)
        X = np.stack([random_unit(rng, 6) for _ in range(5)])
        sigmas, htildes, _ = ntk_levels(X, depth)
        H = (htildes[-1] + sigmas[-1]) / 2.0
        H = (H + H.T) / 2.0
        assert ntk.ntk_matrix(X, depth).tobytes() == H.tobytes()

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            ntk.ntk_matrix(np.array([[1.0, 1.0]]), 2)
        with pytest.raises(ValueError):
            ntk.ntk_matrix(np.zeros((0, 2)), 2)

    def test_closed_form_vs_monte_carlo(self):
        rng = np.random.default_rng(3)
        mc_rng = np.random.default_rng(4)
        for _ in range(5):
            x = random_unit(rng, 6)
            y = random_unit(rng, 6)
            sigmas, _, derivs = ntk_levels(np.stack([x, y]), 3)
            for lvl in range(len(sigmas) - 1):
                s = sigmas[lvl]
                cov = np.array([[s[0, 0], s[0, 1]], [s[0, 1], s[1, 1]]])
                (prod, prod_se), (ind, ind_se) = mc_level_estimates(cov, mc_rng)
                closed_sigma = sigmas[lvl + 1][0, 1]
                closed_deriv = derivs[lvl][0, 1]
                assert abs(closed_sigma - prod) <= 3 * prod_se + 1e-9
                assert abs(closed_deriv - ind) <= 3 * ind_se + 1e-9

    def test_empirical_gram_approaches_kernel(self):
        # median entrywise error shrinks with width (off-diagonal entries
        # dominate the median; their bias vanishes for near-orthogonal inputs)
        from banditbench.nn import NetShape, grad_batch, init_params
        rng = np.random.default_rng(5)
        raw = np.stack([random_unit(rng, 24) for _ in range(6)])
        X = duplicate_half(raw)
        H = ntk.ntk_matrix(X, 2)
        med = {}
        for m in (64, 512):
            errs = []
            for seed in range(6):
                theta = init_params(NetShape(X.shape[1], m, 2), seed)
                G = np.asarray(grad_batch(theta, X)[1])
                errs.append(np.median(np.abs(G @ G.T / m - H)))
            med[m] = np.median(errs)
        assert med[512] < med[64]


class TestEffectiveDimension:
    def test_identity_two(self):
        report = ntk.effective_dimension(np.eye(2), reg=1.0, budget=2)
        assert report.eff_dim == pytest.approx(2 * np.log(2) / np.log(3), abs=1e-12)

    def test_zero_matrix(self):
        report = ntk.effective_dimension(np.zeros((3, 3)), reg=1.0, budget=5)
        assert report.eff_dim == 0.0

    def test_scaled_identity(self):
        report = ntk.effective_dimension(2.0 * np.eye(3), reg=1.0, budget=3)
        assert report.eff_dim == pytest.approx(3 * np.log(3) / np.log(4), abs=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            ntk.effective_dimension(np.diag([1.0, -1.0]), reg=1.0, budget=2)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ntk.effective_dimension(np.eye(2), reg=0.0, budget=2)
        with pytest.raises(ValueError):
            ntk.effective_dimension(np.eye(2), reg=1.0, budget=0)


class TestTruncationBound:
    def test_identity_no_tail(self):
        bound, ok = effdim_truncation_bound(np.eye(2), d_prime=2, budget=2)
        assert bound == pytest.approx(2.0)
        assert ok  # vacuous: no tail eigenvalues

    def test_two_scale_example(self):
        H = np.diag([5.0, 1e-4])
        bound, ok = effdim_truncation_bound(H, d_prime=1, budget=100)
        assert bound == pytest.approx(5.0001)
        assert ok

    def test_bound_dominates_logdet(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            A = rng.standard_normal((n, n))
            H = A @ A.T / n
            budget = int(rng.integers(2, 50))
            report = ntk.effective_dimension(H, reg=1.0, budget=budget)
            bound, _ = effdim_truncation_bound(H, int(rng.integers(0, n + 1)),
                                               budget)
            # sum of eigenvalues >= sum log(1 + eigenvalues) = logdet
            assert bound >= report.logdet - 1e-9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            effdim_truncation_bound(np.eye(2), d_prime=3, budget=2)


class TestTheoryParams:
    def test_nu_r_zero(self):
        assert ntk.theory_nu(1.0, 0.0, 5.0, 100, 10, 1.0, 0.1) == pytest.approx(1.0)

    def test_nu_hand_value(self):
        nu = ntk.theory_nu(1.0, 1.0, 1.0, 1, 1, 2.0, np.exp(-1.0))
        assert nu == pytest.approx(1.0 + np.sqrt(np.log(1.5) + 4.0), abs=1e-12)
        assert nu == pytest.approx(3.09892, abs=1e-5)

    def test_nu_monotone(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            B, R = rng.uniform(0.1, 2), rng.uniform(0.01, 2)
            d, T, K = rng.uniform(0.5, 10), int(rng.integers(1, 100)), int(rng.integers(1, 10))
            reg, delta = rng.uniform(0.1, 5), rng.uniform(0.01, 0.9)
            base = ntk.theory_nu(B, R, d, T, K, reg, delta)
            assert ntk.theory_nu(B, R, d, T + 5, K, reg, delta) >= base
            assert ntk.theory_nu(B, R, d, T, K + 2, reg, delta) >= base
            assert ntk.theory_nu(B, R, d + 1, T, K, reg, delta) >= base
            assert ntk.theory_nu(B, R + 0.5, d, T, K, reg, delta) >= base
            assert ntk.theory_nu(B, R, d, T, K, reg, delta / 2) >= base

    def test_B_zero_rewards(self):
        assert ntk.theory_B(np.zeros(3), np.eye(3), 1.0) == pytest.approx(
            1.0 / (22 * np.e * np.sqrt(np.pi)), abs=1e-12)
        assert ntk.theory_B(np.zeros(3), np.eye(3), 1.0) == pytest.approx(
            0.0094352, abs=1e-6)

    def test_B_identity_basis(self):
        h = np.array([1.0, 0.0, 0.0])
        assert ntk.theory_B(h, np.eye(3), 1.0) == pytest.approx(np.sqrt(2.0),
                                                                abs=1e-12)

    def test_B_dense_solve_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            A = rng.standard_normal((n, n))
            H = A @ A.T + n * np.eye(n)
            h = rng.standard_normal(n)
            expected = max(ntk.B_FLOOR, np.sqrt(2 * h @ np.linalg.inv(H) @ h))
            assert ntk.theory_B(h, H, np.linalg.eigvalsh(H)[0]) == \
                pytest.approx(expected, abs=1e-10)

    def test_B_singular_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            ntk.theory_B(np.ones(2), np.zeros((2, 2)), 0.0)


class TestWidthCondition:
    def test_zero_constant_trivially_passes(self):
        report = ntk.check_width_condition(1, 10, 5, 2, 1.0, 0.5, 0.1, C=0.0)
        assert report["lower_bound_ok"] and report["log_cubed_ok"]

    def test_hand_values(self):
        report = ntk.check_width_condition(1, 1, 1, 1, 1.0, 1.0, 0.5, C=1.0)
        assert report["lower_bound_terms"]["horizon_term"] == pytest.approx(
            np.log(2.0), abs=1e-12)
        assert report["lower_bound_ok"]  # 1 >= log 2

    def test_monotone_in_horizon(self):
        for m in (10, 1000, 10 ** 8):
            prev_ok = None
            for T in (1, 10, 100):
                ok = ntk.check_width_condition(m, T, 2, 2, 1.0, 0.5, 0.1)["lower_bound_ok"]
                if prev_ok is not None and not prev_ok:
                    assert not ok  # growing T never flips fail -> pass
                prev_ok = ok

    @pytest.mark.parametrize("args", [(100, 2000, 4, 2, 1.0, 0.13, 0.1),
                                      (32, 50, 10, 3, 0.01, 1e-12, 1e-6),
                                      (1000, 7, 2, 4, 40.0, 2.5, 0.9)])
    def test_logarithms_match_the_terms(self, args):
        # the terms from their logarithms are the terms that double
        # arithmetic gives where a double holds them
        m, T, K, L, reg, lambda0, delta = args
        term_a = np.sqrt(reg) * L ** -1.5 * np.log(T * K * L ** 2 / delta) ** 1.5
        term_b = (T ** 6 * K ** 6 * L ** 6 * np.log(T * K * L / delta)
                  * max(lambda0 ** -4, 1.0))
        direct = {
            "lower_bound_terms": {"sqrt_reg_term": term_a,
                                  "horizon_term": term_b},
            "lower_bound_rhs": max(term_a, term_b),
            "log_cubed_lhs": m / np.log(m) ** 3,
            "log_cubed_rhs": (
                T * L ** 12 / reg
                + T ** 7 * reg ** -8 * L ** 18 * (reg + L * T) ** 6
                + L ** 21 * T ** 7 * reg ** -7 * (1.0 + np.sqrt(T / reg)) ** 6)}
        via_logs = ntk.check_width_condition(*args)
        for key in ("lower_bound_rhs", "log_cubed_lhs", "log_cubed_rhs"):
            assert np.isfinite(direct[key])
            assert via_logs[key] == pytest.approx(direct[key], rel=1e-12)
        assert via_logs["lower_bound_terms"] == pytest.approx(
            direct["lower_bound_terms"], rel=1e-12)
