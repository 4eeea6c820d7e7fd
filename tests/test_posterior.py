import tracemalloc

import numpy as np
import pytest

from banditbench.posterior import (_DUAL_FRACTION, _ROW_BLOCK, BorderedInverse,
                                  DesignMatrix)
from helpers import inverse


def _switch_round(p):
    """The update after which full mode holds the primal inverse."""
    return int(np.ceil(_DUAL_FRACTION * p))


class TestSigma:
    def test_fresh_identity(self):
        design = DesignMatrix(dim=2, reg=1.0, width=1, mode="full")
        assert design.sigma(np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_after_one_update(self):
        design = DesignMatrix(dim=2, reg=1.0, width=1, mode="full")
        g = np.array([1.0, 0.0])
        design.update(g)
        # U = diag(2, 1), sigma^2 = 1/2
        assert design.sigma(g) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_diagonal_equals_full_on_axis_aligned(self):
        full = DesignMatrix(3, reg=0.7, width=2, mode="full")
        diag = DesignMatrix(3, reg=0.7, width=2, mode="diagonal")
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = np.zeros(3)
            g[rng.integers(3)] = rng.standard_normal()
            full.update(g)
            diag.update(g)
        for probe in np.eye(3):
            assert full.sigma(probe) == pytest.approx(diag.sigma(probe), abs=1e-12)

    def test_nonfinite_rejected(self):
        design = DesignMatrix(2, reg=1.0, width=1)
        with pytest.raises(ValueError):
            design.sigma(np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            design.update(np.array([np.inf, 0.0]))

    def test_overflow_raises_naming_config_and_remedy(self):
        # g^2 / reg overflows a double at reg 1e-310, though reg * g^2 / reg
        # does not
        design = DesignMatrix(3, reg=1e-310, width=8, mode="diagonal")
        with pytest.raises(np.linalg.LinAlgError) as err:
            design.sigma(np.ones((2, 3)))
        message = str(err.value)
        assert message.startswith("posterior scale is not finite")
        for part in ("after 0 updates", "dim=3", "reg=1e-310", "width=8",
                     "raise --lambda"):
            assert part in message

    def test_finite_sigma_is_the_formula(self):
        design = DesignMatrix(3, reg=0.5, width=8, mode="diagonal")
        design.update(np.array([0.3, -1.0, 2.0]))
        F = np.array([[0.1, 0.2, 0.3], [1.0, -2.0, 0.5]])
        expected = np.sqrt(np.maximum(
            0.5 * np.sum(F * F / design._diag, axis=1) / 8, 0.0))
        assert design.sigma(F).tobytes() == expected.tobytes()

    def test_length_mismatch(self):
        design = DesignMatrix(2, reg=1.0, width=1)
        with pytest.raises(ValueError):
            design.sigma(np.ones(3))

    def test_scale_bound(self):
        rng = np.random.default_rng(1)
        for mode in ("full", "diagonal"):
            design = DesignMatrix(8, reg=0.3, width=4, mode=mode)
            for _ in range(50):
                g = rng.standard_normal(8)
                design.update(g)
                sigma = design.sigma(g)
                assert sigma ** 2 <= np.dot(g, g) / 4 + 1e-12


class TestUpdate:
    def test_diagonal_arithmetic(self):
        design = DesignMatrix(2, reg=1.0, width=1, mode="diagonal")
        g = np.array([1.0, 0.0])
        design.update(g)
        U = np.eye(2) + np.outer(g, g)  # diag(2, 1)
        np.testing.assert_allclose(inverse(design), np.linalg.inv(U))

    def test_sherman_morrison_vs_direct(self):
        rng = np.random.default_rng(2)
        p, m, reg = 50, 3, 0.5
        design = DesignMatrix(p, reg=reg, width=m, mode="full")
        U = reg * np.eye(p)
        for _ in range(200):
            g = rng.standard_normal(p)
            design.update(g)
            U += np.outer(g, g) / m
        assert np.max(np.abs(inverse(design) - np.linalg.inv(U))) < 1e-8

    def test_logdet_consistency(self):
        rng = np.random.default_rng(3)
        p, m, reg = 30, 2, 1.0
        design = DesignMatrix(p, reg=reg, width=m, mode="full")
        U = reg * np.eye(p)
        for _ in range(100):
            g = rng.standard_normal(p)
            design.update(g)
            U += np.outer(g, g) / m
        assert design.logdet == pytest.approx(np.linalg.slogdet(U)[1], abs=1e-6)

    def test_logdet_increment_formula(self):
        rng = np.random.default_rng(4)
        design = DesignMatrix(10, reg=1.0, width=2, mode="full")
        total = design.logdet
        for _ in range(30):
            g = rng.standard_normal(10)
            total += np.log(1.0 + float(g @ inverse(design) @ g) / design.width)
            design.update(g)
        assert design.logdet == pytest.approx(total, abs=1e-9)

    def test_monotone_shrinkage_both_modes(self):
        rng = np.random.default_rng(5)
        probe = rng.standard_normal(6)
        for mode in ("full", "diagonal"):
            design = DesignMatrix(6, reg=0.4, width=3, mode=mode)
            prev = design.sigma(probe)
            for _ in range(80):
                design.update(rng.standard_normal(6))
                cur = design.sigma(probe)
                assert cur <= prev + 1e-12
                prev = cur

    def test_logdet_nondecreasing(self):
        rng = np.random.default_rng(6)
        for mode in ("full", "diagonal"):
            design = DesignMatrix(5, reg=1.0, width=2, mode=mode)
            prev = design.logdet
            for _ in range(40):
                design.update(rng.standard_normal(5))
                assert design.logdet >= prev - 1e-12
                prev = design.logdet

    def test_diagonal_logdet_is_sum_of_logs(self):
        rng = np.random.default_rng(8)
        design = DesignMatrix(7, reg=0.3, width=2, mode="diagonal")
        diag = np.full(7, 0.3)  # diag(U), updated as the design updates it
        for _ in range(25):
            g = rng.standard_normal(7)
            design.update(g)
            diag += g * g / 2
            assert design.logdet == float(np.sum(np.log(diag)))

    def test_inverse_symmetric(self):
        rng = np.random.default_rng(7)
        design = DesignMatrix(12, reg=0.2, width=4, mode="full")
        for _ in range(100):
            design.update(rng.standard_normal(12))
        inv = inverse(design)
        np.testing.assert_array_equal(inv, inv.T)


class SeedDesignMatrix:
    """The one-shot full-mode algorithm the in-place update must reproduce:
    U and its inverse both updated by np.outer every round, and the inverse
    re-symmetrised after each Sherman-Morrison step."""

    def __init__(self, dim, reg, width, mode="full"):
        assert mode == "full"
        self.reg, self.width = reg, width
        self.logdet = dim * np.log(reg)
        self._U = reg * np.eye(dim)
        self._inv = np.eye(dim) / reg

    def sigma(self, g):
        if np.ndim(g) == 2:
            return np.array([self.sigma(x) for x in g])
        quad = float(g @ self._inv @ g)
        return float(np.sqrt(max(self.reg * quad / self.width, 0.0)))

    def update(self, g):
        m = self.width
        self._U += np.outer(g, g) / m
        u = self._inv @ g
        denom = 1.0 + float(g @ u) / m
        assert denom > 0.0
        self._inv -= np.outer(u, u) / (m * denom)
        self._inv = (self._inv + self._inv.T) / 2.0
        self.logdet += float(np.log(denom))

    @property
    def inverse(self):
        return self._inv.copy()


def _features(n, p, seed=9):
    return np.random.default_rng(seed).standard_normal((n, p))


def _held_bytes(obj):
    """Bytes of the arrays obj holds, through its helper objects."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if hasattr(obj, "__dict__"):
        return sum(_held_bytes(v) for v in vars(obj).values())
    return 0


class TestInPlaceUpdate:
    # p is not a multiple of the 32-row block, and p=5 is smaller than one
    # row block; both runs cross from the dual to the primal form

    @pytest.mark.parametrize("p,n", [(5, 70), (77, 150)])
    def test_matches_seed_algorithm(self, p, n):
        design = DesignMatrix(p, reg=0.6, width=3, mode="full")
        ref = SeedDesignMatrix(p, reg=0.6, width=3)
        for g in _features(n, p):
            design.update(g)
            ref.update(g)
        assert design._inv is not None
        np.testing.assert_allclose(inverse(design), ref.inverse, rtol=1e-9)
        assert design.logdet == pytest.approx(ref.logdet, rel=1e-9)
        probes = _features(3, p, seed=10)
        assert design.sigma(probes[0]) == pytest.approx(ref.sigma(probes[0]),
                                                        rel=1e-9)
        np.testing.assert_allclose(design.sigma(probes), ref.sigma(probes),
                                   rtol=1e-9)

    def test_update_allocates_less_than_one_matrix(self):
        p = 400
        design = DesignMatrix(p, reg=1.0, width=2, mode="full")
        G = _features(_switch_round(p) + 2, p)
        for g in G[:-1]:
            design.update(g)
        assert design._inv is not None  # a primal Sherman-Morrison update
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            design.update(G[-1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p * p * 8

    def test_switch_allocates_less_than_two_matrices(self):
        # W = R G and the inverse built from it, not U beside them
        p = 400
        design = DesignMatrix(p, reg=1.0, width=2, mode="full")
        G = _features(_switch_round(p), p)
        for g in G[:-1]:
            design.update(g)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            design.update(G[-1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert design._inv is not None
        assert peak < 2 * p * p * 8

    def test_primal_form_holds_one_matrix(self):
        p = 400
        design = DesignMatrix(p, reg=1.0, width=2, mode="full")
        for g in _features(_switch_round(p) + 40, p):
            design.update(g)
        assert _held_bytes(design) < 1.5 * p * p * 8

    def test_degenerate_dual_update_names_config_and_remedy(self):
        # reg far below the rounding of g g^T: the second copy of g leaves a
        # Schur complement of 3 - 3 = 0, and update raises before it changes
        # anything
        design = DesignMatrix(3, reg=1e-20, width=1, mode="full")
        design.update(np.ones(3))
        logdet = design.logdet
        with pytest.raises(np.linalg.LinAlgError) as err:
            design.update(np.ones(3))
        message = str(err.value)
        for part in ("after 1 updates", "dim=3", "reg=1e-20", "width=1",
                     "raise --lambda"):
            assert part in message
        assert "--posterior" not in message
        assert (design.n_updates, len(design._G), design._dual.n) == (1, 1, 1)
        assert design.logdet == logdet

    def test_degenerate_primal_update_changes_nothing(self):
        # three features in a plane of R^3 at reg=1e-16: the inverse's
        # entries of order 1/reg along the normal cancel to rounding error,
        # and the third update's denominator, >= 1 in exact arithmetic,
        # comes out <= 0
        rng = np.random.default_rng(4)
        plane = rng.standard_normal((2, 3))
        G = rng.standard_normal((3, 2)) @ plane
        design = DesignMatrix(3, reg=1e-16, width=1, mode="full")
        for g in G[:2]:
            design.update(g)
        assert design._inv is not None
        inv, logdet = inverse(design), design.logdet
        with pytest.raises(np.linalg.LinAlgError,
                           match="after 2 updates .*; raise --lambda$"):
            design.update(G[2])
        np.testing.assert_array_equal(inverse(design), inv)
        assert (design.n_updates, design.logdet) == (2, logdet)


class TestDualForm:
    @pytest.mark.parametrize("p", [37, 45])
    def test_matches_dense_solve_across_switch(self, p):
        m, reg = 3, 0.6
        switch = _switch_round(p)
        design = DesignMatrix(p, reg=reg, width=m, mode="full")
        G = _features(switch + _ROW_BLOCK + 5, p, seed=11)
        probes = _features(4, p, seed=12)
        checked = set()
        for t, g in enumerate(G, start=1):
            design.update(g)
            assert (design._inv is None) == (t < switch)
            if t not in (1, switch - 1, switch, switch + 1,
                         switch + _ROW_BLOCK, len(G)):
                continue
            checked.add(design._inv is None)
            U = reg * np.eye(p) + G[:t].T @ G[:t] / m
            want = np.sqrt(reg * np.einsum(
                "kp,pk->k", probes, np.linalg.solve(U, probes.T)) / m)
            np.testing.assert_allclose(design.sigma(probes), want, rtol=1e-9)
            assert design.sigma(probes[0]) == pytest.approx(want[0], rel=1e-9)
            assert design.logdet == pytest.approx(np.linalg.slogdet(U)[1],
                                                  rel=1e-9)
            np.testing.assert_allclose(design.solve(probes[0]),
                                       np.linalg.solve(U, probes[0]),
                                       rtol=1e-9, atol=1e-12)
            inv = inverse(design)
            np.testing.assert_array_equal(inv, inv.T)
            np.testing.assert_allclose(inv, np.linalg.inv(U), rtol=1e-9,
                                       atol=1e-12)
        assert checked == {True, False}

    def test_logdet_grows_by_schur_ratio(self):
        p, m, reg = 40, 2, 0.5
        design = DesignMatrix(p, reg=reg, width=m, mode="full")
        G = _features(10, p, seed=13)
        for t, g in enumerate(G):
            before = design.logdet
            U = reg * np.eye(p) + G[:t].T @ G[:t] / m
            ratio = 1.0 + g @ np.linalg.solve(U, g) / m
            design.update(g)
            assert design.logdet - before == pytest.approx(np.log(ratio),
                                                           rel=1e-10)

    @pytest.mark.parametrize("n", [5, 50])
    def test_stack_sigma_matches_per_feature(self, n):
        p = 40  # n=5 stays in dual form, n=50 crosses to the primal form
        rng = np.random.default_rng(14)
        probes = rng.standard_normal((4, p))
        for mode in ("full", "diagonal"):
            design = DesignMatrix(p, reg=0.8, width=5, mode=mode)
            for g in rng.standard_normal((n, p)):
                design.update(g)
            stack = design.sigma(probes)
            single = np.array([design.sigma(g) for g in probes])
            assert isinstance(design.sigma(probes[0]), float)
            if mode == "diagonal":
                assert np.array_equal(stack, single)
            else:
                np.testing.assert_allclose(stack, single, rtol=1e-12)

    def test_full_mode_allocates_less_than_one_matrix(self):
        # the dual form holds G (t x p) and a t x t inverse: no p x p array
        # until t reaches the switch, where the parent allocated two at once
        p = 4000
        G = _features(5, p)
        tracemalloc.start()
        try:
            design = DesignMatrix(p, reg=1.0, width=2, mode="full")
            for g in G:
                design.update(g)
            design.sigma(G[:4])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p * p * 8
        assert design._inv is None


class TestBorderedInverse:
    def test_growth_matches_dense_inverse(self):
        # 300 adds cross the 16 -> 32 -> 64 -> ... capacity doublings and the
        # 128-row panels that products with the factor read
        rng = np.random.default_rng(15)
        X = rng.standard_normal((300, 6))
        A = X @ X.T + 0.3 * np.eye(300)
        bordered = BorderedInverse()
        for n in range(300):
            s = bordered.add(A[:n, n], A[n, n])
            assert s > 0.0
            if n + 1 not in (1, 16, 17, 33, 40, 64, 65, 128, 129, 257, 300):
                continue
            R, An = bordered.factor, A[:n + 1, :n + 1]
            assert R.shape == (n + 1, n + 1)
            np.testing.assert_array_equal(np.triu(R, 1), 0.0)
            np.testing.assert_allclose(R @ An @ R.T, np.eye(n + 1), rtol=1e-9,
                                       atol=1e-9)
            np.testing.assert_allclose(R.T @ R, np.linalg.inv(An), rtol=1e-9,
                                       atol=1e-12)
            K = rng.standard_normal((3, n + 1))
            np.testing.assert_allclose(bordered.quad(K), np.einsum(
                "kt,kt->k", K, np.linalg.solve(An, K.T).T), rtol=1e-9)
            np.testing.assert_allclose(bordered.solve(K[0]),
                                       np.linalg.solve(An, K[0]), rtol=1e-9,
                                       atol=1e-12)

    def test_nonpositive_schur_complement_leaves_inverse(self):
        bordered = BorderedInverse()
        bordered.add(np.zeros(0), 2.0)
        before = bordered.factor.copy()
        assert bordered.add(np.array([2.0]), 1.0) <= 0.0
        assert bordered.n == 1
        np.testing.assert_array_equal(bordered.factor, before)
