import tracemalloc

import numpy as np
import pytest

from banditbench.posterior import DesignMatrix


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
        design.update(np.array([1.0, 0.0]))
        np.testing.assert_allclose(np.diag(design.matrix), [2.0, 1.0])

    def test_sherman_morrison_vs_direct(self):
        rng = np.random.default_rng(2)
        p, m, reg = 50, 3, 0.5
        design = DesignMatrix(p, reg=reg, width=m, mode="full")
        U = reg * np.eye(p)
        for _ in range(200):
            g = rng.standard_normal(p)
            design.update(g)
            U += np.outer(g, g) / m
        assert np.max(np.abs(design.inverse - np.linalg.inv(U))) < 1e-8

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
            total += np.log(1.0 + float(g @ design.inverse @ g) / design.width)
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

    def test_inverse_symmetric(self):
        rng = np.random.default_rng(7)
        design = DesignMatrix(12, reg=0.2, width=4, mode="full")
        for _ in range(100):
            design.update(rng.standard_normal(12))
        inv = design.inverse
        np.testing.assert_array_equal(inv, inv.T)

    def test_rebuild_recovers_inverse(self):
        design = DesignMatrix(4, reg=1.0, width=1, mode="full")
        rng = np.random.default_rng(8)
        for _ in range(20):
            design.update(rng.standard_normal(4))
        design._rebuild()
        assert design.n_rebuilds == 1
        assert np.max(np.abs(design.inverse - np.linalg.inv(design.matrix))) < 1e-10


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


class TestInPlaceUpdate:
    # p is not a multiple of the 32-row block, N not a multiple of the
    # 64-feature fold block, and p=5 is smaller than one row block

    @pytest.mark.parametrize("p,n", [(5, 70), (77, 150)])
    def test_bit_identical_to_seed_algorithm(self, p, n):
        design = DesignMatrix(p, reg=0.6, width=3, mode="full")
        ref = SeedDesignMatrix(p, reg=0.6, width=3)
        for g in _features(n, p):
            design.update(g)
            ref.update(g)
        assert np.array_equal(design.inverse, ref.inverse)
        assert design.logdet == ref.logdet
        probe = _features(1, p, seed=10)[0]
        assert design.sigma(probe) == ref.sigma(probe)

    def test_matrix_includes_pending_features(self):
        p, m, reg = 77, 3, 0.6
        design = DesignMatrix(p, reg=reg, width=m, mode="full")
        G = _features(150, p)
        for g in G:
            design.update(g)
        want = reg * np.eye(p) + sum(np.outer(g, g) for g in G) / m
        assert np.max(np.abs(design.matrix - want)) < 1e-12

    def test_rebuild_includes_pending_features(self):
        p, m, reg = 77, 3, 0.6
        design = DesignMatrix(p, reg=reg, width=m, mode="full")
        G = _features(70, p)
        for g in G:
            design.update(g)
        design._rebuild()
        want = np.linalg.inv(reg * np.eye(p) + G.T @ G / m)
        assert np.max(np.abs(design.inverse - want)) < 1e-10
        assert np.max(np.abs(design.inverse - np.linalg.inv(design.matrix))) < 1e-10
        assert design.logdet == pytest.approx(np.linalg.slogdet(design.matrix)[1],
                                              abs=1e-9)

    def test_update_allocates_less_than_one_matrix(self):
        p = 400
        design = DesignMatrix(p, reg=1.0, width=2, mode="full")
        G = _features(3, p)
        design.update(G[0])  # the buffer holds one feature; no fold follows
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            design.update(G[1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p * p * 8

    def test_rebuild_failure_names_config_and_remedy(self):
        # reg far below the rounding of g g^T: U rounds to the singular ones
        # matrix, so the fallback cannot rebuild its inverse
        design = DesignMatrix(3, reg=1e-20, width=1, mode="full")
        design.update(np.ones(3))
        with pytest.raises(np.linalg.LinAlgError) as err:
            design._rebuild()
        message = str(err.value)
        for part in ("after 1 updates", "dim=3", "reg=1e-20", "width=1",
                     "--lambda", "--posterior diag"):
            assert part in message
