import numpy as np
import pytest

from banditbench.data import duplicate_half, normalize_unit
from banditbench.nn import FactorRows, NetShape, grad_batch, init_params
from banditbench.posterior import (_DUAL_FRACTION, _PANEL, _ROW_BLOCK,
                                  BorderedInverse, DesignMatrix)
from helpers import (dense_factor, dual_state, inverse, stored_shape,
                     traced_peak)


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
    re-symmetrised after each Sherman-Morrison step.  Factor rows are
    flattened."""

    def __init__(self, dim, reg, width, mode="full"):
        assert mode == "full"
        self.reg, self.width = reg, width
        self.logdet = dim * np.log(reg)
        self._U = reg * np.eye(dim)
        self._inv = np.eye(dim) / reg

    def sigma(self, g):
        g = np.asarray(g, dtype=np.float64)
        if np.ndim(g) == 2:
            return np.array([self.sigma(x) for x in g])
        quad = float(g @ self._inv @ g)
        return float(np.sqrt(max(self.reg * quad / self.width, 0.0)))

    def update(self, g):
        g = np.asarray(g, dtype=np.float64)
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
        assert traced_peak(lambda: design.update(G[-1])) < p * p * 8

    def test_switch_allocates_less_than_two_matrices(self):
        # W = R G and the inverse built from it, not U beside them
        p = 400
        design = DesignMatrix(p, reg=1.0, width=2, mode="full")
        G = _features(_switch_round(p), p)
        for g in G[:-1]:
            design.update(g)
        peak = traced_peak(lambda: design.update(G[-1]))
        assert design._inv is not None
        assert peak < 2 * p * p * 8

    def test_switch_frees_features_and_factor_before_the_inverse(self):
        # from an empty design through the switch at t updates: G, R and
        # W = R G are held together, then only W and the p x p inverse,
        # never G, R, W and the inverse at once
        p = 400
        G = _features(_switch_round(p), p)
        t = len(G)

        def through_switch():
            design = DesignMatrix(p, reg=1.0, width=2, mode="full")
            for g in G:
                design.update(g)
            assert design._inv is not None and design._G is None

        assert traced_peak(through_switch) < 8 * (p * p + 2 * t * p)

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
        assert (design.n_updates, len(dual_state(design).rows),
                design._dual.n) == (1, 1, 1)
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
        r = np.random.default_rng(11).uniform(size=len(G))
        probes = _features(4, p, seed=12)
        checked = set()
        for t, g in enumerate(G, start=1):
            design.observe(g, r[t - 1])
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
            # the ridge mean x^T U^-1 b with b = G^T r / m, which is
            # x^T (reg*m*I + G^T G)^-1 G^T r: at m = 1, LinTS's mean
            means, sigmas = design.posterior(probes)
            np.testing.assert_allclose(
                means, probes @ np.linalg.solve(U, G[:t].T @ r[:t] / m),
                rtol=1e-9)
            np.testing.assert_array_equal(sigmas, design.sigma(probes))
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

        def few_updates():
            design = DesignMatrix(p, reg=1.0, width=2, mode="full")
            for g in G:
                design.update(g)
            design.sigma(G[:4])
            assert design._inv is None

        assert traced_peak(few_updates) < p * p * 8


class TestFactorRows:
    """A design fed a network's gradients as factor rows against one fed
    the same gradients flattened, and against a dense solve."""

    @staticmethod
    def _gradients(depth, duplicate, n, seed):
        # weights moved off the block init, so that no factor is degenerate
        rng = np.random.default_rng(seed)
        shape = NetShape(6, 8, depth)
        theta = init_params(shape, seed)
        for W in theta.layers:
            W += 0.3 * rng.standard_normal(W.shape)
        raw = normalize_unit(rng.standard_normal((n, 3 if duplicate else 6)))
        X = duplicate_half(raw) if duplicate else raw
        return shape, grad_batch(theta, X)[1]

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("duplicate", [True, False])
    def test_matches_flat_design_across_switch(self, depth, duplicate):
        reg, m = 0.7, 8
        shape, feats = self._gradients(depth, duplicate, 200, seed=depth)
        p = shape.n_params
        switch = _switch_round(p)
        rows, probes = feats[:switch + 10], feats[-4:]
        flat_probes = np.asarray(probes)
        r = np.random.default_rng(30).uniform(size=len(rows))
        factored, flat = (DesignMatrix(p, reg, m) for _ in range(2))
        # g^T g from the factors: a fresh design's sigma^2 is g^T g / m
        np.testing.assert_allclose(factored.sigma(probes) ** 2 * m,
                                   np.einsum("kp,kp->k", flat_probes,
                                             flat_probes), rtol=1e-14)
        np.testing.assert_allclose(factored.sigma(probes),
                                   flat.sigma(flat_probes), rtol=1e-14)
        row_length = sum(fan_out + fan_in
                         for fan_out, fan_in in shape.layer_shapes())
        checked = set()
        for t in range(len(rows)):
            factored.observe(rows[t], r[t])
            flat.observe(np.asarray(rows[t]), r[t])
            if t + 1 not in (1, switch - 1, switch, len(rows)):
                continue
            dual = t + 1 < switch
            assert (factored._inv is None) == dual
            checked.add(dual)
            if dual:
                # no p-wide row: fan_out + fan_in numbers a layer
                assert stored_shape(factored) == (t + 1, row_length)
                np.testing.assert_allclose(factored.sigma(flat_probes),
                                           factored.sigma(probes), rtol=1e-12)
            np.testing.assert_allclose(factored.sigma(probes),
                                       flat.sigma(flat_probes), rtol=1e-9)
            assert factored.logdet == pytest.approx(flat.logdet, rel=1e-12)
            for a, b in zip(factored.posterior(probes),
                            flat.posterior(flat_probes)):
                np.testing.assert_allclose(a, b, rtol=1e-9)
        assert checked == {True, False}

    @pytest.mark.parametrize("depth", [2, 3])
    def test_switch_builds_w_from_factor_blocks(self, depth):
        reg, m = 0.4, 8
        shape, feats = self._gradients(depth, True, 200, seed=10 + depth)
        p = shape.n_params
        switch = _switch_round(p)
        rows, probes = feats[:switch + 5], np.asarray(feats[-4:])
        design = DesignMatrix(p, reg, m)
        for g in rows[:switch - 1]:
            design.update(g)
        F = np.asarray(rows)
        want = dense_factor(design._dual) @ F[:switch - 1]
        np.testing.assert_allclose(design._whitened(), want, rtol=1e-10,
                                   atol=1e-13 * np.abs(want).max())
        for t in range(switch - 1, len(rows)):
            design.update(rows[t])
            assert design._inv is not None and design._G is None
            U = reg * np.eye(p) + F[:t + 1].T @ F[:t + 1] / m
            dense = np.sqrt(reg * np.einsum(
                "kp,pk->k", probes, np.linalg.solve(U, probes.T)) / m)
            np.testing.assert_allclose(design.sigma(feats[-4:]), dense,
                                       rtol=1e-9)

    def test_flat_feature_cannot_join_factor_rows(self):
        shape, feats = self._gradients(2, True, 3, seed=5)
        design = DesignMatrix(shape.n_params, 1.0, 8)
        design.update(feats[0])
        with pytest.raises(ValueError, match="flat feature"):
            design.update(np.asarray(feats[1]))
        assert design.n_updates == 1 and len(dual_state(design).rows) == 1


def _with_nan(feature):
    """A copy of one feature's factor rows with a NaN in layer 0's acts."""
    factors = [(d.copy(), a.copy()) for d, a in feature.factors]
    factors[0][1][0] = np.nan
    return FactorRows(factors)


# Each rejection of a feature: (dim, rows updated first, method, argument of
# the factor rows F of three gradients of a depth-2 network with p = 56).
# Every one raises ValueError itself, not the LinAlgError subclass that a
# NaN reaching sigma would raise, and changes nothing, whatever path checks
# it.
_REJECTIONS = {
    "wrong length": (56, [], "sigma", lambda F: np.ones(55)),
    "3-D stack": (56, [], "sigma", lambda F: np.ones((2, 2, 56))),
    "0-d scalar at dim 1": (1, [], "sigma", lambda F: np.float64(1.0)),
    "non-finite flat entries": (
        56, [], "update", lambda F: np.r_[np.ones(55), np.inf]),
    "non-finite factor entries": (
        56, [0], "sigma", lambda F: _with_nan(F[1])),
    "factor rows of the wrong total width": (57, [], "sigma", lambda F: F),
    "a flat stack where one feature is expected": (
        56, [], "update", lambda F: np.asarray(F)),
    "a factor stack where one feature is expected": (
        56, [0], "update", lambda F: F),
    "a flat row joining stored factor rows": (
        56, [0], "update", lambda F: np.asarray(F[1])),
}


class TestRejections:
    # the diagonal form stores no rows for a flat row to join
    @pytest.mark.parametrize("case,mode", [
        (case, mode) for case in _REJECTIONS for mode in ("full", "diagonal")
        if mode == "full" or "joining" not in case])
    def test_rejected_and_nothing_changes(self, case, mode):
        dim, before, method, argument = _REJECTIONS[case]
        F = TestFactorRows._gradients(2, False, 3, seed=50)[1]
        design = DesignMatrix(dim, 0.5, 8, mode)
        for i in before:
            design.update(F[i])
        logdet, inv = design.logdet, inverse(design)
        with pytest.raises(ValueError) as err:
            getattr(design, method)(argument(F))
        assert type(err.value) is ValueError
        assert (design.n_updates, design.logdet) == (len(before), logdet)
        np.testing.assert_array_equal(inverse(design), inv)


class TestRBF:
    @staticmethod
    def _gram(A, B, gamma):
        diff = A[:, None, :] - B[None, :, :]
        return np.exp(-gamma * np.sum(diff * diff, axis=2))

    def test_bandwidth_needs_full_mode(self):
        # diagonal mode has no RBF Gram: a bandwidth there would be ignored
        with pytest.raises(ValueError, match="bandwidth needs mode 'full'"):
            DesignMatrix(3, 1e-320, 1, "diagonal", bandwidth=1.0)

    @pytest.mark.parametrize("depth", [2, 3])
    def test_factor_rows_match_flat_rows(self, depth):
        # |g - h|^2 needs |g|^2 of the whole gradient, summed over its
        # layers; the design observes up to stop_train and is then only read
        stop_train = 12
        shape, feats = TestFactorRows._gradients(depth, False, 24,
                                                 seed=40 + depth)
        F = np.asarray(feats)
        gamma = 1.0 / np.mean(np.einsum("kp,kp->k", F, F))
        r = np.random.default_rng(41).uniform(size=len(F))
        factored, flat = (DesignMatrix(shape.n_params, 0.5, 1, "full",
                                       bandwidth=gamma) for _ in range(2))
        for t in range(len(F) - 4):
            for a, b in zip(factored.posterior(feats[t:t + 4]),
                            flat.posterior(F[t:t + 4])):
                np.testing.assert_allclose(a, b, rtol=1e-12)
            if t < stop_train:
                factored.observe(feats[t], r[t])
                flat.observe(F[t], r[t])

    def test_stays_dual_and_matches_kernel_ridge(self):
        # 3 * dim rows: a dot-product design would have left dual form
        dim, reg, gamma = 6, 0.3, 0.8
        rng = np.random.default_rng(18)
        X = rng.standard_normal((3 * dim, dim))
        r = rng.uniform(size=len(X))
        probes = rng.standard_normal((4, dim))
        design = DesignMatrix(dim, reg, 1, "full", bandwidth=gamma)
        for x, reward in zip(X, r):
            design.observe(x, reward)
        assert design._inv is None
        assert len(dual_state(design).rows) == 3 * dim
        k = self._gram(probes, X, gamma)
        A = self._gram(X, X, gamma) + reg * np.eye(len(X))
        means, sigmas = design.posterior(probes)
        np.testing.assert_allclose(means, k @ np.linalg.solve(A, r),
                                   rtol=1e-9)
        np.testing.assert_allclose(sigmas ** 2, 1.0 - np.einsum(
            "kt,kt->k", k, np.linalg.solve(A, k.T).T), rtol=1e-9)
        np.testing.assert_array_equal(design.sigma(probes), sigmas)

    def test_singular_gram_raises_and_leaves_design(self):
        # 1 + reg rounds to 1, so a repeated row's Schur complement is 0
        design = DesignMatrix(2, 1e-20, 1, "full", bandwidth=1.0)
        x = np.array([0.3, -0.2])
        design.observe(x, 0.5)
        before = dual_state(design)
        probes = np.array([[0.1, 0.2], [-1.0, 0.5]])
        means, sigmas = design.posterior(probes)
        with pytest.raises(np.linalg.LinAlgError, match=(
                r"^design matrix lost positive definiteness after 1 updates "
                r"\(dim=2, reg=1e-20, width=1\); raise --lambda$")):
            design.observe(x, 0.5)
        after = dual_state(design)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)
        assert design.n_updates == 1
        for a, b in zip(design.posterior(probes), (means, sigmas)):
            np.testing.assert_array_equal(a, b)


class TestBorderedInverse:
    def test_growth_matches_dense_inverse(self):
        # 300 adds cross the 128-row panels that hold the factor
        rng = np.random.default_rng(15)
        X = rng.standard_normal((300, 6))
        A = X @ X.T + 0.3 * np.eye(300)
        bordered = BorderedInverse()
        for n in range(300):
            s = bordered.add(A[:n, n], A[n, n])
            assert s > 0.0
            if n + 1 not in (1, 16, 17, 33, 40, 64, 65, 128, 129, 257, 300):
                continue
            R, An = dense_factor(bordered), A[:n + 1, :n + 1]
            assert R.shape == (n + 1, n + 1)
            np.testing.assert_array_equal(np.triu(R, 1), 0.0)
            np.testing.assert_allclose(R @ An @ R.T, np.eye(n + 1), rtol=1e-9,
                                       atol=1e-9)
            np.testing.assert_allclose(R.T @ R, np.linalg.inv(An), rtol=1e-9,
                                       atol=1e-12)
            K = rng.standard_normal((3, n + 1))
            V = bordered.whiten(K)
            np.testing.assert_allclose(np.einsum("kt,kt->k", V, V), np.einsum(
                "kt,kt->k", K, np.linalg.solve(An, K.T).T), rtol=1e-9)

    def test_nonpositive_schur_complement_leaves_inverse(self):
        bordered = BorderedInverse()
        bordered.add(np.zeros(0), 2.0)
        before = dense_factor(bordered)
        assert bordered.add(np.array([2.0]), 1.0) <= 0.0
        assert bordered.n == 1
        np.testing.assert_array_equal(dense_factor(bordered), before)

    def test_panels_match_the_doubling_square_bit_for_bit(self):
        # 600 adds cross the panel boundaries at 128, 256, 384 and 512
        rng = np.random.default_rng(16)
        X = rng.standard_normal((600, 6))
        A = X @ X.T + 0.3 * np.eye(600)
        K = rng.standard_normal((3, 600))
        got, want = BorderedInverse(), DoublingBorderedInverse()
        for n in range(600):
            s = got.add(A[n, :n], A[n, n])
            assert np.float64(s).tobytes() == \
                np.float64(want.add(A[n, :n], A[n, n])).tobytes()
            Kn = K[:, :n + 1]
            for a, b in ((dense_factor(got), want.factor),
                         (got.row(n), want.factor[n]),
                         (got.whiten(Kn), want.whiten(Kn))):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert len(got._blocks) == 5

    def test_thousand_adds_hold_about_half_a_square(self):
        # the panels of R take 36 * 128^2 doubles at n=1000 and are never
        # copied; a doubling square holds 1024^2 and copies 512^2 on the way
        n = 1000
        X = np.random.default_rng(17).standard_normal((n, 6))
        A = X @ X.T + 0.3 * np.eye(n)

        def adds():
            bordered = BorderedInverse()
            for t in range(n):
                bordered.add(A[t, :t], A[t, t])

        assert traced_peak(adds) < 0.65 * n * n * 8


class DoublingBorderedInverse:
    """BorderedInverse as it was before its factor lived in fixed panels: R
    in one zero-initialised square buffer whose capacity doubles, read one
    _PANEL-row block at a time."""

    def __init__(self):
        self._data = np.zeros((0, 0))
        self.n = 0

    @property
    def factor(self):
        return self._data[:self.n, :self.n]

    def _panels(self):
        for i in range(0, self.n, _PANEL):
            j = min(i + _PANEL, self.n)
            yield i, j, self._data[i:j, :j]

    def _apply(self, k):
        l, u = np.empty(self.n), np.zeros(self.n)
        for i, j, P in self._panels():
            np.matmul(P, k[:j], out=l[i:j])
            u[:j] += l[i:j] @ P
        return l, u

    def add(self, k, d):
        n = self.n
        l, u = self._apply(k)
        s = d - float(l @ l)
        if s <= 0.0:
            return s
        if n == len(self._data):
            grown = np.zeros((max(16, 2 * n),) * 2)
            grown[:n, :n] = self.factor
            self._data = grown
        root = np.sqrt(s)
        np.divide(u, -root, out=self._data[n, :n])
        self._data[n, n] = 1.0 / root
        self.n = n + 1
        return s

    def whiten(self, K):
        V = np.empty((len(K), self.n))
        for i, j, P in self._panels():
            np.matmul(K[:, :j], P.T, out=V[:, i:j])
        return V
