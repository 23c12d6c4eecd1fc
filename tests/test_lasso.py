import math

import numpy as np
import pytest

from riskforge import lasso
from riskforge.errors import DegenerateFold, NonConvergence
from riskforge.glm import fit_logistic, sigmoid
from riskforge.lasso import (CvCurve, binomial_deviance, cv_deviance,
                             default_grid, fit_lasso, fold_assignments,
                             fold_path, lambda_max, lasso_path, select_lambda,
                             selected_features)


def standardized(rng, n, p):
    X = rng.standard_normal((n, p))
    return (X - X.mean(0)) / X.std(0)


def draw(rng, n, beta, intercept=0.0):
    X = standardized(rng, n, len(beta))
    y = (rng.uniform(size=n) < sigmoid(intercept + X @ np.asarray(beta))).astype(float)
    return X, y


def objective(X, y, lam, b0, b):
    eta = b0 + X @ b
    n = len(y)
    loss = float(np.mean(-(y * eta - np.logaddexp(0.0, eta))))
    return loss + lam * float(np.sum(np.abs(b)))


class TestFitLasso:
    def test_all_zero_at_lambda_max(self):
        rng = np.random.default_rng(0)
        X, y = draw(rng, 300, [1.0, -0.5, 0.2])
        lmax = lambda_max(X, y)
        _, beta = fit_lasso(X, y, lmax)
        assert np.all(beta == 0.0)
        _, beta = fit_lasso(X, y, lmax * 1.5)
        assert np.all(beta == 0.0)

    def test_lambda_zero_matches_irls(self):
        rng = np.random.default_rng(1)
        X, y = draw(rng, 500, [0.8, -0.6, 0.0, 0.4])
        b0, b = fit_lasso(X, y, 0.0)
        fit = fit_logistic(X, y)
        assert np.max(np.abs(np.r_[b0, b] - fit.coef)) < 1e-4

    def test_noise_coefficient_exactly_zero(self):
        # oracle: brute-force grid search over the 2-D coefficient plane
        rng = np.random.default_rng(2)
        n = 400
        X = standardized(rng, n, 2)
        y = (rng.uniform(size=n) < sigmoid(1.2 * X[:, 0])).astype(float)
        lam = 0.08
        b0, b = fit_lasso(X, y, lam)

        grid = np.linspace(-2.0, 2.0, 81)
        best, best_val = None, np.inf
        for b1 in grid:
            for b2 in grid:
                v = objective(X, y, lam, b0, np.array([b1, b2]))
                if v < best_val:
                    best, best_val = (b1, b2), v
        assert abs(best[1]) <= 0.05  # noise coef near zero on the coarse grid
        assert b[1] == 0.0           # and exactly zero from soft-thresholding
        assert objective(X, y, lam, b0, b) <= best_val + 1e-9

    def test_kkt_conditions_hold(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            X, y = draw(rng, 250, [0.9, -0.7, 0.0, 0.0, 0.3])
            lam = float(rng.uniform(0.01, 0.1))
            b0, b = fit_lasso(X, y, lam)
            p = sigmoid(b0 + X @ b)
            grad = X.T @ (p - y) / len(y)
            zero = b == 0.0
            assert np.all(np.abs(grad[zero]) <= lam + 1e-6)
            if (~zero).any():
                assert np.max(np.abs(grad[~zero] + lam * np.sign(b[~zero]))) <= 1e-6

    def test_iteration_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(3)
        X, y = draw(rng, 250, [0.9, -0.7, 0.0])
        monkeypatch.setattr(lasso, "MAX_ITER", 2)
        with pytest.raises(NonConvergence, match="hit 2 iterations"):
            fit_lasso(X, y, 0.01)


class TestCvCurve:
    def test_lambda_min_below_lambda_1se(self):
        rng = np.random.default_rng(4)
        X, y = draw(rng, 260, [1.0, -0.8, 0.0, 0.0])
        curve = cv_deviance(X, y, grid_size=40, n_folds=5, seed=1)
        assert curve.lambda_min <= curve.lambda_1se
        assert curve.mean_deviance.min() == curve.mean_deviance[
            int(np.argmin(curve.mean_deviance))]
        i_min = list(curve.lambda_grid).index(curve.lambda_min)
        assert curve.mean_deviance[i_min] == curve.mean_deviance.min()

    def test_huge_lambda_deviance_matches_null_closed_form(self):
        rng = np.random.default_rng(5)
        X, y = draw(rng, 400, [0.6, -0.6])
        curve = cv_deviance(X, y, grid_size=30, n_folds=5, seed=2)
        ybar = y.mean()
        null_dev = -2 * (ybar * math.log(ybar) + (1 - ybar) * math.log(1 - ybar))
        assert curve.mean_deviance[0] == pytest.approx(null_dev, abs=0.08)

    def test_same_seed_bitwise_reproducible(self):
        rng = np.random.default_rng(6)
        X, y = draw(rng, 200, [0.7, 0.0])
        c1 = cv_deviance(X, y, grid_size=25, n_folds=5, seed=9)
        c2 = cv_deviance(X, y, grid_size=25, n_folds=5, seed=9)
        assert np.array_equal(c1.mean_deviance, c2.mean_deviance)
        assert np.array_equal(c1.se_deviance, c2.se_deviance)
        assert c1.lambda_selected == c2.lambda_selected

    def test_row_permutation_invariant_with_keys(self):
        rng = np.random.default_rng(7)
        X, y = draw(rng, 180, [0.9, -0.5])
        keys = np.arange(180) + 1000
        base = cv_deviance(X, y, grid_size=20, n_folds=4, seed=3, keys=keys)
        perm = rng.permutation(180)
        shuf = cv_deviance(X[perm], y[perm], grid_size=20, n_folds=4, seed=3,
                           keys=keys[perm])
        assert np.allclose(base.mean_deviance, shuf.mean_deviance, atol=1e-12)
        assert base.lambda_min == shuf.lambda_min

    def test_degenerate_fold_detected(self):
        X = np.random.default_rng(0).standard_normal((30, 2))
        y = np.ones(30)
        y[0] = 0.0
        with pytest.raises(DegenerateFold):
            cv_deviance(X, y, grid_size=10, n_folds=10, seed=0)

    def test_fold_assignment_stratified(self):
        y = np.array([0.0, 1.0] * 50)
        folds = fold_assignments(y, 10, seed=4)
        for f in range(10):
            assert y[folds == f].sum() == 5

    def test_noisy_extra_features_push_lambda_min_up(self):
        # wider noisy design needs stronger regularization at its optimum
        rng = np.random.default_rng(42)
        n = 400
        X = standardized(rng, n, 8)
        beta = np.array([1.0, -0.8, 0.6, -0.5, 0.4, 0.0, 0.0, 0.0])
        y = (rng.uniform(size=n) < sigmoid(X @ beta)).astype(float)
        noise = standardized(rng, n, 60)
        base = cv_deviance(X, y, grid_size=40, n_folds=10, seed=3)
        wide = cv_deviance(np.hstack([X, noise]), y, grid_size=40, n_folds=10,
                           seed=3)
        assert wide.lambda_min > base.lambda_min


class TestFoldPath:
    def test_kkt_on_every_fold_down_to_lambda_min(self):
        # oracle: soft-threshold KKT conditions of each fold's own training
        # problem, at every penalty cv_deviance solves from lambda max down
        # to the lambda it selects as lambda_min
        rng = np.random.default_rng(13)
        X, y = draw(rng, 300, [1.0, -0.8, 0.5, 0.0, 0.0, 0.3, 0.0, 0.0])
        curve = cv_deviance(X, y, grid_size=25, n_folds=5, seed=4)
        folds = fold_assignments(y, 5, 4)
        fold_lmax = [lambda_max(X[folds != f], y[folds != f]) for f in range(5)]
        zero_checks = 0
        for lam, (W, capped) in zip(curve.lambda_grid,
                                    fold_path(X, y, curve.lambda_grid, folds)):
            if lam < curve.lambda_min:
                break
            assert not capped.any()
            for f in range(5):
                train = folds != f
                b0, b = W[0, f], W[1:, f]
                resid = sigmoid(b0 + X[train] @ b) - y[train]
                grad = X[train].T @ resid / train.sum()
                assert abs(resid.mean()) <= 1e-6
                zero = b == 0.0
                assert np.all(np.abs(grad[zero]) <= lam + 1e-6)
                if (~zero).any():
                    assert np.max(np.abs(grad[~zero] + lam * np.sign(b[~zero]))) <= 1e-6
                if lam >= fold_lmax[f]:
                    assert np.all(b == 0.0)
                    zero_checks += 1
        assert zero_checks > 0

        # every fold is exactly null at the largest fold's lambda max
        (W, capped), = fold_path(X, y, [max(fold_lmax)], folds)
        assert np.all(W[1:] == 0.0) and not capped.any()


class TestSelectLambda:
    def curve(self, lam_min, lam_1se):
        return CvCurve(np.array([lam_1se, lam_min]), np.array([1.0, 0.9]),
                       np.array([0.1, 0.1]), lam_min, lam_1se, 0.0, 10, 0)

    def test_degenerate_interval_all_rules_equal(self):
        c = self.curve(0.5, 0.5)
        assert select_lambda(c, "min") == select_lambda(c, "1se") == \
            select_lambda(c, "pct75") == 0.5

    def test_pct75_log_interpolation(self):
        c = self.curve(1.0, math.exp(4.0))
        assert select_lambda(c, "pct75") == pytest.approx(math.exp(3.0), rel=1e-12)

    def test_1se_is_max_lambda_within_one_se(self):
        rng = np.random.default_rng(8)
        X, y = draw(rng, 300, [1.1, -0.9, 0.0])
        curve = cv_deviance(X, y, grid_size=30, n_folds=5, seed=5)
        # brute-force scan of the reported grid
        i_min = int(np.argmin(curve.mean_deviance))
        limit = curve.mean_deviance[i_min] + curve.se_deviance[i_min]
        eligible = curve.lambda_grid[curve.mean_deviance <= limit]
        assert select_lambda(curve, "1se") == pytest.approx(eligible.max())
        assert curve.lambda_min <= curve.lambda_selected <= curve.lambda_1se


class TestSelectedFeatures:
    def test_enormous_lambda_empty(self):
        rng = np.random.default_rng(9)
        X, y = draw(rng, 200, [1.0, 0.5])
        assert selected_features(X, y, 10.0, ["a", "b"]) == []

    def test_tiny_lambda_keeps_all(self):
        rng = np.random.default_rng(10)
        X, y = draw(rng, 300, [1.0, -0.8, 0.6])
        names = selected_features(X, y, 1e-6, ["a", "b", "c"])
        assert names == ["a", "b", "c"]

    def test_planted_signal_recall(self):
        # generator knows ground truth: 5 informative, 45 noise
        rng = np.random.default_rng(11)
        n, p_signal, p_noise = 600, 5, 45
        X = standardized(rng, n, p_signal + p_noise)
        beta = np.zeros(p_signal + p_noise)
        beta[:p_signal] = np.array([1.2, -1.0, 0.9, -0.8, 0.7])
        y = (rng.uniform(size=n) < sigmoid(X @ beta)).astype(float)
        names = [f"v{j}" for j in range(p_signal + p_noise)]
        curve = cv_deviance(X, y, grid_size=40, n_folds=10, seed=6)
        sel = selected_features(X, y, curve.lambda_selected, names)
        recall = len(set(sel) & {f"v{j}" for j in range(p_signal)}) / p_signal
        assert recall >= 0.8


class TestPath:
    def test_nonzero_counts_zero_at_top_and_grow(self):
        rng = np.random.default_rng(12)
        X, y = draw(rng, 250, [1.0, -0.7, 0.5, 0.0])
        lmax = lambda_max(X, y)
        grid = default_grid(lmax, 12, ratio=0.05)
        path = lasso_path(X, y, grid)
        assert path.nonzero_counts[0] == 0
        assert path.nonzero_counts[-1] >= path.nonzero_counts[0]
        assert np.all(np.diff(path.lambda_grid) < 0)

    def test_warm_started_rows_match_cold_fits(self):
        rng = np.random.default_rng(13)
        X, y = draw(rng, 300, [1.0, -0.7, 0.5, 0.0, 0.0, 0.3])
        grid = default_grid(lambda_max(X, y), 10, ratio=0.01)
        path = lasso_path(X, y, grid)
        for i, lam in enumerate(grid):
            b0, b = fit_lasso(X, y, lam)
            assert abs(path.intercepts[i] - b0) <= 1e-6
            assert np.max(np.abs(path.coef_path[i] - b)) <= 1e-6
            assert np.array_equal(path.coef_path[i] == 0.0, b == 0.0)


def test_binomial_deviance_of_certain_prediction():
    y = np.array([1.0, 0.0])
    eta = np.array([30.0, -30.0])
    assert binomial_deviance(y, eta) == pytest.approx(0.0, abs=1e-10)
