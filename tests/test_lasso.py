import math

import numpy as np
import pytest

from riskforge import lasso
from riskforge.errors import DegenerateFold, NonConvergence
from riskforge.glm import fit_logistic, sigmoid
from riskforge.lasso import (RULES, STOP_AFTER, CvCurve, binomial_deviance,
                             cv_deviance, default_grid, fit_lasso,
                             fold_assignments, fold_path, lambda_max,
                             select_lambda, selected_features)


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


def reference_fold_assignments(y, n_folds, seed, keys=None):
    """The per-row fold assignment, rows ordered by Python sorts on key tuples."""
    y = np.asarray(y)
    n = len(y)
    keys = list(np.arange(n) if keys is None else keys)
    folds = np.empty(n, dtype=int)
    rng = np.random.default_rng(seed)
    for cls in (0, 1):
        idx = [i for i in range(n) if y[i] == cls]
        idx.sort(key=lambda i: reference_key_rank(keys[i]))
        idx = np.asarray(idx, dtype=int)
        idx = idx[rng.permutation(idx.size)]
        for pos, row in enumerate(idx):
            folds[row] = pos % n_folds
    return folds


def reference_key_rank(key):
    if isinstance(key, (int, np.integer, float, np.floating)):
        return (0, float(key), "")
    return (1, 0.0, str(key))


def random_keys(rng, n):
    """Integer or float keys drawn from a small range, so most repeat."""
    if rng.uniform() < 0.5:
        return rng.integers(-5, 6, n)
    return rng.choice(rng.normal(0, 10, 6), n)


class TestKeyOrderOracle:
    def test_fold_ids_match_sorted_key_tuples(self):
        rng = np.random.default_rng(31)
        for case in range(300):
            n = int(rng.integers(1, 60))
            y = (rng.uniform(size=n) < rng.uniform(0.1, 0.9)).astype(float)
            keys = random_keys(rng, n) if case % 10 else None  # None: by position
            n_folds = int(rng.integers(2, 6))
            got = fold_assignments(y, n_folds, case, keys)
            assert got.tolist() == reference_fold_assignments(y, n_folds, case, keys).tolist()

    def test_cv_deviance_solves_rows_in_sorted_key_tuple_order(self):
        rng = np.random.default_rng(32)
        for case in range(5):
            X, y = draw(rng, 80, [1.0, -0.6, 0.0])
            keys = random_keys(rng, 80)
            order = sorted(range(80), key=lambda i: reference_key_rank(keys[i]))
            got = cv_deviance(X, y, grid_size=6, n_folds=4, seed=case, keys=keys)
            want = cv_deviance(X[order], y[order], grid_size=6, n_folds=4, seed=case)
            assert got.mean_deviance.tobytes() == want.mean_deviance.tobytes()
            assert got.se_deviance.tobytes() == want.se_deviance.tobytes()


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


def reference_cv_curve(X, y, grid_size, n_folds, seed, rule="pct75"):
    """The curve over every penalty of the grid: each fold solved at each
    penalty, as cv_deviance did before it stopped past lambda_min."""
    grid = default_grid(lambda_max(X, y), grid_size)
    folds = fold_assignments(y, n_folds, seed)
    dev = np.empty((n_folds, len(grid)))
    capped_folds = np.empty(len(grid), dtype=int)
    for i, (W, capped) in enumerate(fold_path(X, y, grid, folds)):
        eta = W[0] + X @ W[1:]
        for f in range(n_folds):
            val = folds == f
            dev[f, i] = binomial_deviance(y[val], eta[val, f])
        capped_folds[i] = capped.sum()
    mean = dev.mean(axis=0)
    se = dev.std(axis=0, ddof=1) / math.sqrt(n_folds)
    i_min = int(np.argmin(mean))
    within = mean <= mean[i_min] + se[i_min]
    curve = CvCurve(grid, mean, se, float(grid[i_min]),
                    float(grid[np.flatnonzero(within)[0]]), 0.0, capped_folds)
    curve.lambda_selected = select_lambda(curve, rule)
    return curve


def reference_stop_index(mean, se):
    """First index at which the mean has been above the running argmin's
    mean + SE for STOP_AFTER penalties in a row; None if it never is."""
    run = 0
    for i in range(len(mean)):
        best = int(np.argmin(mean[:i + 1]))
        run = run + 1 if mean[i] > mean[best] + se[best] else 0
        if run == STOP_AFTER:
            return i
    return None


def collinear(rng, n, p):
    """Standardized columns that are noisy mixes of two latent ones: small
    penalties then leave folds near-separable and ill-conditioned, where
    solves stop at CV_MAX_ITER."""
    X = rng.standard_normal((n, 2)) @ rng.standard_normal((2, p))
    X += 0.1 * rng.standard_normal((n, p))
    return (X - X.mean(0)) / X.std(0)


def random_cv_case(rng, wide=False):
    n = int(rng.integers(30, 80))
    if wide:
        X = collinear(rng, n, int(rng.integers(6, 16)))
        beta = rng.normal(0.0, 0.5, X.shape[1])
    else:
        X = standardized(rng, n, int(rng.integers(1, 7)))
        beta = rng.normal(0.0, 1.0, X.shape[1]) * (rng.uniform(size=X.shape[1]) < 0.3)
    y = (rng.uniform(size=n) < sigmoid(rng.normal() + X @ beta)).astype(float)
    return X, y, dict(grid_size=int(rng.integers(3, 11)), n_folds=int(rng.integers(2, 7)),
                      seed=int(rng.integers(1000)), rule=str(rng.choice(RULES)))


class TestEarlyStop:
    def test_stopped_curve_is_a_bitwise_prefix_of_the_full_grid(self):
        rng = np.random.default_rng(51)
        cases = stopped = capped = 0
        while cases < 300:
            X, y, kw = random_cv_case(rng, wide=cases % 30 == 0)
            try:
                got = cv_deviance(X, y, **kw)
            except DegenerateFold:
                continue
            want = reference_cv_curve(X, y, **kw)
            stop = reference_stop_index(want.mean_deviance, want.se_deviance)
            k = kw["grid_size"] if stop is None else stop + 1
            assert len(got.lambda_grid) == k
            for name in ("lambda_grid", "mean_deviance", "se_deviance", "capped_folds"):
                assert getattr(got, name).tobytes() == getattr(want, name)[:k].tobytes()
            assert (got.lambda_min, got.lambda_1se, got.lambda_selected) == \
                (want.lambda_min, want.lambda_1se, want.lambda_selected)
            cases += 1
            stopped += stop is not None
            capped += got.capped_folds.any()
        # the stop fires on a good share of the cases, and some solved
        # penalties have folds at the iteration cap
        assert stopped >= 100 and capped >= 3

    def test_argmin_matches_converged_full_curve(self, monkeypatch):
        # the skipped tail is where fold solves hit CV_MAX_ITER; with a cap
        # 20x higher every solve of the full grid runs further, and its
        # argmin still lies where the stopped curve's does
        rng = np.random.default_rng(52)
        cases = capped = 0
        while cases < 10:
            X, y, kw = random_cv_case(rng, wide=True)
            try:
                got = cv_deviance(X, y, **kw)
            except DegenerateFold:
                continue
            capped += reference_cv_curve(X, y, **kw).capped_folds.any()
            with monkeypatch.context() as m:
                m.setattr(lasso, "CV_MAX_ITER", 20_000)
                want = reference_cv_curve(X, y, **kw)
            assert got.lambda_min == want.lambda_min
            cases += 1
        assert capped >= 3

    def test_curve_that_never_rises_keeps_the_whole_grid(self):
        # many rows and one strong feature: the deviance falls to a flat
        # floor well inside one SE, so no penalty is past the 1-SE band
        rng = np.random.default_rng(53)
        X, y = draw(rng, 2000, [1.5])
        want = reference_cv_curve(X, y, 20, 5, 0)
        assert reference_stop_index(want.mean_deviance, want.se_deviance) is None
        got = cv_deviance(X, y, grid_size=20, n_folds=5, seed=0)
        assert got.lambda_grid.tobytes() == want.lambda_grid.tobytes()
        assert got.mean_deviance.tobytes() == want.mean_deviance.tobytes()

    def test_capped_folds_counts_fold_path_caps(self, monkeypatch):
        rng = np.random.default_rng(54)
        X, y = draw(rng, 200, [1.0, -0.8, 0.5, 0.0])
        monkeypatch.setattr(lasso, "CV_MAX_ITER", 5)
        curve = cv_deviance(X, y, grid_size=15, n_folds=4, seed=2)
        folds = fold_assignments(y, 4, 2)
        counts = [int(capped.sum()) for _, capped in fold_path(X, y, curve.lambda_grid, folds)]
        assert curve.capped_folds.tolist() == counts
        assert 0 < sum(counts)


class TestSelectLambda:
    def curve(self, lam_min, lam_1se):
        return CvCurve(np.array([lam_1se, lam_min]), np.array([1.0, 0.9]),
                       np.array([0.1, 0.1]), lam_min, lam_1se, 0.0)

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


def test_binomial_deviance_of_certain_prediction():
    y = np.array([1.0, 0.0])
    eta = np.array([30.0, -30.0])
    assert binomial_deviance(y, eta) == pytest.approx(0.0, abs=1e-10)
