import math

import numpy as np
import pytest

from riskforge.design import FeatureMatrix
from riskforge.errors import Separation
from riskforge.glm import (consolidate_features, fit_logistic, null_loglik,
                           sigmoid, univariate_screen, vif, wald_p)


def make_fm(X, names=None):
    X = np.asarray(X, dtype=float)
    names = names or [f"x{j}" for j in range(X.shape[1])]
    return FeatureMatrix(X, names)


def draw_logistic(rng, n, beta, intercept=0.0):
    p = len(beta)
    X = rng.standard_normal((n, p))
    eta = intercept + X @ np.asarray(beta)
    y = (rng.uniform(size=n) < sigmoid(eta)).astype(float)
    return X, y


class TestFitLogistic:
    def test_zero_column_balanced_outcome(self):
        y = np.array([0.0, 1.0] * 50)
        X = np.zeros((100, 1))
        fit = fit_logistic(X, y)
        assert abs(fit.coef[0]) < 1e-8
        assert fit.p[0] > 0.99

    def test_recovers_generating_slope_within_3_se(self):
        # Monte-Carlo generation oracle: data drawn from beta=(0, 1.5)
        rng = np.random.default_rng(42)
        X, y = draw_logistic(rng, 5000, [1.5], intercept=0.0)
        fit = fit_logistic(X, y)
        assert abs(fit.coef[1] - 1.5) < 3 * fit.se[1]
        assert abs(fit.coef[0]) < 3 * fit.se[0]
        assert fit.converged

    def test_perfect_separation_raises(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(Separation) as exc:
            fit_logistic(X, y)
        assert exc.value.fit is not None
        assert not exc.value.fit.converged

    def test_gradient_maxnorm_below_1e6_at_solution(self):
        rng = np.random.default_rng(3)
        X, y = draw_logistic(rng, 800, [0.8, -0.4, 0.0])
        fit = fit_logistic(X, y)
        Z = np.hstack([np.ones((800, 1)), X])
        grad = Z.T @ (y - sigmoid(Z @ fit.coef))
        assert np.max(np.abs(grad)) < 1e-6

    def test_null_model_pseudo_r2_is_exactly_zero(self):
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0] * 20)
        fit = fit_logistic(np.zeros((100, 0)), y)
        assert fit.pseudo_r2 == 0.0

    def test_ci_brackets_coef(self):
        rng = np.random.default_rng(8)
        X, y = draw_logistic(rng, 400, [0.5, -0.5])
        fit = fit_logistic(X, y)
        assert np.all(fit.ci_low <= fit.coef)
        assert np.all(fit.coef <= fit.ci_high)
        assert np.all((fit.p >= 0) & (fit.p <= 1))

    def test_wald_agrees_with_lrt_within_order_of_magnitude(self):
        rng = np.random.default_rng(11)
        X, y = draw_logistic(rng, 1500, [0.35, 0.0])
        full = fit_logistic(X, y)
        reduced = fit_logistic(X[:, [1]], y)
        lr_stat = 2.0 * (full.loglik - reduced.loglik)
        p_lrt = math.erfc(math.sqrt(max(lr_stat, 0.0) / 2.0))
        p_wald = full.p[1]
        assert abs(math.log10(max(p_wald, 1e-300)) - math.log10(max(p_lrt, 1e-300))) < 1.0


class TestUnivariateScreen:
    def test_noise_column_significance_rate_matches_alpha(self):
        hits = 0
        trials = 250
        for seed in range(trials):
            rng = np.random.default_rng(1000 + seed)
            X, y = draw_logistic(rng, 400, [0.0])
            rows = univariate_screen(make_fm(X), y)
            hits += int(rows[0].significant)
        rate = hits / trials
        # binomial(250, 0.05): 3 sigma band around 0.05
        assert 0.05 - 3 * math.sqrt(0.05 * 0.95 / trials) <= rate \
            <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / trials)

    def test_strong_predictor_tiny_p(self):
        rng = np.random.default_rng(5)
        X, y = draw_logistic(rng, 2000, [1.2])
        rows = univariate_screen(make_fm(X, ["lactate"]), y)
        assert rows[0].significant and rows[0].p < 1e-6
        assert rows[0].name == "lactate"

    def test_row_shape_per_variable(self):
        rng = np.random.default_rng(6)
        X, y = draw_logistic(rng, 300, [0.9, 0.0, -0.9])
        rows = univariate_screen(make_fm(X), y)
        assert [r.name for r in rows] == ["x0", "x1", "x2"]
        assert all(hasattr(r, "coef") and hasattr(r, "p") for r in rows)


class TestVif:
    def test_identical_columns_drop_non_preferred(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal(200)
        X = np.column_stack([base, base, rng.standard_normal(200)])
        rep = vif(make_fm(X, ["pt", "inr", "hr"]))
        assert "inr" not in rep.kept
        assert "pt" in rep.kept
        dropped = [d[0] for d in rep.drop_sequence]
        assert dropped == ["inr"]
        assert rep.drop_sequence[0][1] == "pt"

    def test_orthogonal_columns_vif_one(self):
        n = 64
        X = np.zeros((n, 3))
        X[:, 0] = np.tile([1.0, -1.0], n // 2)
        X[:, 1] = np.tile([1.0, 1.0, -1.0, -1.0], n // 4)
        X[:, 2] = np.tile([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0], n // 8)
        rep = vif(make_fm(X))
        for v in rep.vifs.values():
            assert v == pytest.approx(1.0, abs=1e-9)

    def test_correlated_pair_resolved_by_preference(self):
        rng = np.random.default_rng(1)
        pt = rng.standard_normal(500)
        inr = 0.99 * pt + math.sqrt(1 - 0.99 ** 2) * rng.standard_normal(500)
        other = rng.standard_normal(500)
        rep = vif(make_fm(np.column_stack([pt, inr, other]), ["pt", "inr", "age"]))
        assert "inr" not in rep.kept and "pt" in rep.kept and "age" in rep.kept

    def test_final_vifs_below_threshold(self):
        rng = np.random.default_rng(9)
        base = rng.standard_normal((300, 2))
        X = np.column_stack([base, base[:, 0] + 0.01 * rng.standard_normal(300)])
        rep = vif(make_fm(X))
        assert all(rep.vifs[n] <= 10.0 for n in rep.kept)

    def test_dropped_column_stays_in_table_with_vif_at_drop(self):
        rng = np.random.default_rng(14)
        a, c = rng.standard_normal((2, 200))
        b = a + 1e-3 * rng.standard_normal(200)
        rep = vif(make_fm(np.column_stack([a, b, c]), ["a", "b", "c"]))
        (dropped, _, _, at_drop), = rep.drop_sequence
        assert list(rep.vifs) == ["a", "b", "c"]
        assert rep.vifs[dropped] == at_drop > 10.0
        assert sorted(rep.kept) == sorted({"a", "b", "c"} - {dropped})
        assert all(rep.vifs[n] < 10.0 for n in rep.kept)
        # the vif_*.csv rows: (variable, dropped) for every input column
        assert [(n, n not in rep.kept) for n in rep.vifs] == \
            [(n, n == dropped) for n in ("a", "b", "c")]


class TestConsolidate:
    def test_union_order(self):
        assert consolidate_features(["a", "b"], ["b", "c"]) == ["a", "b", "c"]

    def test_disjoint(self):
        assert len(consolidate_features(["a", "b", "c"], ["d", "e", "f", "g"])) == 7

    def test_identity(self):
        assert consolidate_features(["a", "b"], ["a", "b"]) == ["a", "b"]


def test_null_loglik_closed_form():
    y = np.array([1.0] * 52 + [0.0] * 48)
    ybar = 0.52
    expect = 100 * (ybar * math.log(ybar) + (1 - ybar) * math.log(1 - ybar))
    assert null_loglik(y) == pytest.approx(expect, abs=1e-12)


def test_wald_p_two_sided():
    assert wald_p(np.array([0.0]))[0] == pytest.approx(1.0)
    assert wald_p(np.array([1.959964]))[0] == pytest.approx(0.05, abs=1e-6)
