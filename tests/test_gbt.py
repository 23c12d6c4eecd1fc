import math

import numpy as np
import pytest

from riskforge.gbt import (GbtConfig, _tree_predict, fit_gbt, gain_importance,
                           load_model, predict_margin, predict_proba,
                           save_model, top_k_features)
from riskforge.glm import sigmoid


def logistic_loss(y, margin):
    return float(np.mean(-(y * margin - np.logaddexp(0.0, margin))))


class TestFit:
    def test_constant_outcome_capped_base_no_substantive_trees(self):
        X = np.random.default_rng(0).standard_normal((50, 3))
        y = np.ones(50)
        model = fit_gbt(X, y, GbtConfig(n_trees=10, subsample=1.0, seed=0))
        assert model.base_score == 10.0
        assert model.importance_gain == {}
        for nodes in model.trees:
            assert len(nodes) == 1 and nodes[0].feature == -1

    def test_hand_computed_step_function_leaf_weights(self):
        # 6 points, step at x=0, depth 1, lr 1, one tree, reg_lambda 1:
        #   base = logit(0.5) = 0; p = 0.5 for all; g = p - y; h = 0.25
        #   left (y=0): G = 1.5, H = 0.75 -> weight = -1.5/1.75
        #   right (y=1): G = -1.5, H = 0.75 -> weight = 1.5/1.75
        X = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        cfg = GbtConfig(max_depth=1, learning_rate=1.0, n_trees=1,
                        subsample=1.0, reg_lambda=1.0, seed=0)
        model = fit_gbt(X, y, cfg)
        root = model.trees[0][0]
        assert root.feature == 0
        assert root.threshold == pytest.approx(0.0)
        left = model.trees[0][root.left]
        right = model.trees[0][root.right]
        assert left.weight == pytest.approx(-1.5 / 1.75, abs=1e-12)
        assert right.weight == pytest.approx(1.5 / 1.75, abs=1e-12)
        # split gain, by hand: 0.5*(G_L^2/(H_L+1) + G_R^2/(H_R+1) - 0) - 0
        expect_gain = 0.5 * (1.5 ** 2 / 1.75 + 1.5 ** 2 / 1.75)
        assert root.gain == pytest.approx(expect_gain, abs=1e-12)

    def test_seeded_run_is_identical(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((120, 4))
        y = (rng.uniform(size=120) < sigmoid(X[:, 0])).astype(float)
        cfg = GbtConfig(n_trees=15, seed=7)
        m1 = fit_gbt(X, y, cfg)
        m2 = fit_gbt(X, y, cfg)
        assert np.array_equal(predict_margin(m1, X), predict_margin(m2, X))
        assert m1.importance_gain == m2.importance_gain

    def test_training_loss_non_increasing_full_sample(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((200, 3))
        y = (rng.uniform(size=200) < sigmoid(1.5 * X[:, 0] - X[:, 1])).astype(float)
        cfg = GbtConfig(n_trees=30, subsample=1.0, seed=0)
        model = fit_gbt(X, y, cfg)
        f = np.full(200, model.base_score)
        losses = [logistic_loss(y, f)]
        for nodes in model.trees:
            from riskforge.gbt import _tree_predict
            f = f + cfg.learning_rate * _tree_predict(nodes, X)
            losses.append(logistic_loss(y, f))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_leaf_weights_match_closed_form(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((150, 3))
        y = (rng.uniform(size=150) < sigmoid(X[:, 0])).astype(float)
        cfg = GbtConfig(n_trees=5, subsample=0.8, reg_lambda=1.0, seed=4)
        record = []
        model = fit_gbt(X, y, cfg, record=record)
        for nodes, (rows, g, h) in zip(model.trees, record):
            # route the subsample rows and recompute -G/(H+lambda) per leaf
            leaf_rows = {}
            for i in rows:
                k = 0
                while nodes[k].feature >= 0:
                    v = X[i, nodes[k].feature]
                    k = nodes[k].left if v < nodes[k].threshold else nodes[k].right
                leaf_rows.setdefault(k, []).append(i)
            for k, members in leaf_rows.items():
                G = g[members].sum()
                H = h[members].sum()
                assert nodes[k].weight == pytest.approx(-G / (H + 1.0), rel=1e-10)

    def test_probabilities_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((100, 2))
        y = (X[:, 0] > 0).astype(float)
        model = fit_gbt(X, y, GbtConfig(n_trees=60, learning_rate=0.5, seed=0))
        p = predict_proba(model, X)
        assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_nan_routes_left(self):
        X = np.array([[-1.0], [-0.5], [0.5], [1.0]] * 10)
        y = np.array([0.0, 0.0, 1.0, 1.0] * 10)
        model = fit_gbt(X, y, GbtConfig(max_depth=1, n_trees=1, subsample=1.0,
                                        learning_rate=1.0, seed=0))
        m_nan = predict_margin(model, np.array([[np.nan]]))
        m_left = predict_margin(model, np.array([[-1.0]]))
        assert m_nan[0] == m_left[0]

    def test_predict_matches_per_row_routing(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((300, 5))
        X[rng.uniform(size=X.shape) < 0.15] = np.nan
        y = (rng.uniform(size=300) < sigmoid(np.nan_to_num(X[:, 0] - X[:, 3]))).astype(float)
        model = fit_gbt(X, y, GbtConfig(max_depth=4, n_trees=15, seed=2))
        Xq = rng.standard_normal((200, 5))
        Xq[rng.uniform(size=Xq.shape) < 0.2] = np.nan
        for nodes in model.trees:
            want = []
            for row in Xq:
                k = 0
                while nodes[k].feature >= 0:
                    v = row[nodes[k].feature]
                    k = nodes[k].left if np.isnan(v) or v < nodes[k].threshold else nodes[k].right
                want.append(nodes[k].weight)
            assert np.array_equal(_tree_predict(nodes, Xq), np.array(want))


class TestImportance:
    def test_no_splits_empty_ranking(self):
        X = np.zeros((20, 2))
        y = np.array([0.0, 1.0] * 10)
        model = fit_gbt(X, y, GbtConfig(n_trees=3, subsample=1.0, seed=0))
        assert gain_importance(model) == []

    def test_single_split_gain_reported(self):
        X = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        model = fit_gbt(X, y, GbtConfig(max_depth=1, learning_rate=1.0,
                                        n_trees=1, subsample=1.0, seed=0),
                        names=["f"])
        ranking = gain_importance(model)
        assert len(ranking) == 1
        assert ranking[0][0] == "f"
        assert ranking[0][1] == pytest.approx(0.5 * 2 * 1.5 ** 2 / 1.75)

    def test_planted_signal_features_rank_in_top_10(self):
        rng = np.random.default_rng(5)
        n, p = 800, 30
        X = rng.standard_normal((n, p))
        beta = np.zeros(p)
        beta[:5] = [1.5, -1.3, 1.1, -1.0, 0.9]
        y = (rng.uniform(size=n) < sigmoid(X @ beta)).astype(float)
        model = fit_gbt(X, y, GbtConfig(seed=1), names=[f"v{j}" for j in range(p)])
        top10 = top_k_features(model, 10)
        assert {f"v{j}" for j in range(5)} <= set(top10)


class TestTopK:
    def fixture_model(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((200, 4))
        y = (rng.uniform(size=200) < sigmoid(X[:, 0] - X[:, 2])).astype(float)
        return fit_gbt(X, y, GbtConfig(n_trees=10, seed=0),
                       names=["a", "b", "c", "d"])

    def test_k_larger_than_split_features(self):
        model = self.fixture_model()
        names = top_k_features(model, 100)
        assert set(names) <= {"a", "b", "c", "d"}
        assert len(names) == len(model.importance_gain)

    def test_k_one_is_max_gain(self):
        model = self.fixture_model()
        assert top_k_features(model, 1) == [gain_importance(model)[0][0]]

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            top_k_features(self.fixture_model(), 0)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    X = rng.standard_normal((150, 3))
    y = (rng.uniform(size=150) < sigmoid(X[:, 1])).astype(float)
    model = fit_gbt(X, y, GbtConfig(n_trees=8, seed=2), names=["p", "q", "r"])
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(predict_margin(model, X), predict_margin(loaded, X))
    assert loaded.feature_names == ["p", "q", "r"]
    assert loaded.importance_gain == pytest.approx(model.importance_gain)
