import math

import numpy as np
import pytest

from riskforge import gbt
from riskforge.gbt import (GbtConfig, GbtModel, TreeNode, _tree_predict,
                           fit_gbt, gain_importance, load_model, predict_margin,
                           predict_proba, save_model, top_k_features)
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

    def test_leaf_weights_match_closed_form(self, monkeypatch):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((150, 3))
        y = (rng.uniform(size=150) < sigmoid(X[:, 0])).astype(float)
        cfg = GbtConfig(n_trees=5, subsample=0.8, reg_lambda=1.0, seed=4)
        record = []
        grow = gbt._grow_tree

        def recording_grow(X, g, h, rows, *args):
            record.append((rows.copy(), g.copy(), h.copy()))
            return grow(X, g, h, rows, *args)

        monkeypatch.setattr(gbt, "_grow_tree", recording_grow)
        model = fit_gbt(X, y, cfg)
        assert len(record) == len(model.trees) == 5
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


def reference_split_scan(vals, g, h, g_left_base, h_left_base, reg_lambda, gamma):
    """One sorted feature column, no NaNs: (best gain, threshold)."""
    m = vals.shape[0]
    if m < 2:
        return -np.inf, np.nan
    acc_g = np.cumsum(np.concatenate(([g_left_base], g)))
    acc_h = np.cumsum(np.concatenate(([h_left_base], h)))
    gt = acc_g[-1]
    ht = acc_h[-1]
    gl = acc_g[1:-1]
    hl = acc_h[1:-1]
    gr = gt - gl
    hr = ht - hl
    parent = gt * gt / (ht + reg_lambda)
    gains = 0.5 * (gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda) - parent) - gamma
    boundary = vals[1:] != vals[:-1]
    if not boundary.any():
        return -np.inf, np.nan
    gains = np.where(boundary, gains, -np.inf)
    k = int(np.argmax(gains))
    return float(gains[k]), float(0.5 * (vals[k] + vals[k + 1]))


def reference_grow_tree(X, g, h, rows, cfg):
    """Per-node, per-feature split search: a sort and a scan per feature."""
    nodes = []

    def build(node_rows, depth):
        idx = len(nodes)
        nodes.append(TreeNode())
        gs = float(g[node_rows].sum())
        hs = float(h[node_rows].sum())
        if depth >= cfg.max_depth or node_rows.size < 2:
            nodes[idx].weight = -gs / (hs + cfg.reg_lambda)
            return idx
        best_gain, best_feat, best_thr = 0.0, -1, 0.0
        for j in range(X.shape[1]):
            vals = X[node_rows, j]
            nan = np.isnan(vals)
            live = node_rows[~nan]
            if live.size < 2:
                continue
            v = X[live, j]
            order = np.argsort(v, kind="stable")
            g_nan = float(g[node_rows[nan]].sum())
            h_nan = float(h[node_rows[nan]].sum())
            gain, thr = reference_split_scan(v[order], g[live][order], h[live][order],
                                             g_nan, h_nan, cfg.reg_lambda, cfg.gamma)
            if gain > best_gain:
                best_gain, best_feat, best_thr = gain, j, thr
        if best_feat < 0:
            nodes[idx].weight = -gs / (hs + cfg.reg_lambda)
            return idx
        vals = X[node_rows, best_feat]
        go_left = np.isnan(vals) | (vals < best_thr)
        nodes[idx].feature = best_feat
        nodes[idx].threshold = best_thr
        nodes[idx].gain = best_gain
        nodes[idx].left = build(node_rows[go_left], depth + 1)
        nodes[idx].right = build(node_rows[~go_left], depth + 1)
        return idx

    build(rows, 0)
    return nodes


def reference_fit(X, y, cfg):
    n = X.shape[0]
    rng = np.random.default_rng(cfg.seed)
    ybar = min(max(float(y.mean()), 1e-12), 1.0 - 1e-12)
    base = float(np.clip(math.log(ybar / (1.0 - ybar)), -10.0, 10.0))
    f = np.full(n, base)
    trees = []
    k = max(1, int(math.floor(cfg.subsample * n)))
    for _ in range(cfg.n_trees):
        prob = sigmoid(f)
        g = prob - y
        h = prob * (1.0 - prob)
        if cfg.subsample < 1.0:
            rows = np.sort(rng.choice(n, size=k, replace=False))
        else:
            rows = np.arange(n)
        nodes = reference_grow_tree(X, g, h, rows, cfg)
        f = f + cfg.learning_rate * _tree_predict(nodes, X)
        trees.append(nodes)
    names = [f"x{j}" for j in range(X.shape[1])]
    return GbtModel(trees, base, names, {}, cfg)


def oracle_case(seed):
    """Random data with NaN cells, rounding ties, constant and all-NaN columns.

    Rare positives with reg_lambda 0 and large steps drive some margins past
    where h = p(1-p) is exactly 0, so that some gains are 0/0 = NaN.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 3, 5, 12, 40, 150, 400]))
    p = int(rng.integers(1, 7))
    X = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-3, 4, size=p)
    for j in range(p):
        kind = rng.integers(0, 6)
        if kind == 0:
            X[:, j] = np.round(X[:, j])           # ties made by rounding
        elif kind == 1:
            X[:, j] = rng.integers(0, 3, size=n) * 0.1 + 0.2   # three values
        elif kind == 2:
            X[:, j] = float(rng.integers(-2, 3))  # constant
        elif kind == 3:
            X[:, j] = np.nan
    X[rng.uniform(size=X.shape) < rng.choice([0.0, 0.05, 0.3])] = np.nan
    y = (rng.uniform(size=n) < rng.choice([0.02, 0.3, 0.5])).astype(float)
    cfg = GbtConfig(max_depth=int(rng.integers(1, 6)),
                    learning_rate=float(rng.choice([0.1, 1.0])),
                    n_trees=int(rng.integers(1, 6)),
                    subsample=float(rng.choice([0.8, 1.0])),
                    reg_lambda=float(rng.choice([0.0, 1.0])),
                    gamma=float(rng.choice([0.0, 0.05])), seed=seed)
    return X, y, cfg


class TestGrowthOracle:
    @pytest.mark.parametrize("seed", range(48))
    def test_model_bytes_equal_per_feature_search(self, seed, tmp_path):
        X, y, cfg = oracle_case(seed)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = reference_fit(X, y, cfg)
        save_model(want, tmp_path / "want.txt")
        save_model(fit_gbt(X, y, cfg), tmp_path / "got.txt")
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()


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


class TestMalformedModelFile:
    def saved_lines(self, tmp_path):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((60, 3))
        y = (X[:, 0] > 0).astype(float)
        model = fit_gbt(X, y, GbtConfig(max_depth=2, n_trees=2, seed=0))
        save_model(model, tmp_path / "model.txt")
        return (tmp_path / "model.txt").read_text().splitlines()

    def load_lines(self, tmp_path, lines):
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        return load_model(path)

    def test_truncated_file(self, tmp_path):
        lines = self.saved_lines(tmp_path)
        with pytest.raises(ValueError, match=r"bad\.txt: line 3: file ends"):
            self.load_lines(tmp_path, lines[:2])
        with pytest.raises(ValueError, match=rf"bad\.txt: line {len(lines)}: file ends"):
            self.load_lines(tmp_path, lines[:-1])

    def test_feature_index_beyond_n_features(self, tmp_path):
        lines = self.saved_lines(tmp_path)
        assert lines[6] == "feature 2 x2"
        lines[6] = "feature 3 x2"
        with pytest.raises(ValueError, match=r"bad\.txt: line 7: feature index 3"):
            self.load_lines(tmp_path, lines)

    def test_node_count_differs_from_node_lines(self, tmp_path):
        lines = self.saved_lines(tmp_path)
        count = int(lines[7].split()[2])
        # tree 0's header is line 8; tree 1's header follows its nodes
        lines[7] = f"tree 0 {count + 1}"
        with pytest.raises(ValueError, match=rf"line {9 + count}: expected a 'node' line"):
            self.load_lines(tmp_path, lines)
        lines[7] = f"tree 0 {count - 1}"
        with pytest.raises(ValueError, match=rf"line {8 + count}: expected a 'tree' line"):
            self.load_lines(tmp_path, lines)

    def one_split_lines(self, tmp_path):
        X = np.arange(20, dtype=float)[:, None]
        y = (X[:, 0] >= 10).astype(float)
        model = fit_gbt(X, y, GbtConfig(max_depth=1, n_trees=1, subsample=1.0, seed=0))
        save_model(model, tmp_path / "model.txt")
        lines = (tmp_path / "model.txt").read_text().splitlines()
        assert lines[5] == "tree 0 3" and lines[6].split()[4:6] == ["1", "2"]
        return lines

    def with_root_left(self, lines, left):
        fields = lines[6].split(" ")
        fields[4] = str(left)
        return lines[:6] + [" ".join(fields)] + lines[7:]

    def test_split_child_not_after_its_node(self, tmp_path):
        # a root that is its own child would send predict_margin round forever
        lines = self.one_split_lines(tmp_path)
        with pytest.raises(ValueError, match=r"bad\.txt: line 7: children 0, 2 of node 0"):
            self.load_lines(tmp_path, self.with_root_left(lines, 0))

    def test_split_child_outside_its_tree(self, tmp_path):
        lines = self.one_split_lines(tmp_path)
        with pytest.raises(ValueError, match=r"bad\.txt: line 7: children 9, 2 of node 0"):
            self.load_lines(tmp_path, self.with_root_left(lines, 9))


class TestInputShape:
    def test_names_must_match_columns(self):
        X = np.random.default_rng(9).standard_normal((20, 3))
        y = (X[:, 0] > 0).astype(float)
        cfg = GbtConfig(n_trees=1, seed=0)
        for names in (["a", "b"], ["a", "b", "c", "d"]):
            with pytest.raises(ValueError, match="feature names"):
                fit_gbt(X, y, cfg, names=names)

    def test_outcomes_must_match_rows(self):
        X = np.random.default_rng(9).standard_normal((20, 3))
        with pytest.raises(ValueError, match="outcomes"):
            fit_gbt(X, np.zeros(19), GbtConfig(n_trees=1, seed=0))
