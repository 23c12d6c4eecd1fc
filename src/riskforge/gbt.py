"""Second-order gradient-boosted trees for binary logistic loss.

Each round fits a depth-limited tree to gradient/hessian statistics
(g = p - y, h = p(1-p)) on a seeded row subsample, with exact greedy split
search over sorted unique values, leaf weights -G/(H+lambda), and gain
accumulated per feature for importance ranking. Missing feature values
route to the left child.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .glm import sigmoid


@dataclass
class GbtConfig:
    max_depth: int = 3
    learning_rate: float = 0.05
    n_trees: int = 100
    subsample: float = 0.8
    reg_lambda: float = 1.0
    gamma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if self.reg_lambda < 0 or self.gamma < 0:
            raise ValueError("reg_lambda and gamma must be >= 0")


@dataclass
class TreeNode:
    feature: int = -1        # -1 marks a leaf
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    weight: float = 0.0
    gain: float = 0.0


@dataclass
class GbtModel:
    trees: list                # list[list[TreeNode]]
    base_score: float
    feature_names: list
    importance_gain: dict
    config: GbtConfig


def _leaf_weight(g_sum, h_sum, reg_lambda):
    return -g_sum / (h_sum + reg_lambda)


def _grow_tree(X, g, h, rows, cfg):
    nodes = []

    def build(node_rows, depth):
        idx = len(nodes)
        nodes.append(TreeNode())
        gs = float(g[node_rows].sum())
        hs = float(h[node_rows].sum())
        if depth >= cfg.max_depth or node_rows.size < 2:
            nodes[idx].weight = _leaf_weight(gs, hs, cfg.reg_lambda)
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
            gain, thr = _kernels.split_scan(
                np.ascontiguousarray(v[order]),
                np.ascontiguousarray(g[live][order]),
                np.ascontiguousarray(h[live][order]),
                g_nan, h_nan, cfg.reg_lambda, cfg.gamma)
            if gain > best_gain:
                best_gain, best_feat, best_thr = gain, j, thr
        if best_feat < 0:
            nodes[idx].weight = _leaf_weight(gs, hs, cfg.reg_lambda)
            return idx
        vals = X[node_rows, best_feat]
        go_left = np.isnan(vals) | (vals < best_thr)
        left_rows = node_rows[go_left]
        right_rows = node_rows[~go_left]
        nodes[idx].feature = best_feat
        nodes[idx].threshold = best_thr
        nodes[idx].gain = best_gain
        nodes[idx].left = build(left_rows, depth + 1)
        nodes[idx].right = build(right_rows, depth + 1)
        return idx

    build(rows, 0)
    return nodes


def _tree_predict(nodes, X):
    """Leaf weight per row; all rows descend one level per pass."""
    feature = np.array([nd.feature for nd in nodes])
    threshold = np.array([nd.threshold for nd in nodes])
    left = np.array([nd.left for nd in nodes])
    right = np.array([nd.right for nd in nodes])
    k = np.zeros(X.shape[0], dtype=int)
    rows = np.flatnonzero(feature[k] >= 0)
    while rows.size:
        at = k[rows]
        v = X[rows, feature[at]]
        k[rows] = np.where(np.isnan(v) | (v < threshold[at]), left[at], right[at])
        rows = rows[feature[k[rows]] >= 0]
    return np.array([nd.weight for nd in nodes])[k]


def fit_gbt(X, y, cfg, names=None, record=None):
    """Boosted ensemble; deterministic for a given seed.

    ``record``, when a list, collects per-round (subsample_rows, g, h)
    snapshots for post-hoc verification of the leaf-weight closed form.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if names is None:
        names = [f"x{j}" for j in range(p)]
    rng = np.random.default_rng(cfg.seed)

    ybar = min(max(float(y.mean()), 1e-12), 1.0 - 1e-12)
    base = float(np.clip(math.log(ybar / (1.0 - ybar)), -10.0, 10.0))
    f = np.full(n, base)
    trees = []
    importance = {}
    k = max(1, int(math.floor(cfg.subsample * n)))
    for _ in range(cfg.n_trees):
        prob = sigmoid(f)
        g = prob - y
        h = prob * (1.0 - prob)
        if cfg.subsample < 1.0:
            rows = np.sort(rng.choice(n, size=k, replace=False))
        else:
            rows = np.arange(n)
        if record is not None:
            record.append((rows.copy(), g.copy(), h.copy()))
        nodes = _grow_tree(X, g, h, rows, cfg)
        for node in nodes:
            if node.feature >= 0:
                key = names[node.feature]
                importance[key] = importance.get(key, 0.0) + node.gain
        f = f + cfg.learning_rate * _tree_predict(nodes, X)
        trees.append(nodes)
    return GbtModel(trees, base, list(names), importance, cfg)


def predict_margin(model, X):
    X = np.asarray(X, dtype=float)
    f = np.full(X.shape[0], model.base_score)
    for nodes in model.trees:
        f += model.config.learning_rate * _tree_predict(nodes, X)
    return f


def predict_proba(model, X):
    return sigmoid(np.clip(predict_margin(model, X), -30.0, 30.0))


def gain_importance(model):
    """(feature, total gain) ranking, descending, ties by feature index."""
    order = {name: i for i, name in enumerate(model.feature_names)}
    items = [(name, gain) for name, gain in model.importance_gain.items()]
    items.sort(key=lambda kv: (-kv[1], order[kv[0]]))
    return items


def top_k_features(model, k):
    if k < 1:
        raise ValueError("k must be >= 1")
    return [name for name, _ in gain_importance(model)[:k]]


FORMAT_TAG = "riskforge-gbt 1"


def save_model(model, path):
    lines = [FORMAT_TAG,
             f"base_score {model.base_score!r}",
             f"learning_rate {model.config.learning_rate!r}",
             f"n_features {len(model.feature_names)}"]
    for i, name in enumerate(model.feature_names):
        lines.append(f"feature {i} {name}")
    for t, nodes in enumerate(model.trees):
        lines.append(f"tree {t} {len(nodes)}")
        for i, nd in enumerate(nodes):
            lines.append(f"node {i} {nd.feature} {nd.threshold!r} {nd.left} "
                         f"{nd.right} {nd.weight!r} {nd.gain!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != FORMAT_TAG:
        raise ValueError(f"{path}: not a {FORMAT_TAG} file")
    base = float(lines[1].split()[1])
    lr = float(lines[2].split()[1])
    n_feat = int(lines[3].split()[1])
    names = [""] * n_feat
    i = 4
    while i < len(lines) and lines[i].startswith("feature "):
        _, idx, name = lines[i].split(" ", 2)
        names[int(idx)] = name
        i += 1
    trees = []
    while i < len(lines):
        parts = lines[i].split()
        if parts[0] != "tree":
            raise ValueError(f"{path}: expected tree header at line {i + 1}")
        count = int(parts[2])
        nodes = []
        for j in range(count):
            p = lines[i + 1 + j].split()
            nodes.append(TreeNode(int(p[2]), float(p[3]), int(p[4]),
                                  int(p[5]), float(p[6]), float(p[7])))
        trees.append(nodes)
        i += 1 + count
    cfg = GbtConfig(learning_rate=lr)
    importance = {}
    for nodes in trees:
        for nd in nodes:
            if nd.feature >= 0:
                key = names[nd.feature]
                importance[key] = importance.get(key, 0.0) + nd.gain
    return GbtModel(trees, base, names, importance, cfg)
