"""Second-order gradient-boosted trees for binary logistic loss.

Each round fits a depth-limited tree to gradient/hessian statistics
(g = p - y, h = p(1-p)) on a seeded row subsample, with exact greedy split
search over sorted unique values, leaf weights -G/(H+lambda), and gain
accumulated per feature for importance ranking. Missing feature values
route to the left child.

As in SLIQ and XGBoost's exact greedy search, each column is stable-sorted
once per fit (missing values last); a split partitions its node's
per-feature orders stably, so no node sorts, and one
``_kernels.split_scan`` call scans all features of a node.
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


def _grow_tree(X, g, h, rows, sorted_rows, cfg):
    """Nodes of one tree in preorder, grown depth first from ``rows``
    (ascending); row j of ``sorted_rows`` holds them sorted by feature j,
    missing values last, ties in row order."""
    nodes = []
    cols = np.arange(X.shape[1])
    goes_left = np.zeros(X.shape[0], dtype=bool)   # read at the split's rows only
    # (rows, sorted rows, depth, parent, side): children wait here, so a
    # node's arrays are dropped once it is split
    stack = [(rows, sorted_rows, 0, None, "")]
    while stack:
        node_rows, sorted_rows, depth, parent, side = stack.pop()
        if parent is not None:
            setattr(parent, side, len(nodes))
        node = TreeNode()
        nodes.append(node)
        if depth < cfg.max_depth and node_rows.size >= 2:
            # the gathered (rows x features) matrices are freed on return
            by_value = sorted_rows.T
            node.feature, node.gain, node.threshold = _kernels.split_scan(
                X[by_value, cols], g[by_value], h[by_value], cfg.reg_lambda, cfg.gamma)
        if node.feature < 0:
            g_sum, h_sum = float(g[node_rows].sum()), float(h[node_rows].sum())
            node.weight = -g_sum / (h_sum + cfg.reg_lambda)
            continue
        vals = X[node_rows, node.feature]
        go_left = np.isnan(vals) | (vals < node.threshold)
        goes_left[node_rows] = go_left
        in_left = goes_left[sorted_rows]
        p = len(sorted_rows)
        stack.append((node_rows[~go_left], sorted_rows[~in_left].reshape(p, -1),
                      depth + 1, node, "right"))
        stack.append((node_rows[go_left], sorted_rows[in_left].reshape(p, -1),
                      depth + 1, node, "left"))
    return nodes


def _gain_by_feature(trees, names):
    importance = {}
    for nodes in trees:
        for nd in nodes:
            if nd.feature >= 0:
                key = names[nd.feature]
                importance[key] = importance.get(key, 0.0) + nd.gain
    return importance


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


def fit_gbt(X, y, cfg, names=None):
    """Boosted ensemble; deterministic for a given seed."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if names is None:
        names = [f"x{j}" for j in range(p)]
    if len(names) != p or len(y) != n:
        raise ValueError(f"X is {n}x{p}; {len(y)} outcomes, {len(names)} feature names")
    rng = np.random.default_rng(cfg.seed)
    order = np.argsort(X, axis=0, kind="stable").T   # NaNs sort last

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
            in_tree = np.zeros(n, dtype=bool)
            in_tree[rows] = True
            sorted_rows = order[in_tree[order]].reshape(p, k)
        else:
            rows, sorted_rows = np.arange(n), order
        nodes = _grow_tree(X, g, h, rows, sorted_rows, cfg)
        f = f + cfg.learning_rate * _tree_predict(nodes, X)
        trees.append(nodes)
    return GbtModel(trees, base, list(names), _gain_by_feature(trees, names), cfg)


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
    """Read a ``save_model`` file; a malformed one raises ValueError naming
    the path and line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != FORMAT_TAG:
        raise ValueError(f"{path}: not a {FORMAT_TAG} file")

    def fail(i, what):
        raise ValueError(f"{path}: line {i + 1}: {what}")

    def parse(i, head, *types):
        """The fields after ``head`` on line i, converted by ``types``."""
        if i >= len(lines):
            fail(i, f"file ends where a '{head}' line is due")
        parts = lines[i].split(" ", len(types))
        if len(parts) != len(types) + 1 or parts[0] != head:
            fail(i, f"expected a '{head}' line with {len(types)} fields")
        try:
            return [t(v) for t, v in zip(types, parts[1:])]
        except ValueError:
            fail(i, f"malformed '{head}' line")

    [base] = parse(1, "base_score", float)
    [lr] = parse(2, "learning_rate", float)
    [n_feat] = parse(3, "n_features", int)
    names = [""] * n_feat
    i = 4
    while i < len(lines) and lines[i].startswith("feature "):
        idx, name = parse(i, "feature", int, str)
        if not 0 <= idx < n_feat:
            fail(i, f"feature index {idx} outside 0..{n_feat - 1}")
        names[idx] = name
        i += 1
    trees, first_lines = [], []
    while i < len(lines):
        _, count = parse(i, "tree", int, int)
        nodes = []
        for j in range(i + 1, i + 1 + count):
            _, *fields = parse(j, "node", int, int, float, int, int, float, float)
            nodes.append(TreeNode(*fields))
            if nodes[-1].feature >= n_feat:
                fail(j, f"feature index {nodes[-1].feature} outside 0..{n_feat - 1}")
        trees.append(nodes)
        first_lines.append(i + 1)
        i += 1 + count
    # trees are saved in preorder, so a split's children follow it in its tree
    for nodes, first in zip(trees, first_lines):
        for k, nd in enumerate(nodes):
            if nd.feature >= 0 and not (k < nd.left < len(nodes) and k < nd.right < len(nodes)):
                fail(first + k, f"children {nd.left}, {nd.right} of node {k} not within "
                                f"{k + 1}..{len(nodes) - 1}")
    return GbtModel(trees, base, names, _gain_by_feature(trees, names),
                    GbtConfig(learning_rate=lr))
