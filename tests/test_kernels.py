import math

import numpy as np
import pytest

from riskforge import _kernels as K
from riskforge.glm import sigmoid


def problem(seed, n=200, p=8):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    X = (X - X.mean(0)) / X.std(0)
    beta = rng.standard_normal(p) * (rng.uniform(size=p) < 0.5)
    y = (rng.uniform(size=n) < 1 / (1 + np.exp(-(X @ beta)))).astype(float)
    return X, y


def brute_gains(vals, g, h, g_left_base, h_left_base, reg_lambda, gamma):
    """(gain, threshold) at each boundary of one sorted column without NaNs,
    from explicit sums on each side."""
    m = len(vals)
    gt = g_left_base + sum(g)
    ht = h_left_base + sum(h)
    parent = gt * gt / (ht + reg_lambda)
    out = []
    for i in range(m - 1):
        if vals[i] == vals[i + 1]:
            continue
        gl = g_left_base + sum(g[:i + 1])
        hl = h_left_base + sum(h[:i + 1])
        gr = sum(g[i + 1:])
        hr = sum(h[i + 1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = 0.5 * (gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda)
                          - parent) - gamma
        out.append((float(gain), 0.5 * (vals[i] + vals[i + 1])))
    return out


def brute_choice(columns, reg_lambda, gamma):
    """(feature, gain, threshold) over (vals, g, h, g_missing, h_missing)
    columns: the first boundary of largest gain above 0, with the missing
    rows' sums as forced-left base; a column with a NaN gain is never
    chosen."""
    best = (-1, 0.0, 0.0)
    for j, (vals, g, h, g_miss, h_miss) in enumerate(columns):
        gains = brute_gains(vals, g, h, np.sum(g_miss), np.sum(h_miss), reg_lambda, gamma)
        if any(math.isnan(gain) for gain, _ in gains):
            continue
        for gain, thr in gains:
            if gain > best[1]:
                best = (j, gain, thr)
    return best


def stack_columns(columns):
    """Kernel input: each column's live rows, then its missing rows as NaN."""
    vals = np.column_stack([np.concatenate((c[0], np.full(len(c[3]), np.nan))) for c in columns])
    g = np.column_stack([np.concatenate((c[1], c[3])) for c in columns])
    h = np.column_stack([np.concatenate((c[2], c[4])) for c in columns])
    return vals, g, h


def random_column(rng, m, live):
    # rounding to one decimal makes runs of tied values
    vals = np.sort(np.round(rng.standard_normal(live), 1))
    g = rng.standard_normal(m)
    h = np.abs(rng.standard_normal(m)) * 0.2 + 0.01
    return vals, g[:live], h[:live], g[live:], h[live:]


def assert_choice(got, want):
    if want[0] < 0:
        assert got == (-1, 0.0, 0.0)
    else:
        assert got[0] == want[0]
        assert abs(got[1] - want[1]) <= 1e-12
        assert abs(got[2] - want[2]) <= 1e-12


class TestSplitScan:
    def test_matches_brute_force_with_ties_and_forced_left_base(self):
        rng = np.random.default_rng(9)
        for trial in range(40):
            live = int(rng.integers(2, 80))
            # one column at a time, most of them with missing rows
            col = random_column(rng, live + int(rng.choice([0, 1, 3, 20])), live)
            gamma = 0.0 if trial % 2 else 0.05
            got = K.split_scan(*stack_columns([col]), 1.0, gamma)
            assert_choice(got, brute_choice([col], 1.0, gamma))

    def test_all_features_in_one_pass(self):
        rng = np.random.default_rng(10)
        for trial in range(30):
            m = int(rng.integers(2, 60))
            cols = [random_column(rng, m, int(rng.integers(0, m + 1)))
                    for _ in range(int(rng.integers(1, 8)))]
            gamma = 0.0 if trial % 2 else 0.05
            got = K.split_scan(*stack_columns(cols), 1.0, gamma)
            assert_choice(got, brute_choice(cols, 1.0, gamma))

    def test_feature_with_a_nan_gain_is_never_chosen(self):
        # with reg_lambda 0, rows of h = 0 on the left give 0/0 at the first
        # boundary; the feature's other boundaries gain more than feature 1's
        vals, none = np.array([1.0, 2.0, 3.0, 4.0]), np.array([])
        nan_col = (vals, np.array([0.0, 0.9, -0.9, -0.9]), np.array([0.0, 0.2, 0.2, 0.2]), none, none)
        fine_col = (vals, np.array([0.1, 0.1, -0.1, -0.1]), np.full(4, 0.2), none, none)
        nan_gains = brute_gains(*nan_col[:3], 0.0, 0.0, 0.0, 0.0)
        assert math.isnan(nan_gains[0][0])
        assert max(gain for gain, _ in nan_gains[1:]) > \
            max(gain for gain, _ in brute_gains(*fine_col[:3], 0.0, 0.0, 0.0, 0.0))
        got = K.split_scan(*stack_columns([nan_col, fine_col]), 0.0, 0.0)
        assert got[0] == 1
        assert_choice(got, brute_choice([nan_col, fine_col], 0.0, 0.0))

    def test_no_boundary(self):
        vals = np.array([2.0, 2.0, 2.0])
        g = np.array([0.1, -0.2, 0.4])
        h = np.array([0.1, 0.1, 0.1])
        # constant, constant above a missing row, one value above two
        cols = [(vals[:k], g[:k], h[:k], g[k:], h[k:]) for k in (3, 2, 1)]
        assert K.split_scan(*stack_columns(cols), 1.0, 0.0) == (-1, 0.0, 0.0)
        for vals_k, g_k, h_k, g_miss, h_miss in cols:
            assert brute_gains(vals_k, g_k, h_k, np.sum(g_miss), np.sum(h_miss), 1.0, 0.0) == []

    def test_single_row(self):
        feat, gain, thr = K.split_scan(np.array([[1.0]]), np.array([[0.5]]),
                                       np.array([[0.2]]), 1.0, 0.0)
        assert (feat, gain, thr) == (-1, 0.0, 0.0)


def test_lasso_cd_meets_kkt_conditions():
    X, y = problem(3)
    b = np.zeros(X.shape[1])
    b0, iters, conv = K.lasso_cd(X, y, 0.05, 0.0, b, 50000)
    assert conv and 1 <= iters < 50000
    p = 1 / (1 + np.exp(-(b0 + X @ b)))
    assert abs(np.mean(p - y)) < 1e-6
    grad = X.T @ (p - y) / len(y)
    nz = b != 0
    assert np.all(np.abs(grad[~nz]) <= 0.05 + 1e-6)
    if nz.any():
        assert np.max(np.abs(grad[nz] + 0.05 * np.sign(b[nz]))) < 1e-6



def test_lasso_cd_returns_at_once_from_an_optimal_start():
    from riskforge.lasso import fit_lasso, lambda_max

    X, y = problem(4)
    logit = math.log(y.mean() / (1.0 - y.mean()))
    lam = 1.5 * lambda_max(X, y)
    beta = np.zeros(X.shape[1])
    b0, iters, conv = K.lasso_cd(X, y, lam, logit, beta, 50000)
    assert iters == 0 and conv
    assert np.all(beta == 0.0)
    assert abs(b0 - logit) < K.TOL
    b0, beta = fit_lasso(X, y, lam)
    assert np.all(beta == 0.0) and abs(b0 - logit) < K.TOL
    # just below lambda_max the start is not optimal and the solver runs
    beta = np.zeros(X.shape[1])
    _, iters, conv = K.lasso_cd(X, y, 0.9 * lambda_max(X, y), logit, beta, 50000)
    assert iters > 0 and conv and beta.any()


def reference_fista(Z, y, weight, step, lam, W, max_iter, coef_cap):
    """``K.fista`` with every running column gathered from and scattered to
    the full arrays on each iteration, soft-thresholding as
    sign(x) * max(|x| - t, 0)."""
    V = W.copy()
    theta = np.ones(W.shape[1])
    live = np.ones(W.shape[1], dtype=bool)
    for it in range(1, max_iter + 1):
        a = np.flatnonzero(live)
        Va = V[:, a]
        grad = Z.T @ (weight[:, a] * (sigmoid(Z @ Va) - y[:, None]))
        Wn = Va - step[a] * grad
        shrink = np.abs(Wn[1:]) - step[a] * lam
        Wn[1:] = np.where(shrink > 0.0, np.sign(Wn[1:]) * shrink, 0.0)
        D = Wn - W[:, a]
        restart = np.einsum("ij,ij->j", Va - Wn, D) > 0.0
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta[a] ** 2))
        momentum = np.where(restart, 0.0, (theta[a] - 1.0) / theta_next)
        theta[a] = np.where(restart, 1.0, theta_next)
        W[:, a] = Wn
        V[:, a] = Wn + momentum * D
        done = (np.abs(D).max(axis=0) < K.TOL) | (np.abs(Wn).max(axis=0) > coef_cap)
        live[a[done]] = False
        if not live.any():
            break
    return live, it


def fold_problem(seed, n=150, p=12, folds=5):
    X, y = problem(seed, n, p)
    Z = np.hstack([np.ones((n, 1)), X])
    assign = np.random.default_rng(seed).integers(0, folds, size=n)
    train = assign[:, None] != np.arange(folds)[None, :]
    weight = train / train.sum(axis=0)
    step = np.array([4.0 * train[:, f].sum() / np.linalg.norm(Z[train[:, f]], 2) ** 2
                     for f in range(folds)])
    return Z, y, weight, step


@pytest.mark.parametrize("seed", range(4))
def test_fista_equals_reference_bit_for_bit(seed):
    # folds stop at different iterations, by tolerance or by the coefficient
    # cap, or run to the iteration cap
    Z, y, weight, step = fold_problem(seed)
    lmax = np.abs(Z[:, 1:].T @ (y - y.mean())).max() / len(y)
    for lam, max_iter, cap in ((0.2 * lmax, 5000, 30.0), (0.05 * lmax, 60, 30.0),
                               (0.01 * lmax, 3000, 1.5)):
        W0 = np.zeros((Z.shape[1], weight.shape[1]))
        W0[0] = np.linspace(-0.2, 0.2, weight.shape[1])
        want_W, got_W = W0.copy(), W0.copy()
        want = reference_fista(Z, y, weight, step, lam, want_W, max_iter, cap)
        got = K.fista(Z, y, weight, step, lam, got_W, max_iter, cap)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        assert np.array_equal(got_W.view(np.int64), want_W.view(np.int64))


def test_fista_leaves_a_nan_coefficient_nan():
    # the reference's soft-threshold turned a NaN into 0.0; a NaN now stays,
    # so a NaN in the design cannot pass for an empty model
    Z, y, weight, step = fold_problem(0)
    Z[3, 2] = np.nan
    W = np.zeros((Z.shape[1], weight.shape[1]))
    live, it = K.fista(Z, y, weight, step, 0.01, W, 20, 30.0)
    assert np.isnan(W).all()
    assert live.all() and it == 20
