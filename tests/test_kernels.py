import numpy as np

from riskforge import _kernels as K


def problem(seed, n=200, p=8):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    X = (X - X.mean(0)) / X.std(0)
    beta = rng.standard_normal(p) * (rng.uniform(size=p) < 0.5)
    y = (rng.uniform(size=n) < 1 / (1 + np.exp(-(X @ beta)))).astype(float)
    return X, y


def brute_split(vals, g, h, g_left_base, h_left_base, reg_lambda, gamma):
    """First boundary of maximal gain, from explicit sums on each side."""
    m = len(vals)
    gt = g_left_base + sum(g)
    ht = h_left_base + sum(h)
    parent = gt * gt / (ht + reg_lambda)
    best_gain, best_thr = -np.inf, np.nan
    for i in range(m - 1):
        if vals[i] == vals[i + 1]:
            continue
        gl = g_left_base + sum(g[:i + 1])
        hl = h_left_base + sum(h[:i + 1])
        gr = sum(g[i + 1:])
        hr = sum(h[i + 1:])
        gain = 0.5 * (gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda)
                      - parent) - gamma
        if gain > best_gain:
            best_gain, best_thr = gain, 0.5 * (vals[i] + vals[i + 1])
    return best_gain, best_thr


class TestSplitScan:
    def test_matches_brute_force_with_ties_and_forced_left_base(self):
        rng = np.random.default_rng(9)
        for trial in range(40):
            m = int(rng.integers(2, 80))
            # rounding to one decimal makes runs of tied values
            vals = np.sort(np.round(rng.standard_normal(m), 1))
            g = rng.standard_normal(m)
            h = np.abs(rng.standard_normal(m)) * 0.2 + 0.01
            base = (0.0, 0.0) if trial % 4 == 0 else (
                float(rng.standard_normal()), float(abs(rng.standard_normal())))
            gamma = 0.0 if trial % 2 else 0.05
            args = (vals, g, h, base[0], base[1], 1.0, gamma)
            gain, thr = K.split_scan(*args)
            want_gain, want_thr = brute_split(*args)
            if want_gain == -np.inf:
                assert gain == -np.inf and np.isnan(thr)
                continue
            assert abs(gain - want_gain) <= 1e-12
            assert abs(thr - want_thr) <= 1e-12

    def test_no_boundary(self):
        vals = np.array([2.0, 2.0, 2.0])
        g = np.array([0.1, -0.2, 0.4])
        h = np.array([0.1, 0.1, 0.1])
        for base in ((0.0, 0.0), (0.3, 0.2)):
            gain, thr = K.split_scan(vals, g, h, *base, 1.0, 0.0)
            assert gain == -np.inf and np.isnan(thr)
            assert brute_split(vals, g, h, *base, 1.0, 0.0)[0] == -np.inf

    def test_single_row(self):
        gain, thr = K.split_scan(np.array([1.0]), np.array([0.5]), np.array([0.2]),
                                 0.1, 0.1, 1.0, 0.0)
        assert gain == -np.inf and np.isnan(thr)


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

