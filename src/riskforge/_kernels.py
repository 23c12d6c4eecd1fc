"""Hot numeric inner loops, in numpy.

Two kernels dominate pipeline runtime: the L1-penalized logistic solver
(``fista``, used by cross-validation for all folds at once and, through
``lasso_cd``, by every single fit) and the sorted split-gain scan of the
boosted trees (``split_scan``).
"""

import math

import numpy as np

from .glm import sigmoid

TOL = 1e-7

# perfbench/ binds this constant and the functions warmup, lasso_cd and
# split_scan by name, and its tracer swaps the last two by object identity;
# keep these four names until tracing moves into the library.
USING_NUMBA = False


def warmup():
    """Nothing to compile; kept for callers that warm the kernels up."""


def fista(Z, y, weight, step, lam, W, max_iter, coef_cap):
    """Advance every column of ``W`` in place to its L1 solution at ``lam``.

    Column ``f`` minimizes sum_i weight[i, f] * logistic loss(y_i, Z_i W_f)
    + lam * sum_{j>0} |W_jf| by accelerated proximal gradient (FISTA) with
    gradient-based adaptive restart, stepping by ``step[f]``; row 0 (the
    intercept) is unpenalized. A column stops when its largest change
    falls below ``TOL`` or any |coefficient| exceeds ``coef_cap``.

    Returns (live, iterations): ``live[f]`` marks a column still running
    at ``max_iter``.
    """
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
        # restart momentum when the step opposes the last move
        restart = np.einsum("ij,ij->j", Va - Wn, D) > 0.0
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta[a] ** 2))
        momentum = np.where(restart, 0.0, (theta[a] - 1.0) / theta_next)
        theta[a] = np.where(restart, 1.0, theta_next)
        W[:, a] = Wn
        V[:, a] = Wn + momentum * D
        done = (np.abs(D).max(axis=0) < TOL) | (np.abs(Wn).max(axis=0) > coef_cap)
        live[a[done]] = False
        if not live.any():
            break
    return live, it


def lasso_cd(X, y, lam, beta0, beta, max_iter):
    """One L1-penalized logistic fit on all rows with equal weights 1/n.

    Minimizes (1/n)*sum logistic loss + lam*sum|beta_j| with ``fista`` as
    a single column, stepping by 1/L with L = ||[1 X]||^2 / (4n), a
    Lipschitz bound of the mean-loss gradient, and no coefficient cap.
    Starts from ``beta0``/``beta``; ``beta`` is updated in place. Returns
    (intercept, iterations, converged); a start that is already optimal
    returns at once with 0 iterations.
    """
    n = X.shape[0]
    # the start is already optimal when soft-thresholding keeps every
    # coefficient at zero and the intercept would move by less than TOL
    # (the step is at most 4): return before paying for the spectral norm
    resid = np.full(n, 1.0 / n) * (sigmoid(beta0) - y)
    if not beta.any() and np.all(np.abs(X.T @ resid) <= lam) \
            and 4.0 * abs(resid.sum()) < TOL:
        return float(beta0), 0, True
    Z = np.hstack([np.ones((n, 1)), X])
    W = np.concatenate(([beta0], beta))[:, None]
    step = np.array([4.0 * n / np.linalg.norm(Z, 2) ** 2])
    live, it = fista(Z, y, np.full((n, 1), 1.0 / n), step, lam, W, max_iter, math.inf)
    beta[:] = W[1:, 0]
    return float(W[0, 0]), it, not live[0]


def split_scan(vals, g, h, g_left_base, h_left_base, reg_lambda, gamma):
    """Best split over one sorted feature column of a tree node.

    ``vals`` ascending, no NaNs; ``g``/``h`` aligned gradient/hessian sums.
    ``g_left_base``/``h_left_base`` carry rows force-routed left (missing
    values). Returns (best_gain, best_threshold); gain of -inf when no
    candidate boundary exists.
    """
    m = vals.shape[0]
    if m < 2:
        return -np.inf, np.nan
    # prepend the forced-left base: this accumulation order fixes the
    # rounding of every left sum, and the saved model bytes depend on it
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
