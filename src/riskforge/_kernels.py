"""Hot numeric inner loops, in numpy.

Two kernels dominate pipeline runtime: the L1-penalized logistic solver
(``fista``, used by cross-validation for all folds at once and, through
``lasso_cd``, by every single fit) and the split search of the boosted
trees (``split_scan``): one call per tree node, on (rows x features)
matrices of values, gradients and hessians, each column sorted by value.
"""

import math

import numpy as np

from .glm import sigmoid

TOL = 1e-7

# perfbench/ binds this constant and the functions warmup, lasso_cd and
# split_scan by name, and its tracer swaps the last two by object identity;
# keep these four names until tracing moves into the library. Its split
# counters read one call per node and axis 0 of ``vals`` as the node's rows.
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

    The running columns are kept as contiguous copies (coefficients,
    momentum points and weights, row weights, steps and thresholds),
    compacted only when a column stops, when its coefficients are written
    back to ``W``. Soft-thresholding is ``x - clip(x, -t, t)``, equal bit
    for bit to ``sign(x) * max(|x| - t, 0)`` for finite x; a NaN stays NaN.

    Returns (live, iterations): ``live[f]`` marks a column still running
    at ``max_iter``.
    """
    # Va is kept column-major, the layout a column gather gives: BLAS rounds
    # Z @ Va differently in the two layouts, and this one matches the
    # gathering reference in tests/test_kernels.py bit for bit
    a = np.arange(W.shape[1])
    Wa, Va, theta = W[:, a], W[:, a], np.ones(W.shape[1])
    wa, sa, thr = weight, step, step * lam
    for it in range(1, max_iter + 1):
        grad = Z.T @ (wa * (sigmoid(Z @ Va) - y[:, None]))
        Wn = Va - sa * grad
        body = Wn[1:]
        body -= np.clip(body, -thr, thr)
        D = Wn - Wa
        # restart momentum when the step opposes the last move
        restart = np.einsum("ij,ij->j", Va - Wn, D) > 0.0
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta ** 2))
        momentum = np.where(restart, 0.0, (theta - 1.0) / theta_next)
        theta = np.where(restart, 1.0, theta_next)
        Wa, Va = Wn, np.add(Wn, momentum * D, order="F")
        done = (np.abs(D).max(axis=0) < TOL) | (np.abs(Wn).max(axis=0) > coef_cap)
        if done.any():
            W[:, a] = Wa
            run = ~done
            a, Wa, Va, theta = a[run], Wa[:, run], Va[:, run], theta[run]
            wa, sa, thr = wa[:, run], sa[run], thr[run]
            if not a.size:
                break
    W[:, a] = Wa
    live = np.zeros(W.shape[1], dtype=bool)
    live[a] = True
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


def split_scan(vals, g, h, reg_lambda, gamma):
    """Best split of one tree node, over all of its features at once.

    Column j of ``vals`` (rows x features) holds the node's values of
    feature j ascending, missing values (NaN) last in row order; ``g``/``h``
    hold the same rows' gradients/hessians in the same order, and are
    overwritten by running sums. Missing values go left. Returns (feature,
    gain, threshold) of the first feature of largest gain above 0 at its
    first boundary of that gain, or the leaf fields (-1, 0.0, 0.0). A
    feature with a NaN gain is never chosen.
    """
    m, p = vals.shape
    if m < 2:
        return -1, 0.0, 0.0
    cols = np.arange(p)
    n_nan = np.isnan(vals).sum(axis=0)
    # a forced-left base is np.sum over a contiguous block of just the
    # missing rows; zeros in place of live rows would change its rounding
    for c in np.unique(n_nan[n_nan > 0]):
        f = n_nan == c
        base = [np.ascontiguousarray(a[m - c:, f].T).sum(axis=1) for a in (g, h)]
        g[0, f] += base[0]
        h[0, f] += base[1]
    # running sums from the forced-left base on: this accumulation order
    # fixes the rounding of every left sum, and the model bytes depend on it
    gl = np.cumsum(g, axis=0, out=g)
    hl = np.cumsum(h, axis=0, out=h)
    gt = gl[m - n_nan - 1, cols]
    ht = hl[m - n_nan - 1, cols]
    gl, hl = gl[:-1], hl[:-1]
    # term by term, to keep few node-sized temporaries alive
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = gt * gt / (ht + reg_lambda)
        gains = gl * gl / (hl + reg_lambda)
        right = gt - gl
        right *= right
        right /= ht - hl + reg_lambda
        gains = 0.5 * (gains + right - parent) - gamma
    # a boundary lies between two distinct values; comparisons with the
    # missing tail are false, so sums past a feature's live rows never count
    gains[~(vals[1:] > vals[:-1])] = -np.inf
    at = np.argmax(gains, axis=0)           # lands on a NaN gain, if any
    best = np.fmax(gains[at, cols], 0.0)    # which fmax turns into 0
    if not best.any():
        return -1, 0.0, 0.0
    j = int(np.argmax(best))
    return j, float(best[j]), float(0.5 * (vals[at[j], j] + vals[at[j] + 1, j]))
