"""L1-penalized logistic regression and cross-validated penalty selection.

Every fit is solved by one routine, accelerated proximal gradient
(``_kernels.fista``), which gives exact zeros through soft-thresholding
and leaves the intercept unpenalized. Single fits (``fit_lasso``,
``lasso_path`` and the refit behind ``selected_features``) solve one
problem on all rows; cross-validation solves all folds of a penalty at
once (``fold_path``) and reports the held-out binomial deviance curve over
a log-spaced penalty grid with the minimum, 1-SE, and 75th-percentile
selection rules.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DegenerateFold, NonConvergence

MAX_ITER = 100_000
CV_MAX_ITER = 1000
CV_COEF_CAP = 30.0


@dataclass
class LassoPath:
    lambda_grid: np.ndarray
    intercepts: np.ndarray
    coef_path: np.ndarray  # len(grid) x p
    nonzero_counts: np.ndarray


@dataclass
class CvCurve:
    lambda_grid: np.ndarray
    mean_deviance: np.ndarray
    se_deviance: np.ndarray
    lambda_min: float
    lambda_1se: float
    lambda_selected: float
    fold_count: int
    seed: int
    rule: str = "pct75"


def lambda_max(X, y):
    """Smallest penalty at which every non-intercept coefficient is zero.

    Nudged up by a relative 1e-9 so the all-zero solution survives float
    summation-order differences between this reduction and the solver's.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    return float(np.max(np.abs(X.T @ (y - y.mean()))) / n) * (1.0 + 1e-9)


def fit_lasso(X, y, lam, *, beta0=None, beta=None):
    """Solve one penalty level; returns (intercept, coefficients).

    Minimizes (1/n)*sum logistic loss + lam*sum|beta_j|. Warm starts are
    taken from ``beta0``/``beta`` when given. Convergence is declared when
    the largest coefficient change in an iteration falls below
    ``_kernels.TOL``; a solve still running at ``MAX_ITER`` iterations
    raises NonConvergence (tiny penalties can make the optimum diverge
    under separation).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if beta is None:
        beta = np.zeros(X.shape[1])
    else:
        beta = np.asarray(beta, dtype=float).copy()
    if beta0 is None:
        ybar = min(max(y.mean(), 1e-12), 1 - 1e-12)
        beta0 = math.log(ybar / (1.0 - ybar))
    b0, iters, converged = _kernels.lasso_cd(X, y, float(lam), float(beta0), beta, MAX_ITER)
    if not converged:
        raise NonConvergence(f"proximal gradient hit {iters} iterations at lambda={lam}")
    return b0, beta


def default_grid(lmax, size=100, ratio=1e-4):
    return np.exp(np.linspace(math.log(lmax), math.log(lmax * ratio), size))


def lasso_path(X, y, grid):
    """Warm-started fits down a descending penalty grid."""
    grid = np.asarray(grid, dtype=float)
    p = X.shape[1]
    intercepts = np.empty(len(grid))
    coefs = np.empty((len(grid), p))
    b0, b = None, None
    for i, lam in enumerate(grid):
        b0, b = fit_lasso(X, y, lam, beta0=b0, beta=b)
        intercepts[i] = b0
        coefs[i] = b
    nz = (coefs != 0.0).sum(axis=1)
    return LassoPath(grid, intercepts, coefs, nz)


def fold_assignments(y, n_folds, seed, keys=None):
    """Stratified fold ids keyed on row identity.

    Rows are ordered by their key (defaults to position) before the seeded
    shuffle, so permuting input rows permutes fold ids with them and the
    curve is unchanged.
    """
    y = np.asarray(y)
    n = len(y)
    if keys is None:
        keys = np.arange(n)
    keys = list(keys)
    folds = np.empty(n, dtype=int)
    rng = np.random.default_rng(seed)
    for cls in (0, 1):
        idx = [i for i in range(n) if y[i] == cls]
        idx.sort(key=lambda i: _key_rank(keys[i]))
        idx = np.asarray(idx, dtype=int)
        idx = idx[rng.permutation(idx.size)]
        for pos, row in enumerate(idx):
            folds[row] = pos % n_folds
    return folds


def _key_rank(key):
    if isinstance(key, (int, np.integer, float, np.floating)):
        return (0, float(key), "")
    return (1, 0.0, str(key))


def binomial_deviance(y, eta):
    """-2 * mean Bernoulli log-likelihood."""
    y = np.asarray(y, dtype=float)
    ll = y * eta - np.logaddexp(0.0, eta)
    return float(-2.0 * ll.mean())


def cv_deviance(X, y, *, grid_size=100, n_folds=10, seed=0, keys=None,
                rule="pct75"):
    """Per-penalty held-out deviance curve with fold means and SEs.

    All folds are solved together at each penalty by ``fold_path``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if keys is not None:
        # solve in key order so that every sum, the grid's included, is
        # accumulated in the same order whatever the input row order
        order = sorted(range(len(y)), key=lambda i: _key_rank(keys[i]))
        X, y, keys = X[order], y[order], [keys[i] for i in order]
    lmax = lambda_max(X, y)
    if lmax <= 0:
        raise DegenerateFold("outcome is constant; no usable penalty grid")
    grid = default_grid(lmax, grid_size)
    folds = fold_assignments(y, n_folds, seed, keys)
    for f in range(n_folds):
        val = folds == f
        train = ~val
        if y[train].min() == y[train].max() or y[val].min() == y[val].max():
            raise DegenerateFold(f"fold {f} has a single outcome class")
    dev = np.empty((n_folds, len(grid)))
    for i, (W, _) in enumerate(fold_path(X, y, grid, folds)):
        eta = W[0] + X @ W[1:]
        for f in range(n_folds):
            val = folds == f
            dev[f, i] = binomial_deviance(y[val], eta[val, f])
    mean = dev.mean(axis=0)
    se = dev.std(axis=0, ddof=1) / math.sqrt(n_folds)
    i_min = int(np.argmin(mean))
    lam_min = float(grid[i_min])
    within = mean <= mean[i_min] + se[i_min]
    lam_1se = float(grid[np.flatnonzero(within)[0]])  # grid descends: first hit is max
    curve = CvCurve(grid, mean, se, lam_min, lam_1se, 0.0, n_folds, seed, rule)
    curve.lambda_selected = select_lambda(curve, rule)
    return curve


def fold_path(X, y, grid, folds):
    """Solve every fold's training problem down a descending penalty grid.

    Fold ``f`` fits the rows with ``folds != f``. All folds are solved
    together by accelerated proximal gradient (FISTA) with gradient-based
    adaptive restart: the coefficients are the columns of a (p+1) x F
    matrix ``W`` (intercepts in row 0, unpenalized), so one iteration is
    one ``Z @ W`` and one ``Z.T @ R`` over the design with an intercept
    column. Each fold steps by 1/L_f with L_f = ||Z_f||^2 / (4 n_f), a
    Lipschitz bound of its mean-loss gradient. Each penalty is warm-started
    from the previous one. A fold stops when its largest coefficient change
    falls below ``_kernels.TOL``, or when any |coefficient| exceeds
    ``CV_COEF_CAP`` (past the point where the optimum diverges under
    separation no finite solution exists), or at ``CV_MAX_ITER``.

    Yields ``(W, capped)`` per penalty, where ``capped[f]`` marks a fold
    stopped by the iteration cap rather than by either rule above.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    folds = np.asarray(folds)
    n, p = X.shape
    n_folds = int(folds.max()) + 1
    Z = np.hstack([np.ones((n, 1)), X])
    train = folds[:, None] != np.arange(n_folds)[None, :]
    n_train = train.sum(axis=0)
    weight = train / n_train  # row weights of each fold's mean loss
    step = np.array([4.0 * n_train[f] / np.linalg.norm(Z[train[:, f]], 2) ** 2
                     for f in range(n_folds)])
    ybar = np.clip((weight * y[:, None]).sum(axis=0), 1e-12, 1 - 1e-12)
    W = np.zeros((p + 1, n_folds))
    W[0] = np.log(ybar / (1.0 - ybar))
    for lam in grid:
        capped, _ = _kernels.fista(Z, y, weight, step, float(lam), W, CV_MAX_ITER, CV_COEF_CAP)
        yield W.copy(), capped


def select_lambda(curve, rule):
    """min, 1se, or the 75th percentile of the log-lambda 1-SE interval."""
    if rule == "min":
        return curve.lambda_min
    if rule == "1se":
        return curve.lambda_1se
    if rule == "pct75":
        lo, hi = math.log(curve.lambda_min), math.log(curve.lambda_1se)
        return float(math.exp(lo + 0.75 * (hi - lo)))
    raise ValueError(f"unknown selection rule {rule!r}")


def selected_features(X, y, lam, names):
    """Refit on all rows at the chosen penalty; exactly-nonzero names."""
    _, beta = fit_lasso(np.asarray(X, dtype=float), np.asarray(y, dtype=float), lam)
    return [names[j] for j in range(len(names)) if beta[j] != 0.0]

