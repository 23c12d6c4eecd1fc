"""Logistic regression with full Wald inference.

Newton/IRLS fitting, standard errors from the inverse observed information,
two-sided normal p-values, 95% confidence intervals, McFadden pseudo-R2,
univariate screening, and iterative VIF-based collinearity resolution with
a keep/drop preference ledger.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import Separation, SingularHessian

Z95 = 1.959964
# Newton stops once every score component is below this
SCORE_TOL = 1e-8

# collinear pairs resolved by preference: (kept, dropped)
VIF_PREFERENCES = (
    ("pt", "inr"),
    ("hemoglobin", "hematocrit"),
    ("mbp", "dbp"),
)
VIF_WARN, VIF_DROP = 5.0, 10.0  # a VIF above which a column is warned about, dropped
SCREEN_ALPHA = 0.05  # univariate significance level


def sigmoid(eta):
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -700, 700)))


def bernoulli_loglik(y, eta):
    # sum of y*eta - log(1 + exp(eta)), stable for large |eta|
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def null_loglik(y):
    n = len(y)
    ybar = float(np.mean(y))
    if ybar <= 0.0 or ybar >= 1.0:
        return 0.0
    return n * (ybar * math.log(ybar) + (1.0 - ybar) * math.log(1.0 - ybar))


def _erfc_vec(z):
    return np.array([math.erfc(v) for v in np.atleast_1d(z)])


def wald_p(z):
    """Two-sided normal tail probability."""
    return _erfc_vec(np.abs(z) / math.sqrt(2.0))


@dataclass
class GlmFit:
    names: list
    coef: np.ndarray
    se: np.ndarray
    z: np.ndarray
    p: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    loglik: float
    loglik_null: float
    pseudo_r2: float
    n: int
    converged: bool
    separated: bool = False

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        return sigmoid(self.coef[0] + X @ self.coef[1:])


def _design(X):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return np.hstack([np.ones((X.shape[0], 1)), X])


def fit_logistic(X, y, *, names=None, max_iter=100, raise_on_separation=True):
    """Newton/IRLS fit of P(y=1) = sigmoid(b0 + X b).

    Iterates until the score max-norm drops below ``SCORE_TOL``. Standard errors
    come from the inverse observed information at the solution. Perfect
    separation raises ``Separation`` carrying the non-converged fit (or
    returns it when ``raise_on_separation`` is false). A singular Hessian is
    retried once with a tiny ridge jitter before giving up.
    """
    y = np.asarray(y, dtype=float)
    Z = _design(X)
    n, q = Z.shape
    if names is None:
        names = [f"x{j}" for j in range(q - 1)]
    names = ["intercept"] + list(names)

    beta = np.zeros(q)
    converged = False
    separated = False
    jittered = False
    ll = bernoulli_loglik(y, Z @ beta)
    for _ in range(max_iter):
        eta = Z @ beta
        p = sigmoid(eta)
        score = Z.T @ (y - p)
        if np.max(np.abs(score)) < SCORE_TOL:
            converged = True
            break
        if np.all(np.abs(y - p) < 1e-7):
            separated = True
            break
        w = np.clip(p * (1.0 - p), 1e-12, None)
        H = (Z * w[:, None]).T @ Z
        try:
            step = np.linalg.solve(H, score)
        except np.linalg.LinAlgError:
            if jittered:
                raise SingularHessian("Hessian singular after ridge jitter")
            jittered = True
            H = H + 1e-8 * np.eye(q)
            try:
                step = np.linalg.solve(H, score)
            except np.linalg.LinAlgError:
                raise SingularHessian("Hessian singular after ridge jitter") from None
        # halve the step until the likelihood stops degrading
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            ll_new = bernoulli_loglik(y, Z @ cand)
            if ll_new >= ll - 1e-12:
                break
            scale *= 0.5
        beta = beta + scale * step
        ll = bernoulli_loglik(y, Z @ beta)

    eta = Z @ beta
    p = sigmoid(eta)
    if not separated and np.all(np.abs(y - p) < 1e-7):
        separated = True
    w = np.clip(p * (1.0 - p), 1e-12, None)
    H = (Z * w[:, None]).T @ Z
    try:
        cov = np.linalg.inv(H)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(H)
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        zstat = np.where(se > 0, beta / se, np.inf * np.sign(beta + 1e-300))
    pvals = wald_p(zstat)
    ll = bernoulli_loglik(y, eta)
    ll0 = null_loglik(y)
    if q == 1 or ll0 >= 0.0:
        pr2 = 0.0
    else:
        pr2 = max(0.0, 1.0 - ll / ll0)
    fit = GlmFit(names, beta, se, zstat, pvals,
                 beta - Z95 * se, beta + Z95 * se,
                 ll, ll0, pr2, n, converged and not separated, separated)
    if separated and raise_on_separation:
        raise Separation("perfectly separated outcome", fit=fit)
    return fit


@dataclass
class ScreenRow:
    name: str
    coef: float
    p: float
    significant: bool
    note: str = ""


def univariate_screen(fm, y):
    """Single-predictor logistic fit per column; significance at p < SCREEN_ALPHA."""
    rows = []
    for j, name in enumerate(fm.names):
        try:
            fit = fit_logistic(fm.X[:, j], y, names=[name])
            rows.append(ScreenRow(name, float(fit.coef[1]), float(fit.p[1]),
                                  bool(fit.p[1] < SCREEN_ALPHA)))
        except Separation as exc:
            rows.append(ScreenRow(name, float(exc.fit.coef[1]), float("nan"),
                                  False, "separation"))
        except SingularHessian:
            rows.append(ScreenRow(name, float("nan"), float("nan"), False,
                                  "singular"))
    return rows


@dataclass
class VifReport:
    vifs: dict  # every input column: final VIF if kept, VIF at the drop if dropped
    drop_sequence: list  # (dropped, kept_instead, reason, vif_at_drop)
    kept: list
    warned: list


def _vif_values(X):
    n, p = X.shape
    out = np.empty(p)
    for j in range(p):
        xj = X[:, j]
        sst = float(np.sum((xj - xj.mean()) ** 2))
        if sst < 1e-12:
            out[j] = np.inf
            continue
        others = np.delete(X, j, axis=1)
        Z = np.hstack([np.ones((n, 1)), others])
        coef, _, _, _ = np.linalg.lstsq(Z, xj, rcond=None)
        resid = xj - Z @ coef
        r2 = 1.0 - float(resid @ resid) / sst
        r2 = min(r2, 1.0 - 1e-15)
        out[j] = 1.0 / (1.0 - r2)
    return out


def vif(fm):
    """Iterative collinearity resolution by variance inflation factor.

    While any VIF exceeds ``VIF_DROP``: drop the non-preferred member of a
    ``VIF_PREFERENCES`` pair when one is implicated, otherwise the max-VIF
    column. Constant columns report VIF = inf and drop first. Kept columns
    above ``VIF_WARN`` are warned about.
    """
    names = list(fm.names)
    X = fm.X.copy()
    drops = []
    at_drop = {}
    while True:
        if len(names) < 2:
            vals = {n: 1.0 for n in names}
            break
        v = _vif_values(X)
        vals = dict(zip(names, v))
        over = [n for n in names if vals[n] > VIF_DROP or not np.isfinite(vals[n])]
        if not over:
            break
        drop_name, kept_instead, reason = None, "", ""
        const = [n for n in over if not np.isfinite(vals[n]) and
                 np.sum((fm.col(n) - fm.col(n).mean()) ** 2) < 1e-12]
        if const:
            drop_name, reason = const[0], "constant column"
        else:
            for kept, dropped in VIF_PREFERENCES:
                if kept in names and dropped in names and vals[dropped] > VIF_DROP:
                    drop_name, kept_instead, reason = dropped, kept, f"preferred {kept}"
                    break
            if drop_name is None:
                j = int(np.argmax(np.where(np.isfinite(v), v, np.inf)))
                drop_name, reason = names[j], "max VIF"
        drops.append((drop_name, kept_instead, reason, float(vals[drop_name])))
        at_drop[drop_name] = vals[drop_name]
        j = names.index(drop_name)
        names.pop(j)
        X = np.delete(X, j, axis=1)
    warned = [n for n in names if vals[n] > VIF_WARN]
    if warned:
        warnings.warn(f"VIF above {VIF_WARN} for: {', '.join(warned)}")
    vals.update(at_drop)
    return VifReport({n: vals[n] for n in fm.names}, drops, names, warned)


def consolidate_features(lasso_set, gbt_set):
    """Ordered union: lasso order first, then unseen gbt names."""
    out = list(lasso_set)
    seen = set(out)
    for name in gbt_set:
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out
