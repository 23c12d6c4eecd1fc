"""Tiered missing-data handling.

Low-missingness variables get mean/median fills; the rest go through
chained-equation multiple imputation (ridge-linear conditionals with
stochastic residual noise, m independent seeded chains), and downstream
per-imputation fits are pooled with the usual within/between variance
combination.

The chains are solved together. Each keeps the cross-products and column
sums of its completed matrix, so one conditional regression reads only the
target's missing rows: its observed-row moments are the full ones less
those rows'. The imputations agree with regressing each column on a
standardised copy of all the others, up to rounding.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AllMissingColumn, LayoutMismatch, SingularDesignWarning

METHODS = ("mean", "median", "mice", "zero")


@dataclass(frozen=True)
class ImputePolicy:
    variable: str
    method: str

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown imputation method {self.method!r}")


@dataclass
class MiceConfig:
    m: int = 5
    max_iter: int = 10
    seed: int = 0
    ridge_penalty: float = 1e-3

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.ridge_penalty <= 0:
            raise ValueError("ridge_penalty must be > 0")


# Default policy routing for the harmonized panel: high-missingness,
# skew-prone measurements go to the chained-equation tier; near-complete
# symmetric ones take the cheap single fill.
DEFAULT_POLICY_METHODS = {
    "bt": "mice", "lactate": "mice", "ph": "mice", "pt": "mice", "inr": "mice",
    "hr": "mean", "dbp": "mean", "sodium": "mean", "bicarbonate": "mean",
    "gcs_eye": "mean", "gcs_verbal": "mean", "gcs_motor": "mean",
    "sbp": "median", "mbp": "median", "rr": "median", "spo2": "median",
    "creatinine": "median", "glucose": "median",
    "hematocrit": "median", "hemoglobin": "median", "platelet": "median",
    "wbc": "median", "bun": "median", "potassium": "median",
    "calcium": "median", "chloride": "median", "anion_gap": "median",
    # left to the chained equations, which do not fill it: run_impute
    # recomputes it from the imputed components
    "gcs_total": "mice",
}


def default_policies(columns, overrides=None):
    """Expand the per-variable method table over aggregated column names.

    ``overrides`` maps base variable names to methods and wins over the
    built-in table.
    """
    overrides = dict(overrides or {})
    out = []
    for col in columns:
        base = col
        for suffix in ("_mean", "_min", "_max"):
            if col.endswith(suffix):
                base = col[: -len(suffix)]
                break
        method = overrides.get(base, DEFAULT_POLICY_METHODS.get(base, "median"))
        out.append(ImputePolicy(col, method))
    return out


def impute_single(frame, policies):
    """Fill missing cells under mean/median/zero policies; mice ones untouched."""
    out = frame
    for pol in policies:
        if pol.method == "mice":
            continue
        vals = out.values(pol.variable)
        missing = np.isnan(vals)
        if not missing.any():
            continue
        obs = vals[~missing]
        if pol.method == "zero":
            fill = 0.0
        else:
            if obs.size == 0:
                raise AllMissingColumn(pol.variable)
            fill = float(obs.mean()) if pol.method == "mean" else float(np.median(obs))
        vals[missing] = fill
        out = out.with_column(pol.variable, out.kind(pol.variable), vals)
    return out


def missingness_report(frame, columns=None):
    """[(variable, missing_count, missing_pct)] in frame column order."""
    cols = columns if columns is not None else [
        n for n in frame.names if frame.kind(n) in ("num", "int")
    ]
    n = frame.n_rows
    out = []
    for name in cols:
        m = int(frame.mask(name).sum())
        out.append((name, m, 100.0 * m / n if n else 0.0))
    return out


def _solve_chains(A, b):
    """Each chain's ridge coefficients; NaN for a chain whose system is singular."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        coef = np.full(b.shape, np.nan)
        for k in range(len(b)):
            try:
                coef[k] = np.linalg.solve(A[k], b[k])
            except np.linalg.LinAlgError:
                pass
        return coef


def _redraw_column(W, gram, sums, j, rows, scale, penalty, rngs):
    """Regress column j of every chain on the others over its observed rows
    and redraw its missing ``rows`` in place, then refresh column j of each
    chain's cross-products ``gram`` (WᵀW) and column ``sums``.

    The ridge system on the standardised design is built from the centred
    observed-row moments, and its residual sum of squares comes from the
    normal equations.
    """
    m, n, p = W.shape
    n_obs = n - len(rows)
    Wm = W[:, rows]
    S = sums - Wm.sum(axis=1)
    mu = S / n_obs
    C = Wm.transpose(0, 2, 1) @ Wm
    np.subtract(gram, C, out=C)
    C -= S[:, :, None] * mu[:, None, :]
    ss = np.diagonal(C, axis1=1, axis2=2)
    sd = np.sqrt(np.maximum(ss, 0.0) / n_obs)
    # A column constant over these rows drops out of the design: its moment
    # sum of squares is then cancellation error, below ~n*eps of its full
    # one. So does a spread under 1e-12, or one whose sum of squares
    # overflows, as their standardised columns are all zero.
    with np.errstate(over="ignore"):
        keep = ((ss > 4 * n * np.finfo(float).eps * np.diagonal(gram, axis1=1, axis2=2))
                & (scale * sd >= 1e-12) & np.isfinite((scale * sd) ** 2 * n_obs))
    inv = np.zeros_like(sd)
    inv[keep] = 1.0 / sd[keep]
    inv[:, j] = 0.0
    A = inv[:, :, None] * inv[:, None, :]
    A *= C
    A.reshape(m, -1)[:, ::p + 1] += penalty
    b = C[:, :, j] * inv
    coef = _solve_chains(A, b)
    rss = C[:, j, j] - (coef * b).sum(axis=1) - penalty * (coef * coef).sum(axis=1)
    sigma = np.sqrt(np.maximum(rss, 0.0) / max(1, n_obs - 1))
    beta = coef * inv
    pred = (Wm @ beta[:, :, None])[:, :, 0] + (mu[:, j] - (mu * beta).sum(axis=1))[:, None]
    for k, rng in enumerate(rngs):
        if np.all(np.isfinite(coef[k])):
            pred[k] += rng.standard_normal(len(rows)) * sigma[k]
        else:
            warnings.warn(f"singular chained-equation design for column {j}; mean fill",
                          SingularDesignWarning)
            pred[k] = 0.0
    W[:, rows, j] = pred
    sums[:, j] = W[:, :, j].sum(axis=1)
    gram[:, :, j] = gram[:, j, :] = (W.transpose(0, 2, 1) @ W[:, :, j, None])[:, :, 0]


def mice_impute(frame, cfg, columns=None):
    """m completed frames from chained ridge regressions.

    Missing cells start at column means; each sweep regresses every
    incomplete column on all others over its originally-observed rows and
    redraws the missing entries as prediction + Gaussian residual noise.
    Chain k uses seed ``cfg.seed + k``, so results are reproducible and the
    chains are independent. Observed cells are preserved exactly.

    The m chains are solved together on an (m, rows, columns) array,
    centred by the observed column means and scaled by the largest
    observed deviation. Each chain keeps its cross-products and column
    sums, so a regression costs the target's missing rows, not a copy of
    the whole design; the draws equal those of a per-column regression on
    the copied, standardised design up to rounding. A chain whose system
    is singular mean-fills that column and warns.

    Each completed frame replaces the columns it fills through
    ``with_column``, so the m frames share every other column's array.
    """
    if columns is None:
        columns = [n for n in frame.names if frame.kind(n) == "num"]
    if len(columns) < 2:
        raise ValueError("chained imputation needs >= 2 numeric columns")
    X = frame.matrix(columns)
    M = np.isnan(X)

    targets = [j for j in range(X.shape[1]) if M[:, j].any()]
    for j in targets:
        if M[:, j].all():
            raise AllMissingColumn(columns[j])

    if not targets:
        return [frame for _ in range(cfg.m)]

    col_means = np.array([X[~M[:, j], j].mean() for j in range(X.shape[1])])
    dev = np.where(M, 0.0, X - col_means)
    scale = np.abs(dev).max(axis=0)
    scale[scale == 0.0] = 1.0
    W = np.repeat((dev / scale)[None], cfg.m, axis=0)
    gram = W.transpose(0, 2, 1) @ W
    sums = W.sum(axis=1)
    rows = [np.flatnonzero(M[:, j]) for j in targets]
    rngs = [np.random.default_rng(cfg.seed + k) for k in range(cfg.m)]
    for _ in range(cfg.max_iter):
        for j, mis in zip(targets, rows):
            _redraw_column(W, gram, sums, j, mis, scale, cfg.ridge_penalty, rngs)

    completed = []
    for k in range(cfg.m):
        out = frame
        for j in targets:
            vals = frame.values(columns[j])
            vals[M[:, j]] = col_means[j] + scale[j] * W[k, M[:, j], j]
            out = out.with_column(columns[j], "num", vals)
        completed.append(out)
    return completed


@dataclass
class RubinPooled:
    names: list
    beta_mi: np.ndarray
    within_var: np.ndarray
    between_var: np.ndarray
    total_var: np.ndarray
    se: np.ndarray
    m: int


def rubin_pool(fits):
    """Pool the fits of m imputations: T = V + (1 + 1/m) * B.

    beta_mi is the mean coefficient vector, V the mean squared standard
    error, B the across-imputation sample variance (ddof=1).
    """
    if not fits:
        raise LayoutMismatch("no fits to pool")
    m = len(fits)
    names = list(fits[0].names)
    for f in fits[1:]:
        if list(f.names) != names or len(f.coef) != len(fits[0].coef):
            raise LayoutMismatch("coefficient layouts differ across imputations")
    betas = np.vstack([np.asarray(f.coef, dtype=float) for f in fits])
    ses = np.vstack([np.asarray(f.se, dtype=float) for f in fits])
    beta_mi = betas.mean(axis=0)
    V = (ses ** 2).mean(axis=0)
    B = betas.var(axis=0, ddof=1)
    T = V + (1.0 + 1.0 / m) * B
    return RubinPooled(names, beta_mi, V, B, T, np.sqrt(T), m)
