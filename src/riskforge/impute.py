"""Tiered missing-data handling.

Low-missingness variables get mean/median fills; the rest go through
chained-equation multiple imputation (ridge-linear conditionals with
stochastic residual noise, m independent seeded chains), and downstream
per-imputation fits are pooled with the usual within/between variance
combination.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import AllMissingColumn, LayoutMismatch, SingularDesignWarning

METHODS = ("mean", "median", "mice", "zero", "none")


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
        method = overrides.get(base, DEFAULT_POLICY_METHODS.get(base))
        if base == "gcs_total" and base not in overrides:
            method = "none"  # recomputed from imputed components
        if method is None:
            method = "median"
        out.append(ImputePolicy(col, method))
    return out


def impute_single(frame, policies):
    """Fill missing cells under mean/median/zero policies; others untouched."""
    out = frame
    for pol in policies:
        if pol.method in ("mice", "none"):
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


def _ridge_sweep(work, mask, targets, penalty, rng):
    """One chained-equation pass over the incomplete columns, in place."""
    n, p = work.shape
    for j in targets:
        obs = ~mask[:, j]
        mis = mask[:, j]
        others = [k for k in range(p) if k != j]
        Z = work[:, others]
        mu = Z[obs].mean(axis=0)
        sd = Z[obs].std(axis=0, ddof=0)
        sd = np.where(sd < 1e-12, 1.0, sd)
        Zs = (Z - mu) / sd
        yj = work[obs, j]
        A = Zs[obs].T @ Zs[obs] + penalty * np.eye(len(others))
        b = Zs[obs].T @ (yj - yj.mean())
        try:
            coef = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            coef = None
        if coef is None or not np.all(np.isfinite(coef)):
            warnings.warn(f"singular chained-equation design for column {j}; mean fill",
                          SingularDesignWarning)
            work[mis, j] = yj.mean()
            continue
        pred_obs = Zs[obs] @ coef + yj.mean()
        resid = yj - pred_obs
        dof = max(1, int(obs.sum()) - 1)
        sigma = float(np.sqrt((resid @ resid) / dof))
        pred_mis = Zs[mis] @ coef + yj.mean()
        work[mis, j] = pred_mis + rng.standard_normal(int(mis.sum())) * sigma


def mice_impute(frame, cfg, columns=None):
    """m completed frames from chained ridge regressions.

    Missing cells start at column means; each sweep regresses every
    incomplete column on all others over its originally-observed rows and
    redraws the missing entries as prediction + Gaussian residual noise.
    Chain k uses seed ``cfg.seed + k``, so results are reproducible and the
    chains are independent. Observed cells are preserved exactly.
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

    init = X.copy()
    col_means = np.array([X[~M[:, j], j].mean() for j in range(X.shape[1])])
    for j in range(X.shape[1]):
        init[M[:, j], j] = col_means[j]

    completed = []
    for k in range(cfg.m):
        rng = np.random.default_rng(cfg.seed + k)
        work = init.copy()
        for _ in range(cfg.max_iter):
            _ridge_sweep(work, M, targets, cfg.ridge_penalty, rng)
        out = frame
        for idx, name in enumerate(columns):
            if idx in targets:
                out = out.with_column(name, "num", work[:, idx])
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
    per_imputation_fits: list = field(default_factory=list)


def rubin_pool(fits, m=None):
    """Pool per-imputation fits: T = V + (1 + 1/m) * B.

    beta_mi is the mean coefficient vector, V the mean squared standard
    error, B the across-imputation sample variance (ddof=1).
    """
    if not fits:
        raise LayoutMismatch("no fits to pool")
    if m is None:
        m = len(fits)
    if m != len(fits):
        raise LayoutMismatch(f"expected {m} fits, got {len(fits)}")
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
    return RubinPooled(names, beta_mi, V, B, T, np.sqrt(T), m, list(fits))
