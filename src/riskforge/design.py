"""Standardized design matrices and the train/validation split."""

from dataclasses import dataclass

import numpy as np

from .errors import MissingColumn


@dataclass
class FeatureMatrix:
    """Numeric design matrix with column names."""

    X: np.ndarray
    names: list
    mean: np.ndarray = None
    scale: np.ndarray = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-D")
        if len(self.names) != self.X.shape[1]:
            raise ValueError("names out of step with X")

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]

    def col(self, name):
        try:
            return self.X[:, self.names.index(name)]
        except ValueError:
            raise MissingColumn(name) from None

    def subset(self, names):
        idx = []
        for n in names:
            if n not in self.names:
                raise MissingColumn(n)
            idx.append(self.names.index(n))
        return FeatureMatrix(
            self.X[:, idx],
            [self.names[i] for i in idx],
            None if self.mean is None else self.mean[idx],
            None if self.scale is None else self.scale[idx],
        )

    def rows(self, idx):
        return FeatureMatrix(self.X[np.asarray(idx)], list(self.names), self.mean, self.scale)


def from_frame(frame, columns):
    """Build a FeatureMatrix from numeric frame columns (masked -> NaN)."""
    return FeatureMatrix(frame.matrix(columns), list(columns))


def hstack(a, b):
    if a.n != b.n:
        raise ValueError("row counts differ")
    return FeatureMatrix(np.hstack([a.X, b.X]), a.names + b.names)


def standardize(fm, train_idx=None):
    """Z-score each column using statistics from ``train_idx`` rows only.

    Constant columns get scale 1 so they map to exact zeros. Returns a new
    FeatureMatrix carrying the fitted mean/scale for later reuse.
    """
    rows = np.arange(fm.n) if train_idx is None else np.asarray(train_idx)
    sub = fm.X[rows]
    mean = sub.mean(axis=0) if sub.size else np.zeros(fm.p)
    scale = sub.std(axis=0, ddof=0) if sub.size else np.ones(fm.p)
    scale = np.where(scale < 1e-12, 1.0, scale)
    return FeatureMatrix((fm.X - mean) / scale, list(fm.names), mean, scale)


def apply_standardization(fm, mean, scale):
    return FeatureMatrix((fm.X - mean) / scale, list(fm.names), mean, scale)


def stratified_split(y, train_fraction, seed):
    """Seeded stratified holdout; returns (train_idx, val_idx), both sorted."""
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    train, val = [], []
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(idx.size)]
        cut = int(round(train_fraction * idx.size))
        train.extend(idx[:cut])
        val.extend(idx[cut:])
    return np.array(sorted(train), dtype=int), np.array(sorted(val), dtype=int)
