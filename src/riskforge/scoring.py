"""NEWS2 baseline scoring and the model evaluation suite.

The NEWS2 chart is embedded as data (six parameters, 0-3 points each; the
air/oxygen sub-score is out of scope, so totals span 0-18). Evaluation
covers ROC/AUC via threshold sweep with simultaneous tie steps,
equal-frequency calibration bins, decision-curve analysis with
standardized net benefit, and confusion-matrix metrics at a threshold.
"""

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, SingleClass, TooFewRows

THRESHOLD = 0.5  # threshold_metrics predicts the positive class at prob >= THRESHOLD


@dataclass(frozen=True)
class News2Input:
    rr: float          # breaths/min
    spo2: float        # %
    sbp: float         # mmHg
    hr: float          # bpm
    bt: float          # Celsius
    gcs_total: float   # 3..15


# (upper_bound_inclusive, points) rows per parameter; the last band is open.
NEWS2_BANDS = {
    "rr": ((8, 3), (11, 1), (20, 0), (24, 2), (None, 3)),
    "spo2": ((91, 3), (93, 2), (95, 1), (None, 0)),
    "sbp": ((90, 3), (100, 2), (110, 1), (219, 0), (None, 3)),
    "hr": ((40, 3), (50, 1), (90, 0), (110, 1), (130, 2), (None, 3)),
    "bt": ((35.0, 3), (36.0, 1), (38.0, 0), (39.0, 1), (None, 2)),
}

# accepted input range per parameter; a value outside it (or not finite)
# raises OutOfRange
NEWS2_RANGES = {
    "rr": (1.0, 100.0),
    "spo2": (1.0, 100.0),
    "sbp": (10.0, 400.0),
    "hr": (10.0, 400.0),
    "bt": (20.0, 45.0),
    "gcs_total": (3.0, 15.0),
}


def _band_points(param, value):
    for upper, points in NEWS2_BANDS[param]:
        if upper is None or value <= upper:
            return points
    raise AssertionError("unreachable")


def news2_score(inp):
    """Total NEWS2 score (0-18) from the embedded threshold chart.

    Consciousness is proxied from the coma scale: a full score of 15 earns
    0 points, anything below 15 earns 3.
    """
    values = {
        "rr": inp.rr, "spo2": inp.spo2, "sbp": inp.sbp,
        "hr": inp.hr, "bt": inp.bt, "gcs_total": inp.gcs_total,
    }
    for param, v in values.items():
        lo, hi = NEWS2_RANGES[param]
        if not (lo <= v <= hi) or not np.isfinite(v):
            raise OutOfRange(f"{param}={v} outside [{lo}, {hi}]")
    total = sum(_band_points(p, values[p]) for p in NEWS2_BANDS)
    total += 0 if inp.gcs_total >= 15.0 else 3
    return int(total)


def news2_scores(rr, spo2, sbp, hr, bt, gcs_total):
    """``news2_score`` over aligned arrays, one whole column at a time.

    Each parameter's points come from one ``searchsorted`` over its band
    uppers. The first row holding an out-of-range value raises OutOfRange
    for its first such parameter, as the row-by-row score would.
    """
    cols = dict(zip(NEWS2_RANGES, (np.asarray(a, dtype=float)
                                   for a in (rr, spo2, sbp, hr, bt, gcs_total))))
    bad = np.array([~((v >= NEWS2_RANGES[p][0]) & (v <= NEWS2_RANGES[p][1]))
                    for p, v in cols.items()])
    if bad.any():
        row = int(np.flatnonzero(bad.any(axis=0))[0])
        param = list(cols)[int(np.argmax(bad[:, row]))]
        lo, hi = NEWS2_RANGES[param]
        raise OutOfRange(f"{param}={cols[param][row]} outside [{lo}, {hi}]")
    total = np.where(cols["gcs_total"] >= 15.0, 0, 3)
    for param, bands in NEWS2_BANDS.items():
        uppers = np.array([upper for upper, _ in bands[:-1]], dtype=float)
        points = np.array([pts for _, pts in bands])
        total += points[np.searchsorted(uppers, cols[param], side="left")]
    return total


@dataclass
class RocCurve:
    thresholds: np.ndarray
    tpr: np.ndarray
    fpr: np.ndarray
    auc: float


def roc(scores, y):
    """Threshold sweep over unique scores; ties step simultaneously."""
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(y, dtype=float)
    n_pos = float((y == 1).sum())
    n_neg = float((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("both outcome classes are required")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    yy = y[order]
    distinct = np.flatnonzero(np.diff(s) != 0)
    ends = np.concatenate([distinct, [len(s) - 1]])
    tp = np.cumsum(yy)[ends]
    fp = np.cumsum(1.0 - yy)[ends]
    tpr = np.concatenate([[0.0], tp / n_pos])
    fpr = np.concatenate([[0.0], fp / n_neg])
    thresholds = np.concatenate([[np.inf], s[ends]])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(thresholds, tpr, fpr, auc)


@dataclass
class CalibrationBins:
    edges: np.ndarray       # (bins, 2) min/max predicted prob per bin
    mean_prob: np.ndarray
    event_rate: np.ndarray
    counts: np.ndarray


def calibration(probs, y, bins=10):
    """Equal-frequency bins (sizes differ by at most one)."""
    probs = np.asarray(probs, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(probs) < bins:
        raise TooFewRows(f"{len(probs)} rows < {bins} bins")
    order = np.argsort(probs, kind="stable")
    chunks = np.array_split(order, bins)
    edges = np.array([[probs[c].min(), probs[c].max()] for c in chunks])
    mean_prob = np.array([probs[c].mean() for c in chunks])
    event_rate = np.array([y[c].mean() for c in chunks])
    counts = np.array([len(c) for c in chunks])
    return CalibrationBins(edges, mean_prob, event_rate, counts)


@dataclass
class DcaCurve:
    thresholds: np.ndarray
    net_benefit: np.ndarray
    nb_treat_all: np.ndarray
    nb_treat_none: np.ndarray
    standardized_net_benefit: np.ndarray
    snb_treat_all: np.ndarray
    prevalence: float


def default_dca_grid(step=0.01):
    return np.round(np.arange(step, 1.0 - step / 2, step), 10)


def decision_curve(probs, y, grid=None):
    """Net benefit per threshold: TP/n - FP/n * t/(1-t), classified at p >= t."""
    probs = np.asarray(probs, dtype=float)
    y = np.asarray(y, dtype=float)
    if grid is None:
        grid = default_dca_grid()
    grid = np.asarray(grid, dtype=float)
    n = float(len(y))
    prev = float(y.mean())
    nb = np.empty(len(grid))
    for i, t in enumerate(grid):
        pred = probs >= t
        tp = float((pred & (y == 1)).sum())
        fp = float((pred & (y == 0)).sum())
        nb[i] = tp / n - fp / n * (t / (1.0 - t))
    nb_all = prev - (1.0 - prev) * grid / (1.0 - grid)
    nb_none = np.zeros(len(grid))
    if prev > 0:
        snb = nb / prev
        snb_all = nb_all / prev
    else:
        snb = np.zeros(len(grid))
        snb_all = np.zeros(len(grid))
    return DcaCurve(grid, nb, nb_all, nb_none, snb, snb_all, prev)


def threshold_metrics(probs, y):
    """Accuracy, positive-class F1, and positive-class recall at prob >= THRESHOLD."""
    probs = np.asarray(probs, dtype=float)
    y = np.asarray(y, dtype=float)
    pred = probs >= THRESHOLD
    tp = float((pred & (y == 1)).sum())
    fp = float((pred & (y == 0)).sum())
    fn = float((~pred & (y == 1)).sum())
    tn = float((~pred & (y == 0)).sum())
    n = tp + fp + fn + tn
    accuracy = (tp + tn) / n if n else 0.0
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return {"accuracy": accuracy, "f1_pos": f1, "recall_pos": recall}
