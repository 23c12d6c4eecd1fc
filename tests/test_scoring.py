import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskforge.errors import OutOfRange, SingleClass, TooFewRows
from riskforge.scoring import (NEWS2_BANDS, NEWS2_RANGES, News2Input,
                               calibration, decision_curve, default_dca_grid,
                               news2_score, news2_scores, roc, threshold_metrics)


def mann_whitney_auc(scores, y):
    """Brute-force pairwise counting with half credit for ties."""
    pos = scores[y == 1]
    neg = scores[y == 0]
    wins = np.sum(pos[:, None] > neg[None, :])
    ties = np.sum(pos[:, None] == neg[None, :])
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestNews2:
    def test_all_normal_scores_zero(self):
        assert news2_score(News2Input(16, 98, 120, 70, 36.8, 15)) == 0

    def test_high_rr_band_contributes_three(self):
        assert news2_score(News2Input(26, 98, 120, 70, 36.8, 15)) == 3

    def test_reduced_consciousness_contributes_three(self):
        assert news2_score(News2Input(16, 98, 120, 70, 36.8, 14)) == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRange):
            news2_score(News2Input(0, 98, 120, 70, 36.8, 15))
        with pytest.raises(OutOfRange):
            news2_score(News2Input(16, 101, 120, 70, 36.8, 15))
        with pytest.raises(OutOfRange):
            news2_score(News2Input(16, 98, 120, 70, 36.8, 16))

    @settings(max_examples=200, deadline=None)
    @given(rr=st.floats(1, 60), spo2=st.floats(50, 100), sbp=st.floats(40, 260),
           hr=st.floats(20, 220), bt=st.floats(30, 43), gcs=st.floats(3, 15))
    def test_score_range_bounded(self, rr, spo2, sbp, hr, bt, gcs):
        s = news2_score(News2Input(rr, spo2, sbp, hr, bt, gcs))
        assert 0 <= s <= 18


class TestNews2Columns:
    PARAMS = ("rr", "spo2", "sbp", "hr", "bt", "gcs_total")

    def edge_values(self, param):
        """Every band upper, its neighbours and the range ends, inside the range."""
        lo, hi = NEWS2_RANGES[param]
        # the coma scale scores 0 at 15 and 3 below it
        uppers = [u for u, _ in NEWS2_BANDS[param][:-1]] if param in NEWS2_BANDS else [15.0]
        edges = [lo, hi] + [u + d for u in uppers for d in (-1e-9, 0.0, 1e-9, 1.0)]
        return np.array([v for v in edges if lo <= v <= hi])

    def test_random_columns_with_band_edges_match_row_scores(self):
        rng = np.random.default_rng(90)
        n = 600
        cols = []
        for param in self.PARAMS:
            lo, hi = NEWS2_RANGES[param]
            col = rng.uniform(lo, hi, n)
            edges = self.edge_values(param)
            col[:len(edges)] = edges  # every edge appears at least once
            cols.append(col[rng.permutation(n)])
        rows = np.array([news2_score(News2Input(*(c[i] for c in cols))) for i in range(n)])
        got = news2_scores(*cols)
        assert got.dtype.kind == "i"
        assert np.array_equal(got, rows)

    def test_out_of_range_or_non_finite_rejected(self):
        good = [np.full(3, v) for v in (16.0, 98.0, 120.0, 70.0, 36.8, 15.0)]
        for j, param in enumerate(self.PARAMS):
            lo, hi = NEWS2_RANGES[param]
            for bad in (lo - 1e-9, hi + 1e-9, np.nan, np.inf):
                cols = [c.copy() for c in good]
                cols[j][1] = bad
                with pytest.raises(OutOfRange, match=param):
                    news2_scores(*cols)

    def test_empty_columns_score_nothing(self):
        assert news2_scores(*([np.array([])] * 6)).size == 0


class TestRoc:
    def test_perfect_separation_auc_one(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        assert roc(scores, y).auc == pytest.approx(1.0)

    def test_constant_scores_auc_half(self):
        scores = np.zeros(40)
        y = np.array([0.0, 1.0] * 20)
        assert roc(scores, y).auc == pytest.approx(0.5)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(10, 200))
            scores = np.round(rng.standard_normal(n), 1)  # force some ties
            y = (rng.uniform(size=n) < 0.5).astype(float)
            if y.min() == y.max():
                continue
            assert abs(roc(scores, y).auc - mann_whitney_auc(scores, y)) < 1e-12

    def test_curve_monotone(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(100)
        y = (rng.uniform(size=100) < 0.4).astype(float)
        c = roc(scores, y)
        assert np.all(np.diff(c.tpr) >= 0)
        assert np.all(np.diff(c.fpr) >= 0)
        assert c.tpr[-1] == 1.0 and c.fpr[-1] == 1.0

    def test_reversed_labels_complement(self):
        rng = np.random.default_rng(2)
        scores = rng.standard_normal(80)
        y = (rng.uniform(size=80) < 0.5).astype(float)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        assert roc(scores, y).auc == pytest.approx(1.0 - roc(scores, 1 - y).auc,
                                                   abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            roc(np.array([1.0, 2.0]), np.array([1.0, 1.0]))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_auc_invariant_under_monotone_transform(self, data):
        n = data.draw(st.integers(6, 40))
        # rounded scores so the affine/exp maps cannot collapse distinct
        # values into float ties
        scores = np.round(np.array(data.draw(st.lists(
            st.floats(-5, 5), min_size=n, max_size=n))), 3)
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                     dtype=float)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        base = roc(scores, y).auc
        assert roc(3.0 * scores + 7.0, y).auc == pytest.approx(base, abs=1e-12)
        assert roc(np.exp(scores / 2), y).auc == pytest.approx(base, abs=1e-12)


class TestCalibration:
    def test_bernoulli_rates_recovered(self):
        # simulation oracle: events drawn at the stated probabilities
        rng = np.random.default_rng(3)
        probs = rng.uniform(0.05, 0.95, 100_000)
        y = (rng.uniform(size=100_000) < probs).astype(float)
        bins = calibration(probs, y, 10)
        assert np.max(np.abs(bins.mean_prob - bins.event_rate)) < 0.02

    def test_uniform_probs_single_effective_bin(self):
        probs = np.full(100, 0.5)
        y = np.array([0.0, 1.0] * 50)
        bins = calibration(probs, y, 10)
        assert np.allclose(bins.mean_prob, 0.5)
        assert np.sum(bins.counts * bins.event_rate) / 100 == pytest.approx(0.5)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            calibration(np.linspace(0, 1, 9), np.zeros(9), 10)

    def test_bin_sizes_differ_by_at_most_one(self):
        rng = np.random.default_rng(4)
        probs = rng.uniform(size=107)
        y = (rng.uniform(size=107) < probs).astype(float)
        bins = calibration(probs, y, 10)
        assert bins.counts.max() - bins.counts.min() <= 1
        assert np.all((bins.event_rate >= 0) & (bins.event_rate <= 1))


class TestDecisionCurve:
    def test_treat_all_crosses_zero_at_prevalence(self):
        rng = np.random.default_rng(5)
        y = (rng.uniform(size=400) < 0.3).astype(float)
        probs = rng.uniform(size=400)
        d = decision_curve(probs, y)
        pi = y.mean()
        # algebraic zero at t = pi: pi - (1-pi) * pi/(1-pi) = 0
        idx = int(np.argmin(np.abs(d.thresholds - pi)))
        assert abs(d.nb_treat_all[idx]) < 0.02
        assert np.all(d.nb_treat_none == 0.0)

    def test_perfect_classifier_flat_at_prevalence(self):
        y = np.array([0.0] * 60 + [1.0] * 40)
        probs = y.copy()
        d = decision_curve(probs, y, grid=np.array([0.1, 0.5, 0.9]))
        assert np.allclose(d.net_benefit, 0.4, atol=1e-12)
        assert np.allclose(d.standardized_net_benefit, 1.0, atol=1e-12)

    def test_matches_confusion_recount_oracle(self):
        rng = np.random.default_rng(6)
        y = (rng.uniform(size=300) < 0.45).astype(float)
        probs = rng.uniform(size=300)
        d = decision_curve(probs, y)
        n = len(y)
        for i, t in enumerate(d.thresholds):
            pred = probs >= t
            tp = np.sum(pred & (y == 1))
            fp = np.sum(pred & (y == 0))
            expect = tp / n - fp / n * t / (1 - t)
            assert d.net_benefit[i] == pytest.approx(expect, abs=1e-15)

    def test_model_curve_never_beats_prevalence_ceiling(self):
        rng = np.random.default_rng(7)
        y = (rng.uniform(size=500) < 0.5).astype(float)
        probs = np.clip(y * 0.8 + rng.uniform(size=500) * 0.2, 0, 1)
        d = decision_curve(probs, y)
        assert np.all(d.net_benefit <= y.mean() + 1e-12)

    def test_grid_shape(self):
        g = default_dca_grid()
        assert len(g) == 99
        assert g[0] == pytest.approx(0.01) and g[-1] == pytest.approx(0.99)


class TestThresholdMetrics:
    def test_all_correct(self):
        y = np.array([0.0, 1.0, 1.0, 0.0])
        probs = np.array([0.1, 0.9, 0.8, 0.2])
        m = threshold_metrics(probs, y)
        assert m["accuracy"] == 1.0 and m["f1_pos"] == 1.0 and m["recall_pos"] == 1.0

    def test_predict_all_positive_on_52pct_prevalence(self):
        y = np.array([1.0] * 52 + [0.0] * 48)
        probs = np.full(100, 0.99)
        m = threshold_metrics(probs, y)
        assert m["recall_pos"] == 1.0
        assert m["accuracy"] == pytest.approx(0.52)

    def test_metric_keys_match_report_rows(self):
        m = threshold_metrics(np.array([0.6]), np.array([1.0]))
        assert set(m) == {"accuracy", "f1_pos", "recall_pos"}
