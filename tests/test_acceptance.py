"""Acceptance gate: every criterion runs at its stated tolerance and budget
and reports one PASS/FAIL line in the terminal summary."""

import csv
import os
import shutil
import time
from contextlib import contextmanager

import numpy as np
import pytest

import conftest
from riskforge import pipeline
from riskforge.config import RunConfig
from riskforge.design import FeatureMatrix, standardize
from riskforge.glm import fit_logistic, sigmoid, vif
from riskforge.impute import MiceConfig, mice_impute, rubin_pool
from riskforge.lasso import fit_lasso, lambda_max
from riskforge.scoring import News2Input, decision_curve, news2_score, roc
from riskforge.synth import SynthConfig, simulate
from riskforge.text import fit_reduced_basis

from synth_frames import features_frame


@contextmanager
def criterion(tag, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        conftest.ACCEPTANCE_RESULTS.append(
            f"{tag}: FAIL ({type(exc).__name__})")
        raise
    elapsed = time.perf_counter() - t0
    if budget_s is not None and elapsed >= budget_s:
        conftest.ACCEPTANCE_RESULTS.append(
            f"{tag}: FAIL (runtime {elapsed:.1f}s over {budget_s}s budget)")
        pytest.fail(f"{tag} exceeded runtime budget: {elapsed:.1f}s >= {budget_s}s")
    conftest.ACCEPTANCE_RESULTS.append(f"{tag}: PASS ({elapsed:.2f}s)")


def mann_whitney_auc(scores, y):
    pos = scores[y == 1]
    neg = scores[y == 0]
    wins = np.sum(pos[:, None] > neg[None, :])
    ties = np.sum(pos[:, None] == neg[None, :])
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_c01_auc_matches_pairwise_oracle():
    with criterion("C1 auc-oracle-equivalence", budget_s=5.0):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(10, 201))
            scores = np.round(rng.standard_normal(n), 2)
            y = (rng.uniform(size=n) < rng.uniform(0.2, 0.8)).astype(float)
            if y.min() == y.max():
                y[0] = 1.0 - y[0]
            assert abs(roc(scores, y).auc - mann_whitney_auc(scores, y)) < 1e-12


def test_c02_lasso_kkt_boundary_and_null_path():
    with criterion("C2 lasso-kkt-null-path", budget_s=10.0):
        rng = np.random.default_rng(102)
        n, p = 500, 10
        X = rng.standard_normal((n, p))
        X = (X - X.mean(0)) / X.std(0)
        beta = np.array([1.0, -0.8, 0.6, 0.0, 0.0, 0.4, 0.0, -0.3, 0.0, 0.2])
        y = (rng.uniform(size=n) < sigmoid(X @ beta)).astype(float)

        lmax = lambda_max(X, y)
        for lam in (lmax, 1.3 * lmax, 5.0 * lmax):
            _, b = fit_lasso(X, y, lam)
            assert np.all(b == 0.0)

        b0, b = fit_lasso(X, y, 0.0)
        irls = fit_logistic(X, y)
        assert np.max(np.abs(np.r_[b0, b] - irls.coef)) < 1e-4


def test_c03_rubin_pooling_exactness():
    with criterion("C3 rubin-pooling-exactness"):
        from riskforge.glm import GlmFit

        def fit(c, s):
            return GlmFit(["b"], np.array([c]), np.array([s]), None, None,
                          None, None, -1.0, -2.0, 0.1, 10, True)

        pooled = rubin_pool([fit(1.0, 0.5), fit(3.0, 0.5)])
        assert abs(pooled.beta_mi[0] - 2.0) < 1e-12
        assert abs(pooled.within_var[0] - 0.25) < 1e-12
        assert abs(pooled.between_var[0] - 2.0) < 1e-12
        assert abs(pooled.total_var[0] - 3.25) < 1e-12


SIGNALS = {
    "lactate_mean": 0.8, "hr_mean": 0.45, "bt_mean": -0.5, "spo2_mean": -0.4,
    "bun_mean": 0.35, "wbc_mean": 0.3, "ph_mean": -0.35, "hemoglobin_mean": -0.3,
}


def test_c04_pooled_coefficient_recovery():
    with criterion("C4 mice-coefficient-recovery", budget_s=120.0):
        names = sorted(SIGNALS)
        bases = [n[: -len("_mean")] for n in names]
        total, hits = 0, 0
        for seed in range(20):
            cfg = SynthConfig(
                n_patients=5000, true_beta=dict(SIGNALS),
                text_signal_strength=0.0,
                missing_rates={b: 0.10 for b in bases}, emb_dim=4,
                seed=400 + seed,
                note_coverage={"discharge": 0.0, "radiology": 0.0})
            sim = simulate(cfg)
            frame = features_frame(sim).select(names + ["in_hospital_death"])
            completed = mice_impute(
                frame, MiceConfig(m=5, max_iter=10, seed=seed),
                names + ["in_hospital_death"])
            fits = []
            for comp in completed:
                X = np.column_stack([comp.values(n) for n in names])
                fm = standardize(FeatureMatrix(X, names))
                fits.append(fit_logistic(fm.X, sim.y, names=names))
            pooled = rubin_pool(fits)
            for j, name in enumerate(names):
                total += 1
                if abs(pooled.beta_mi[j + 1] - SIGNALS[name]) <= 3 * pooled.se[j + 1]:
                    hits += 1
        assert total == 160
        assert hits / total >= 0.95, f"coverage {hits}/{total}"


def test_c05_vif_preference_ledger():
    with criterion("C5 vif-preference-ledger"):
        rng = np.random.default_rng(105)
        n = 400
        pt = rng.standard_normal(n)
        hgb = rng.standard_normal(n)
        mbp = rng.standard_normal(n)
        age = rng.standard_normal(n)
        X = np.column_stack([pt, pt.copy(), hgb, hgb.copy(), mbp, mbp.copy(), age])
        names = ["pt", "inr", "hemoglobin", "hematocrit", "mbp", "dbp", "age"]
        fm = FeatureMatrix(X, names)

        from riskforge.glm import _vif_values
        initial = _vif_values(X)
        for j in range(6):
            assert not np.isfinite(initial[j]) or initial[j] > 1e10

        report = vif(fm)
        dropped = {d[0] for d in report.drop_sequence}
        assert dropped == {"inr", "hematocrit", "dbp"}
        assert set(report.kept) == {"pt", "hemoglobin", "mbp", "age"}
        for d in report.drop_sequence:
            assert d[1] in ("pt", "hemoglobin", "mbp")


def _run_pipeline(signal, seed, root):
    cfg = RunConfig(data_dir=os.path.join(root, "data"),
                    out_dir=os.path.join(root, "out"),
                    synth_n=900, synth_emb_dim=32, synth_text_signal=signal,
                    lasso_grid=30, lasso_folds=10, mice_m=3, gbt_n_trees=60,
                    seed=seed)
    for stage in pipeline.STAGES:
        pipeline.run_stage(stage, cfg)
    with open(os.path.join(cfg.out_dir, "metrics.csv"), newline="") as fh:
        return {r["model"]: float(r["auc"]) for r in csv.DictReader(fh)}


def test_c06_multimodal_gain_mirrors_central_claim(tmp_path):
    with criterion("C6 multimodal-auc-gain", budget_s=180.0):
        with_text = _run_pipeline(1.8, 23, str(tmp_path / "on"))
        gain_on = with_text["multimodal_combined"] - with_text["structured_combined"]
        assert gain_on >= 0.05, f"gain with signal: {gain_on:.3f}"

        no_text = _run_pipeline(0.0, 23, str(tmp_path / "off"))
        gain_off = no_text["multimodal_combined"] - no_text["structured_combined"]
        assert gain_off <= 0.02, f"gain without signal: {gain_off:.3f}"


def test_c07_decision_curve_identities():
    with criterion("C7 dca-identities"):
        rng = np.random.default_rng(107)
        y = (rng.uniform(size=500) < 0.42).astype(float)
        probs = np.clip(0.42 + 0.4 * (y - 0.42) + 0.2 * rng.standard_normal(500),
                        0.001, 0.999)
        d = decision_curve(probs, y)
        assert np.all(d.nb_treat_none == 0.0)

        pi = y.mean()
        idx = int(np.argmin(np.abs(d.thresholds - pi)))
        # treat-all crosses zero at t = prevalence; at the nearest grid point
        # the residual is bounded by the local slope times the grid step
        slope = (1 - pi) / (1 - d.thresholds[idx]) ** 2
        assert abs(d.nb_treat_all[idx]) <= slope * 0.01 + 1e-12

        n = len(y)
        for i, t in enumerate(d.thresholds):
            pred = probs >= t
            tp = float(np.sum(pred & (y == 1)))
            fp = float(np.sum(pred & (y == 0)))
            assert d.net_benefit[i] == tp / n - fp / n * (t / (1.0 - t))


def test_c08_reduced_basis_variance_contract():
    with criterion("C8 svd-pca-variance-contract"):
        rng = np.random.default_rng(108)
        for trial in range(8):
            n = int(rng.integers(10, 60))
            d = int(rng.integers(3, 40))
            rank = int(rng.integers(2, min(n, d) + 1))
            M = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
            M += 0.01 * rng.standard_normal((n, d))
            for kind, target in (("svd", 0.80), ("pca", 0.90)):
                basis = fit_reduced_basis(M, kind, target)
                Mc = M - M.mean(0) if kind == "pca" else M
                s = np.linalg.svd(Mc, compute_uv=False)
                ratios = s ** 2 / (s ** 2).sum()
                oracle = int(np.searchsorted(np.cumsum(ratios), target - 1e-12) + 1)
                assert basis.retained == oracle
                cum = basis.explained_ratio.sum()
                assert cum >= target - 1e-9
                assert cum - basis.explained_ratio[-1] < target


# hand-derived from the embedded chart: (rr, spo2, sbp, hr, bt_c, gcs) -> total
NEWS2_GOLDEN = [
    ((16, 98, 120, 70, 36.8, 15), 0),
    ((8, 98, 120, 70, 36.8, 15), 3),
    ((9, 98, 120, 70, 36.8, 15), 1),
    ((11, 98, 120, 70, 36.8, 15), 1),
    ((12, 98, 120, 70, 36.8, 15), 0),
    ((20, 98, 120, 70, 36.8, 15), 0),
    ((21, 98, 120, 70, 36.8, 15), 2),
    ((24, 98, 120, 70, 36.8, 15), 2),
    ((25, 98, 120, 70, 36.8, 15), 3),
    ((16, 91, 120, 70, 36.8, 15), 3),
    ((16, 92, 120, 70, 36.8, 15), 2),
    ((16, 93, 120, 70, 36.8, 15), 2),
    ((16, 94, 120, 70, 36.8, 15), 1),
    ((16, 95, 120, 70, 36.8, 15), 1),
    ((16, 96, 120, 70, 36.8, 15), 0),
    ((16, 98, 90, 70, 36.8, 15), 3),
    ((16, 98, 91, 70, 36.8, 15), 2),
    ((16, 98, 101, 70, 36.8, 15), 1),
    ((16, 98, 219, 70, 36.8, 15), 0),
    ((16, 98, 220, 70, 36.8, 15), 3),
    ((16, 98, 120, 40, 36.8, 15), 3),
    ((16, 98, 120, 41, 36.8, 15), 1),
    ((16, 98, 120, 91, 36.8, 15), 1),
    ((16, 98, 120, 111, 36.8, 15), 2),
    ((16, 98, 120, 131, 36.8, 15), 3),
    ((16, 98, 120, 70, 35.0, 15), 3),
    ((16, 98, 120, 70, 36.0, 15), 1),
    ((16, 98, 120, 70, 39.1, 15), 2),
    ((16, 98, 120, 70, 36.8, 14), 3),
    ((8, 91, 90, 40, 35.0, 3), 18),
]


def test_c09_news2_chart_conformance():
    with criterion("C9 news2-golden-table"):
        assert len(NEWS2_GOLDEN) == 30
        for inputs, expected in NEWS2_GOLDEN:
            got = news2_score(News2Input(*inputs))
            assert got == expected, f"{inputs}: got {got}, expected {expected}"
            assert 0 <= got <= 18
        assert news2_score(News2Input(16, 98, 120, 70, 36.8, 15)) == 0


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            p = os.path.join(dirpath, name)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


def test_c10_pipeline_reruns_byte_identical(tmp_path):
    with criterion("C10 pipeline-determinism", budget_s=300.0):
        trees = []
        for tag in ("a", "b"):
            root = tmp_path / tag
            cfg = RunConfig(data_dir=str(root / "data"),
                            out_dir=str(root / "out"),
                            synth_n=300, synth_emb_dim=16,
                            synth_text_signal=1.5, lasso_grid=25,
                            lasso_folds=5, mice_m=2, gbt_n_trees=30, seed=11)
            for stage in pipeline.STAGES:
                pipeline.run_stage(stage, cfg)
            trees.append(_tree_bytes(root))
        a, b = trees
        assert set(a) == set(b)
        mismatched = [k for k in a if a[k] != b[k]]
        assert mismatched == [], f"byte differences in: {mismatched}"
        shutil.rmtree(tmp_path / "a", ignore_errors=True)
        shutil.rmtree(tmp_path / "b", ignore_errors=True)
