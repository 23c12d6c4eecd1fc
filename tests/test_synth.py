import os

import numpy as np
import pytest

from riskforge.errors import InfeasiblePrevalence
from riskforge.glm import fit_logistic, univariate_screen
from riskforge.design import FeatureMatrix, standardize
from riskforge.scoring import roc
from riskforge.synth import (DEFAULT_TRUE_BETA, SynthConfig, features_frame,
                             generate, simulate)


def small_cfg(**kw):
    base = dict(n_patients=300, emb_dim=24, seed=5)
    base.update(kw)
    return SynthConfig(**base)


class TestSimulate:
    def test_prevalence_within_two_points(self):
        sim = simulate(SynthConfig(n_patients=2500, emb_dim=8, seed=1))
        assert abs(sim.y.mean() - 0.52) < 0.02

    def test_bayes_auc_upper_bounds_fitted_model(self):
        sim = simulate(SynthConfig(n_patients=1500, emb_dim=8, seed=2,
                                   missing_rates={}))
        frame = features_frame(sim)
        names = sorted(DEFAULT_TRUE_BETA)
        X = np.column_stack([frame.values(n) for n in names])
        fm = standardize(FeatureMatrix(X, names))
        fit = fit_logistic(fm.X, sim.y, raise_on_separation=False)
        fitted_auc = roc(fit.predict(fm.X), sim.y).auc
        assert sim.truth["bayes_auc"] >= fitted_auc - 0.01

    def test_zero_beta_gives_chance_auc_and_intercept_prevalence(self):
        cfg = SynthConfig(n_patients=3000, emb_dim=8, seed=3, true_beta={},
                          text_signal_strength=0.0, prevalence=0.4)
        sim = simulate(cfg)
        # eta is constant: prevalence equals sigmoid(intercept)
        expect = 1.0 / (1.0 + np.exp(-sim.truth["intercept"]))
        assert expect == pytest.approx(0.4, abs=1e-6)
        assert abs(sim.y.mean() - 0.4) < 0.03
        rng = np.random.default_rng(0)
        fake_scores = rng.standard_normal(len(sim.y))
        assert abs(roc(fake_scores, sim.y).auc - 0.5) < 0.04

    def test_sign_recovery_for_strong_signals(self):
        sim = simulate(SynthConfig(n_patients=6000, emb_dim=8, seed=4,
                                   missing_rates={}, text_signal_strength=0.0))
        frame = features_frame(sim)
        strong = {k: v for k, v in DEFAULT_TRUE_BETA.items() if abs(v) >= 0.3}
        X = np.column_stack([frame.values(n) for n in sorted(strong)])
        fm = standardize(FeatureMatrix(X, sorted(strong)))
        rows = univariate_screen(fm, sim.y)
        for row in rows:
            assert np.sign(row.coef) == np.sign(strong[row.name]), row.name
            assert row.significant

    def test_infeasible_prevalence_rejected(self):
        with pytest.raises(InfeasiblePrevalence):
            SynthConfig(n_patients=100, prevalence=1.0)

    def test_masking_rates_close_to_configured(self):
        cfg = SynthConfig(n_patients=4000, emb_dim=8, seed=6)
        sim = simulate(cfg)
        assert abs(sim.masked["lactate"].mean() - 0.19) < 0.03
        assert abs(sim.masked["bt"].mean() - 0.133) < 0.03


class TestGenerate:
    def test_all_tables_written(self, tmp_path):
        generate(small_cfg(), tmp_path)
        for name in ("patients", "diagnoses_icd", "icustays", "admissions",
                     "chartevents", "labevents", "procedureevents",
                     "inputevents", "discharge", "radiology", "discharge_emb",
                     "radiology_emb", "ground_truth"):
            assert (tmp_path / f"{name}.csv").exists(), name

    def test_bitwise_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        generate(small_cfg(), a)
        generate(small_cfg(), b)
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_note_coverage_tracks_config(self, tmp_path):
        cfg = small_cfg(n_patients=1200)
        sim = generate(cfg, tmp_path)
        assert abs(sim.note_present["discharge"].mean() - 0.70) < 0.05
        assert abs(sim.note_present["radiology"].mean() - 0.71) < 0.05

    def test_treatment_flag_rate_matches(self, tmp_path):
        sim = simulate(SynthConfig(n_patients=4000, emb_dim=8, seed=8))
        assert abs(sim.flags["received_ventilation"].mean() - 0.597) < 0.02
