import csv
import dataclasses
import os
import pathlib
import shutil

import numpy as np
import pytest

from riskforge.config import RunConfig
from riskforge.frame import read_csv, read_header
from riskforge.pipeline import STAGES, _features_schema, run_stage


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    cfg = RunConfig(data_dir=str(root / "data"), out_dir=str(root / "out"),
                    synth_n=260, synth_emb_dim=16, synth_text_signal=1.5,
                    lasso_grid=25, lasso_folds=5, mice_m=2, gbt_n_trees=25,
                    seed=19)
    for stage in STAGES:
        run_stage(stage, cfg)
    return cfg


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestHarmonizationReport:
    def test_procedure_row_without_a_stay_is_counted(self, tmp_path):
        cfg = RunConfig(data_dir=str(tmp_path / "data"), out_dir=str(tmp_path / "out"),
                        synth_n=120, synth_emb_dim=8, seed=4)
        for stage in ("synth", "cohort", "features"):
            run_stage(stage, cfg)
        report = os.path.join(cfg.out_dir, "harmonization_report.csv")

        def unlinked():
            return {r["name"]: int(r["count"]) for r in read_rows(report)
                    if r["kind"] == "unlinked"}

        before = unlinked()
        assert sorted(before) == ["chartevents", "inputevents", "labevents", "procedureevents"]
        path = os.path.join(cfg.data_dir, "procedureevents.csv")
        cells = {"stay_id": "999999999", "starttime": "2150-01-01 00:00:00", "itemid": "225792"}
        with open(path, "a", newline="") as fh:
            csv.writer(fh).writerow([cells.get(name, "") for name in read_header(path)])
        run_stage("features", cfg)
        assert unlinked() == {**before, "procedureevents": before["procedureevents"] + 1}


class TestArtifacts:
    def test_expected_files_exist(self, small_run):
        out = small_run.out_dir
        expected = [
            "cohort.csv", "structured_features.csv", "harmonization_report.csv",
            "plausibility_table.csv",
            "imputed_1.csv", "imputed_2.csv", "imputation_report.csv",
            "text_features.csv", "text_coverage.csv", "split.csv",
            "cv_curve_structured.csv", "cv_curve_structured.svg",
            "cv_curve_multimodal.csv", "cv_curve_multimodal.svg",
            "lasso_selected_structured.csv", "gbt_importance_structured.csv",
            "gbt_model_structured.txt", "selected_structured.csv",
            "univariate_structured.csv", "vif_structured_combined.csv",
            "model_summary_structured_combined.csv",
            "model_stats_multimodal_lasso.csv",
            "predictions_multimodal_combined.csv",
            "cv_curve.csv", "lasso_selected.csv", "gbt_importance.csv",
            "univariate_report.csv", "vif_report.csv", "model_summary.csv",
            "roc.csv", "calibration.csv", "dca.csv", "metrics.csv",
            "roc.svg", "calibration.svg", "dca.svg",
            "report.csv", "report_metrics.csv",
        ]
        for name in expected:
            assert os.path.exists(os.path.join(out, name)), name

    def test_cohort_unique_subjects_and_adult(self, small_run):
        rows = read_rows(os.path.join(small_run.out_dir, "cohort.csv"))
        subjects = [r["subject_id"] for r in rows]
        assert len(subjects) == len(set(subjects))
        assert all(float(r["anchor_age"]) >= 18 for r in rows)
        assert all(r["in_hospital_death"] in ("0", "1") for r in rows)

    def test_structured_features_panel_complete(self, small_run):
        path = os.path.join(small_run.out_dir, "structured_features.csv")
        frame = read_csv(path, _features_schema(read_header(path)))
        vitals = ["hr", "sbp", "dbp", "mbp", "rr", "bt", "spo2"]
        labs = ["hematocrit", "hemoglobin", "platelet", "wbc", "pt", "inr",
                "creatinine", "bun", "glucose", "potassium", "sodium",
                "calcium", "chloride", "anion_gap", "bicarbonate", "lactate",
                "ph"]
        for base in vitals + labs:
            for stat in ("mean", "min", "max"):
                assert frame.names.count(f"{base}_{stat}") == 1, base
        assert frame.names.count("gcs_total") == 1
        for flag in ("hypertension", "heart_failure", "myocardial_infarction",
                     "diabetes", "copd", "received_ventilation", "epinephrine",
                     "dopamine"):
            assert frame.names.count(flag) == 1
            vals = frame.values(flag)
            assert set(np.unique(vals)) <= {0.0, 1.0}

    def test_plausibility_rules_hold_in_features(self, small_run):
        path = os.path.join(small_run.out_dir, "structured_features.csv")
        frame = read_csv(path, _features_schema(read_header(path)))
        from riskforge.harmonize import DEFAULT_PLAUSIBILITY
        by_var = {r.variable: r for r in DEFAULT_PLAUSIBILITY}
        for base in ("wbc", "glucose", "lactate", "hr"):
            rule = by_var[base]
            for stat in ("mean", "min", "max"):
                vals, mask = frame.values(f"{base}_{stat}"), frame.mask(f"{base}_{stat}")
                live = vals[~mask]
                assert np.all(live >= rule.lower - 1e-9), base
                assert np.all(live <= rule.upper + 1e-9), base

    def test_imputed_frames_complete(self, small_run):
        for k in (1, 2):
            path = os.path.join(small_run.out_dir, f"imputed_{k}.csv")
            frame = read_csv(path, _features_schema(read_header(path)))
            for name in frame.names:
                if frame.kind(name) == "num":
                    assert not frame.mask(name).any(), name

    def test_imputation_report_format(self, small_run):
        rows = read_rows(os.path.join(small_run.out_dir, "imputation_report.csv"))
        assert {"variable", "missing_count", "missing_pct"} <= set(rows[0])
        by_var = {r["variable"]: r for r in rows}
        assert "lactate_mean" in by_var
        assert float(by_var["lactate_mean"]["missing_pct"]) > 5.0

    def test_text_features_block_naming(self, small_run):
        path = os.path.join(small_run.out_dir, "text_features.csv")
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert "has_discharge_note" in header
        assert "has_radiology_note" in header
        assert any(h.startswith("disch_tfidf_svd_") for h in header)
        assert any(h.startswith("radiology_bert_pca_") for h in header)
        joined = ",".join(header)
        assert "disch_tfidf_svd_0," not in joined  # 1-based component names

    def test_model_summary_layout(self, small_run):
        rows = read_rows(os.path.join(
            small_run.out_dir, "model_summary_multimodal_combined.csv"))
        assert rows[0]["variable"] == "intercept"
        for r in rows:
            assert float(r["ci_low"]) <= float(r["coef"]) <= float(r["ci_high"])
            assert 0.0 <= float(r["p_value"]) <= 1.0

    def test_report_pseudo_r2_block_layout(self, small_run):
        rows = read_rows(os.path.join(small_run.out_dir, "report.csv"))
        pairs = {(r["model"], r["feature_source"]) for r in rows}
        assert pairs == {(m, s) for m in ("LASSO", "GBT", "Combined")
                         for s in ("Structured Only", "Structured + Text")}

    def test_report_metrics_rows(self, small_run):
        rows = read_rows(os.path.join(small_run.out_dir, "report_metrics.csv"))
        assert [r["metric"] for r in rows] == \
            ["AUC", "Accuracy", "F1-score (Class 1)", "Recall (Class 1)"]

    def test_univariate_report_tiny_p_display(self, small_run):
        rows = read_rows(os.path.join(small_run.out_dir, "univariate_report.csv"))
        assert {"variable", "coef", "p_value", "p_display"} <= set(rows[0])
        for r in rows:
            if r["p_value"] and float(r["p_value"]) < 1e-4:
                assert r["p_display"] == "<0.0001"

    def test_canonical_aliases_match_variant_files(self, small_run):
        for canon, full in (("cv_curve.csv", "cv_curve_multimodal.csv"),
                            ("model_summary.csv",
                             "model_summary_multimodal_combined.csv"),
                            ("vif_report.csv", "vif_multimodal_combined.csv")):
            out = pathlib.Path(small_run.out_dir)
            assert (out / canon).read_bytes() == (out / full).read_bytes()

    def test_lasso_selected_reports_all_three_lambdas(self, small_run):
        rows = read_rows(os.path.join(small_run.out_dir, "lasso_selected.csv"))
        if rows:
            r = rows[0]
            assert float(r["lambda_min"]) <= float(r["lambda_selected"]) \
                <= float(r["lambda_1se"])

    def test_plausibility_table_exported(self, small_run):
        rows = read_rows(os.path.join(small_run.out_dir, "plausibility_table.csv"))
        by_var = {r["variable"]: r for r in rows}
        assert float(by_var["wbc"]["lower"]) == 1.0
        assert float(by_var["wbc"]["upper"]) == 50.0
        assert float(by_var["glucose"]["upper"]) == 600.0
        assert float(by_var["lactate"]["upper"]) == 20.0

    def test_news2_models_present_in_metrics(self, small_run):
        rows = read_rows(os.path.join(small_run.out_dir, "metrics.csv"))
        names = {r["model"] for r in rows}
        assert {"news2_raw", "news2_logit"} <= names
        assert {"structured_combined", "multimodal_combined"} <= names

    def test_svg_outputs_are_svg(self, small_run):
        for name in ("roc.svg", "dca.svg", "calibration.svg",
                     "cv_curve_structured.svg"):
            text = pathlib.Path(small_run.out_dir, name).read_text(encoding="utf-8")
            assert text.startswith("<svg ")
            assert text.rstrip().endswith("</svg>")

    def test_cv_curve_svg_marks_selected_lambdas(self, small_run):
        text = pathlib.Path(small_run.out_dir, "cv_curve_structured.svg").read_text(
            encoding="utf-8")
        assert "lambda_min" in text and "lambda_1SE" in text
        assert "stroke-dasharray" in text


class TestStageOrdering:
    def test_missing_artifact_error_names_stage(self, tmp_path):
        cfg = RunConfig(data_dir=str(tmp_path / "d"), out_dir=str(tmp_path / "o"))
        from riskforge.errors import MissingArtifact
        with pytest.raises(MissingArtifact):
            run_stage("evaluate", cfg)
        with pytest.raises(MissingArtifact):
            run_stage("features", cfg)

    def test_select_reads_only_the_first_imputation(self, small_run, tmp_path):
        # selection runs on imputed_1.csv alone; the others feed only fit
        out = tmp_path / "out"
        shutil.copytree(small_run.out_dir, out)
        os.remove(out / "imputed_2.csv")
        written = run_stage("select", dataclasses.replace(small_run, out_dir=str(out)))
        assert written
        for path in written:
            name = os.path.basename(path)
            with open(path, "rb") as got, open(os.path.join(small_run.out_dir, name), "rb") as want:
                assert got.read() == want.read(), name
