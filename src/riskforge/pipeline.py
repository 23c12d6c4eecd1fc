"""Stage orchestration: each stage reads checkpointed artifacts, computes,
and atomically writes its own outputs into the run directory.

Randomness is derived from the single configured root seed, expanded per
stage through ``config.stage_seed``, so any stage can be re-run in
isolation and byte-identical outputs follow from identical config+seed.
"""

import math
import os
import shutil

import numpy as np

from . import design, gbt, glm, impute, lasso, svgplot, text as text_mod
from .config import stage_seed
from .cohort import CohortConfig, build_cohort
from .errors import MissingArtifact, SingularHessian
from .frame import JoinSpec, PatientFrame, join, read_csv, read_header, write_csv
from .harmonize import build_structured_features, fahrenheit_to_celsius
from .impute import MiceConfig, default_policies, impute_single, mice_impute, missingness_report
from .scoring import (calibration, decision_curve, default_dca_grid,
                      news2_scores, roc, threshold_metrics)
from .synth import SynthConfig, generate

STAGES = ("synth", "cohort", "features", "impute", "text", "select", "fit",
          "evaluate", "report")

VARIANTS = ("structured", "multimodal")
FEATURE_SETS = ("lasso", "gbt", "combined")

ID_COLUMNS = ("subject_id", "hadm_id", "stay_id")
OUTCOME = "in_hospital_death"


def _atomic(path, write):
    """Call ``write(tmp)`` and move tmp over ``path``, so readers never see
    a half-written artifact. Returns ``path``."""
    tmp = f"{path}.tmp"
    write(tmp)
    os.replace(tmp, path)
    return path


def atomic_write_csv(frame, path):
    return _atomic(path, lambda tmp: write_csv(frame, tmp))


def _rows_frame(columns):
    return PatientFrame.from_columns(columns)


def _need(path, stage):
    if not os.path.exists(path):
        raise MissingArtifact(stage, os.path.basename(path))
    return path


# --- input schemas (MIMIC-shaped headers) ---

SCHEMAS = {
    "diagnoses_icd": [("subject_id", "int"), ("hadm_id", "int"), ("icd_code", "str")],
    "patients": [("subject_id", "int"), ("anchor_age", "num")],
    "icustays": [("subject_id", "int"), ("hadm_id", "int"), ("stay_id", "int"),
                 ("intime", "time")],
    "admissions": [("subject_id", "int"), ("hadm_id", "int"),
                   ("dischtime", "time"), ("deathtime", "time")],
    "chartevents": [("hadm_id", "int"), ("stay_id", "int"), ("charttime", "time"),
                    ("itemid", "int"), ("valuenum", "num"), ("valueuom", "str")],
    "labevents": [("hadm_id", "int"), ("charttime", "time"), ("itemid", "int"),
                  ("valuenum", "num")],
    "procedureevents": [("hadm_id", "int"), ("stay_id", "int"),
                        ("starttime", "time"), ("itemid", "int")],
    "inputevents": [("hadm_id", "int"), ("stay_id", "int"),
                    ("starttime", "time"), ("itemid", "int")],
    "notes": [("hadm_id", "int"), ("charttime", "time"), ("text", "str")],
}

COHORT_SCHEMA = [("subject_id", "int"), ("hadm_id", "int"), ("stay_id", "int"),
                 ("intime", "time"), ("anchor_age", "num"),
                 ("dischtime", "time"), ("deathtime", "time"),
                 (OUTCOME, "int")]


def _read_input(cfg, name, stage):
    path = _need(os.path.join(cfg.data_dir, f"{name}.csv"), stage)
    return read_csv(path, SCHEMAS[name])


# --- stages ---


def run_synth(cfg):
    os.makedirs(cfg.data_dir, exist_ok=True)
    scfg = SynthConfig(n_patients=cfg.synth_n, prevalence=cfg.synth_prevalence,
                       text_signal_strength=cfg.synth_text_signal,
                       emb_dim=cfg.synth_emb_dim,
                       seed=stage_seed(cfg.seed, "synth"))
    generate(scfg, cfg.data_dir)
    return [os.path.join(cfg.data_dir, "ground_truth.csv")]


def run_cohort(cfg):
    os.makedirs(cfg.out_dir, exist_ok=True)
    diagnoses = _read_input(cfg, "diagnoses_icd", "cohort")
    patients = _read_input(cfg, "patients", "cohort")
    icustays = _read_input(cfg, "icustays", "cohort")
    admissions = _read_input(cfg, "admissions", "cohort")
    ccfg = CohortConfig(tuple(cfg.icd_codes), cfg.min_age)
    cohort = build_cohort(diagnoses, patients, icustays, admissions, ccfg)
    keep = [c for c, _ in COHORT_SCHEMA if cohort.has_column(c)]
    out = os.path.join(cfg.out_dir, "cohort.csv")
    atomic_write_csv(cohort.select(keep), out)
    return [out]


def _read_cohort(cfg, stage):
    path = _need(os.path.join(cfg.out_dir, "cohort.csv"), stage)
    header = read_header(path)
    return read_csv(path, [(n, k) for n, k in COHORT_SCHEMA if n in header])


def effective_plausibility(cfg):
    from .harmonize import DEFAULT_PLAUSIBILITY, PlausibilityRule
    by_var = {r.variable: r for r in DEFAULT_PLAUSIBILITY}
    for var, lo, hi in cfg.plausibility_overrides:
        unit = by_var[var].unit if var in by_var else ""
        by_var[var] = PlausibilityRule(var, lo, hi, unit)
    return tuple(by_var.values())


def run_features(cfg):
    cohort = _read_cohort(cfg, "features")
    chart = _read_input(cfg, "chartevents", "features")
    labs = _read_input(cfg, "labevents", "features")
    diagnoses = _read_input(cfg, "diagnoses_icd", "features")
    procs = _read_input(cfg, "procedureevents", "features").rename({"starttime": "charttime"})
    inputs = _read_input(cfg, "inputevents", "features").rename({"starttime": "charttime"})

    from .harmonize import window_24h
    stays = cohort.select(["stay_id", "intime"])
    procs_w, _ = window_24h(procs, stays, key="stay_id")
    inputs_w, _ = window_24h(inputs, stays, key="stay_id")

    rules = effective_plausibility(cfg)
    features, report = build_structured_features(
        chart, labs, diagnoses, procs_w, inputs_w, cohort, rules)
    out = os.path.join(cfg.out_dir, "structured_features.csv")
    atomic_write_csv(features, out)

    table_path = os.path.join(cfg.out_dir, "plausibility_table.csv")
    atomic_write_csv(_rows_frame([
        ("variable", "str", [r.variable for r in rules]),
        ("lower", "num", np.array([float(r.lower) for r in rules])),
        ("upper", "num", np.array([float(r.upper) for r in rules])),
        ("unit", "str", [r.unit for r in rules]),
    ]), table_path)

    rows = [("unlinked", k, float(v)) for k, v in sorted(report["unlinked"].items())]
    rows += [("plausibility_removed", k, float(v))
             for k, v in sorted(report["plausibility"].items())]
    rep = _rows_frame([
        ("kind", "str", [r[0] for r in rows]),
        ("name", "str", [r[1] for r in rows]),
        ("count", "int", np.array([r[2] for r in rows]) if rows else np.array([])),
    ])
    rep_path = os.path.join(cfg.out_dir, "harmonization_report.csv")
    atomic_write_csv(rep, rep_path)
    return [out, rep_path, table_path]


def _features_schema(path):
    schema = []
    for name in read_header(path):
        if name in ID_COLUMNS or name == OUTCOME or name in (
                "hypertension", "heart_failure", "myocardial_infarction",
                "diabetes", "copd", "received_ventilation", "epinephrine",
                "dopamine", "has_discharge_note", "has_radiology_note"):
            schema.append((name, "int"))
        else:
            schema.append((name, "num"))
    return schema


def run_impute(cfg):
    src = _need(os.path.join(cfg.out_dir, "structured_features.csv"), "impute")
    features = read_csv(src, _features_schema(src))

    numeric = [n for n in features.names
               if n not in ID_COLUMNS and n != OUTCOME and features.kind(n) == "num"]
    report = missingness_report(features, numeric)

    policies = default_policies(numeric, dict(cfg.impute_overrides))
    single = impute_single(features, policies)
    # conditioning set includes the outcome and the complete binary flags so
    # imputations preserve covariate-outcome structure for downstream fits
    complete_ints = [n for n in features.names
                     if n not in ID_COLUMNS and features.kind(n) == "int"]
    mice_columns = [n for n in numeric if n != "gcs_total"] + complete_ints
    mcfg = MiceConfig(cfg.mice_m, cfg.mice_max_iter,
                      stage_seed(cfg.seed, "impute"), cfg.mice_ridge)
    completed = mice_impute(single, mcfg, mice_columns)

    outs = []
    for k, frame in enumerate(completed, start=1):
        total_mask = frame.mask("gcs_total")
        if total_mask.any():
            eye = frame.values("gcs_eye_mean")
            ver = frame.values("gcs_verbal_mean")
            mot = frame.values("gcs_motor_mean")
            total = frame.values("gcs_total")
            total[total_mask] = (eye + ver + mot)[total_mask]
            frame = frame.with_column("gcs_total", "num", total)
        path = os.path.join(cfg.out_dir, f"imputed_{k}.csv")
        atomic_write_csv(frame, path)
        outs.append(path)

    rep = _rows_frame([
        ("variable", "str", [r[0] for r in report]),
        ("missing_count", "int", np.array([float(r[1]) for r in report])),
        ("missing_pct", "num", np.array([round(r[2], 4) for r in report])),
    ])
    rep_path = os.path.join(cfg.out_dir, "imputation_report.csv")
    atomic_write_csv(rep, rep_path)
    return outs + [rep_path]


def run_text(cfg):
    cohort = _read_cohort(cfg, "text")
    blocks = {}
    coverage_rows = []
    basis_paths = []

    for kind, prefix in (("discharge", "disch_tfidf_svd"), ("radiology", "radio_tfidf_svd")):
        notes_path = _need(os.path.join(cfg.data_dir, f"{kind}.csv"), "text")
        notes = read_csv(notes_path, SCHEMAS["notes"])
        records, coverage = text_mod.select_notes(notes, cohort, kind)
        coverage_rows.append((kind, coverage.covered, coverage.total, str(coverage)))
        docs = [text_mod.normalize_text(r.text) for r in records]
        model = text_mod.fit_tfidf(docs, cfg.vocab_size)
        matrix = text_mod.corpus_matrix(model, docs)
        basis = text_mod.fit_reduced_basis(matrix, "svd", cfg.svd_target)
        reduced = basis.transform(matrix)
        blocks[prefix] = ({r.hadm_id: reduced[i] for i, r in enumerate(records)},
                          basis.retained)
        basis_paths.append(_write_basis(cfg, prefix, basis))
        basis_paths.append(_write_vocab(cfg, kind, model))

    for kind, prefix in (("discharge", "discharge_bert_pca"), ("radiology", "radiology_bert_pca")):
        emb_path = _need(os.path.join(cfg.data_dir, f"{kind}_emb.csv"), "text")
        vectors, dim = text_mod.read_embeddings(emb_path)
        hadms = sorted(vectors)
        matrix = np.vstack([vectors[h] for h in hadms]) if hadms else np.zeros((0, dim))
        basis = text_mod.fit_reduced_basis(matrix, "pca", cfg.pca_target)
        reduced = basis.transform(matrix)
        blocks[prefix] = ({h: reduced[i] for i, h in enumerate(hadms)}, basis.retained)
        basis_paths.append(_write_basis(cfg, prefix, basis))

    out_frame = text_mod.apply_text_block(cohort, blocks)
    out = os.path.join(cfg.out_dir, "text_features.csv")
    atomic_write_csv(out_frame, out)

    cov = _rows_frame([
        ("kind", "str", [r[0] for r in coverage_rows]),
        ("covered", "int", np.array([float(r[1]) for r in coverage_rows])),
        ("total", "int", np.array([float(r[2]) for r in coverage_rows])),
        ("display", "str", [r[3] for r in coverage_rows]),
    ])
    cov_path = os.path.join(cfg.out_dir, "text_coverage.csv")
    atomic_write_csv(cov, cov_path)
    return [out, cov_path] + basis_paths


def _write_basis(cfg, prefix, basis):
    path = os.path.join(cfg.out_dir, f"{prefix}.basis.csv")
    return _atomic(path, lambda tmp: text_mod.save_basis(basis, tmp))


def _write_vocab(cfg, kind, model):
    path = os.path.join(cfg.out_dir, f"{kind}_tfidf_vocab.csv")
    atomic_write_csv(_rows_frame([
        ("term", "str", model.vocabulary),
        ("df", "int", model.df),
        ("idf", "num", model.idf),
    ]), path)
    return path


# --- matrix assembly shared by select/fit/evaluate ---


def _tag_of(name):
    if name.startswith(("disch_tfidf_svd", "radio_tfidf_svd")):
        return "tfidf"
    if name.startswith(("discharge_bert_pca", "radiology_bert_pca")):
        return "embedding"
    if name.startswith("has_"):
        return "indicator"
    return "structured"


def _load_matrices(cfg, stage):
    """Returns (y, keys, structured fm per imputation, text fm, split)."""
    imputed = []
    for k in range(1, cfg.mice_m + 1):
        path = _need(os.path.join(cfg.out_dir, f"imputed_{k}.csv"), stage)
        imputed.append(read_csv(path, _features_schema(path)))
    base = imputed[0]
    y = base.values(OUTCOME)
    keys = base.values("hadm_id").astype(int)

    feature_names = [n for n in base.names if n not in ID_COLUMNS and n != OUTCOME]
    mats = [design.from_frame(f, feature_names) for f in imputed]

    text_path = _need(os.path.join(cfg.out_dir, "text_features.csv"), stage)
    tf = read_csv(text_path, _features_schema(text_path))
    aligned = join(base.select(["hadm_id"]), tf, JoinSpec(("hadm_id",), "left"))
    text_names = [n for n in aligned.names if n != "hadm_id"]
    text_fm = design.from_frame(aligned, text_names, [_tag_of(n) for n in text_names])

    train_idx, val_idx = design.stratified_split(y, cfg.train_fraction,
                                                 stage_seed(cfg.seed, "split"))
    return y, keys, mats, text_fm, (train_idx, val_idx)


def _variant_matrix(structured_fm, text_fm, variant):
    if variant == "structured":
        return structured_fm
    return design.hstack(structured_fm, text_fm)


def run_select(cfg):
    y, keys, mats, text_fm, (train_idx, val_idx) = _load_matrices(cfg, "select")
    outs = []

    split_col = np.array(["train"] * len(y), dtype=object)
    split_col[val_idx] = "val"
    split_frame = _rows_frame([
        ("hadm_id", "int", keys.astype(float)),
        ("split", "str", list(split_col)),
    ])
    split_path = os.path.join(cfg.out_dir, "split.csv")
    atomic_write_csv(split_frame, split_path)
    outs.append(split_path)

    for variant in VARIANTS:
        fm = _variant_matrix(mats[0], text_fm, variant)
        std = design.standardize(fm, train_idx)
        Xt = std.X[train_idx]
        yt = y[train_idx]

        curve = lasso.cv_deviance(
            Xt, yt, grid_size=cfg.lasso_grid, n_folds=cfg.lasso_folds,
            seed=stage_seed(cfg.seed, f"lasso:{variant}"),
            keys=keys[train_idx], rule=cfg.lasso_rule)
        lasso_names = lasso.selected_features(Xt, yt, curve.lambda_selected, std.names)

        curve_frame = _rows_frame([
            ("lambda", "num", curve.lambda_grid),
            ("mean_deviance", "num", curve.mean_deviance),
            ("se_deviance", "num", curve.se_deviance),
        ])
        p = os.path.join(cfg.out_dir, f"cv_curve_{variant}.csv")
        atomic_write_csv(curve_frame, p)
        outs.append(p)
        svg = os.path.join(cfg.out_dir, f"cv_curve_{variant}.svg")
        logg = [math.log(v) for v in curve.lambda_grid]
        svgplot.line_chart(
            svg, [svgplot.Series("cv deviance", logg, list(curve.mean_deviance))],
            title=f"Cross-validated binomial deviance ({variant})",
            xlabel="log(lambda)", ylabel="binomial deviance",
            vlines=((math.log(curve.lambda_min), "lambda_min"),
                    (math.log(curve.lambda_1se), "lambda_1SE")))
        outs.append(svg)

        sel_frame = _rows_frame([
            ("feature", "str", lasso_names),
            ("lambda_selected", "num", np.full(len(lasso_names), curve.lambda_selected)),
            ("lambda_min", "num", np.full(len(lasso_names), curve.lambda_min)),
            ("lambda_1se", "num", np.full(len(lasso_names), curve.lambda_1se)),
        ])
        p = os.path.join(cfg.out_dir, f"lasso_selected_{variant}.csv")
        atomic_write_csv(sel_frame, p)
        outs.append(p)

        gcfg = gbt.GbtConfig(cfg.gbt_max_depth, cfg.gbt_learning_rate,
                             cfg.gbt_n_trees, cfg.gbt_subsample,
                             seed=stage_seed(cfg.seed, f"gbt:{variant}"))
        model = gbt.fit_gbt(std.X[train_idx], yt, gcfg, std.names)
        ranking = gbt.gain_importance(model)
        top_k = cfg.gbt_top_k_structured if variant == "structured" else cfg.gbt_top_k_multimodal
        gbt_names = gbt.top_k_features(model, top_k) if ranking else []

        p = os.path.join(cfg.out_dir, f"gbt_importance_{variant}.csv")
        atomic_write_csv(_rows_frame([
            ("feature", "str", [r[0] for r in ranking]),
            ("gain", "num", np.array([r[1] for r in ranking])),
        ]), p)
        outs.append(p)
        mp = os.path.join(cfg.out_dir, f"gbt_model_{variant}.txt")
        outs.append(_atomic(mp, lambda tmp: gbt.save_model(model, tmp)))

        union = glm.consolidate_features(lasso_names, gbt_names)
        in_lasso = [1.0 if n in lasso_names else 0.0 for n in union]
        in_gbt = [1.0 if n in gbt_names else 0.0 for n in union]
        p = os.path.join(cfg.out_dir, f"selected_{variant}.csv")
        atomic_write_csv(_rows_frame([
            ("feature", "str", union),
            ("in_lasso", "int", np.array(in_lasso)),
            ("in_gbt", "int", np.array(in_gbt)),
        ]), p)
        outs.append(p)
    # canonical single-name artifacts mirror the full (multimodal) pipeline
    outs += _alias(cfg, [("cv_curve_multimodal.csv", "cv_curve.csv"),
                         ("lasso_selected_multimodal.csv", "lasso_selected.csv"),
                         ("gbt_importance_multimodal.csv", "gbt_importance.csv")])
    return outs


def _alias(cfg, pairs):
    return [_atomic(os.path.join(cfg.out_dir, dst),
                    lambda tmp: shutil.copyfile(os.path.join(cfg.out_dir, src), tmp))
            for src, dst in pairs]


def _read_selected(cfg, variant, stage):
    path = _need(os.path.join(cfg.out_dir, f"selected_{variant}.csv"), stage)
    frame = read_csv(path, [("feature", "str"), ("in_lasso", "int"), ("in_gbt", "int")])
    feats = frame.values("feature")
    return (feats[frame.values("in_lasso") == 1.0].tolist(),
            feats[frame.values("in_gbt") == 1.0].tolist(), feats.tolist())


def run_fit(cfg):
    y, keys, mats, text_fm, (train_idx, val_idx) = _load_matrices(cfg, "fit")
    _need(os.path.join(cfg.out_dir, "split.csv"), "fit")
    outs = []
    split_col = np.array(["train"] * len(y), dtype=object)
    split_col[val_idx] = "val"

    for variant in VARIANTS:
        lasso_set, gbt_set, union = _read_selected(cfg, variant, "fit")
        fm_full = _variant_matrix(mats[0], text_fm, variant)
        std_full = design.standardize(fm_full, train_idx)

        screen_rows = glm.univariate_screen(
            std_full.subset(union).rows(train_idx), y[train_idx])
        p = os.path.join(cfg.out_dir, f"univariate_{variant}.csv")
        atomic_write_csv(_rows_frame([
            ("variable", "str", [r.name for r in screen_rows]),
            ("coef", "num", np.array([r.coef for r in screen_rows])),
            ("p_value", "num", np.array([r.p for r in screen_rows])),
            ("p_display", "str", [_fmt_p(r.p) for r in screen_rows]),
            ("significant", "int", np.array([1.0 if r.significant else 0.0
                                             for r in screen_rows])),
        ]), p)
        outs.append(p)
        significant = {r.name for r in screen_rows if r.significant}

        for fset in FEATURE_SETS:
            base = {"lasso": lasso_set, "gbt": gbt_set, "combined": union}[fset]
            candidates = [n for n in base if n in significant]
            if len(candidates) == 0:
                candidates = base[: min(3, len(base))]
            if len(candidates) >= 2:
                vrep = glm.vif(std_full.subset(candidates).rows(train_idx))
                kept = vrep.kept
            else:
                vrep = glm.VifReport({c: 1.0 for c in candidates}, [], list(candidates), [])
                kept = list(candidates)
            p = os.path.join(cfg.out_dir, f"vif_{variant}_{fset}.csv")
            atomic_write_csv(_rows_frame([
                ("variable", "str", list(vrep.vifs.keys())),
                ("vif", "num", np.array([_cap_inf(v) for v in vrep.vifs.values()])),
                ("dropped", "int", np.array([0.0 if n in kept else 1.0
                                             for n in vrep.vifs.keys()])),
            ]), p)
            outs.append(p)

            fits, probs_sum = [], np.zeros(len(y))
            pr2s, lls = [], []
            for fm_k in mats:
                fmv = _variant_matrix(fm_k, text_fm, variant)
                stdk = design.apply_standardization(fmv, std_full.mean, std_full.scale)
                sub = stdk.subset(kept)
                fit = glm.fit_logistic(sub.X[train_idx], y[train_idx],
                                       names=kept, raise_on_separation=False)
                fits.append(fit)
                pr2s.append(fit.pseudo_r2)
                lls.append(fit.loglik)
                probs_sum += glm.sigmoid(fit.coef[0] + sub.X @ fit.coef[1:])
            pooled = impute.rubin_pool(fits)
            probs = probs_sum / len(mats)

            zstat = np.where(pooled.se > 0, pooled.beta_mi / pooled.se, 0.0)
            pvals = glm.wald_p(zstat)
            p = os.path.join(cfg.out_dir, f"model_summary_{variant}_{fset}.csv")
            atomic_write_csv(_rows_frame([
                ("variable", "str", ["intercept"] + kept),
                ("coef", "num", pooled.beta_mi),
                ("se", "num", pooled.se),
                ("z", "num", zstat),
                ("p_value", "num", pvals),
                ("ci_low", "num", pooled.beta_mi - glm.Z95 * pooled.se),
                ("ci_high", "num", pooled.beta_mi + glm.Z95 * pooled.se),
            ]), p)
            outs.append(p)

            p = os.path.join(cfg.out_dir, f"model_stats_{variant}_{fset}.csv")
            atomic_write_csv(_rows_frame([
                ("key", "str", ["n_features", "pseudo_r2", "loglik", "n_train"]),
                ("value", "num", np.array([float(len(kept)),
                                           float(np.mean(pr2s)),
                                           float(np.mean(lls)),
                                           float(len(train_idx))])),
            ]), p)
            outs.append(p)

            p = os.path.join(cfg.out_dir, f"predictions_{variant}_{fset}.csv")
            atomic_write_csv(_rows_frame([
                ("hadm_id", "int", keys.astype(float)),
                ("split", "str", list(split_col)),
                ("y", "int", y),
                ("prob", "num", probs),
            ]), p)
            outs.append(p)
    outs += _alias(cfg, [
        ("univariate_multimodal.csv", "univariate_report.csv"),
        ("vif_multimodal_combined.csv", "vif_report.csv"),
        ("model_summary_multimodal_combined.csv", "model_summary.csv"),
    ])
    return outs


def _fmt_p(p):
    if not np.isfinite(p):
        return "n/a"
    if p < 1e-4:
        return "<0.0001"
    return f"{p:.4f}"


def _cap_inf(v):
    return 1e12 if not np.isfinite(v) else float(v)


def _news2_frame_scores(frame):
    """Vectorized NEWS2 over an imputed feature frame (inputs clamped sane)."""
    rr = np.clip(frame.values("rr_mean"), 1.0, 100.0)
    spo2 = np.clip(frame.values("spo2_mean"), 1.0, 100.0)
    sbp = np.clip(frame.values("sbp_mean"), 10.0, 400.0)
    hr = np.clip(frame.values("hr_mean"), 10.0, 400.0)
    bt = np.clip(fahrenheit_to_celsius(frame.values("bt_mean")), 20.0, 45.0)
    gcs = np.clip(frame.values("gcs_total"), 3.0, 15.0)
    return news2_scores(rr, spo2, sbp, hr, bt, gcs).astype(float)


def run_evaluate(cfg):
    outs = []
    imputed1 = _need(os.path.join(cfg.out_dir, "imputed_1.csv"), "evaluate")
    frame1 = read_csv(imputed1, _features_schema(imputed1))

    models = {}
    for variant in VARIANTS:
        for fset in FEATURE_SETS:
            path = _need(os.path.join(cfg.out_dir, f"predictions_{variant}_{fset}.csv"),
                         "evaluate")
            pf = read_csv(path, [("hadm_id", "int"), ("split", "str"),
                                 ("y", "int"), ("prob", "num")])
            models[f"{variant}_{fset}"] = pf

    any_pf = next(iter(models.values()))
    split = any_pf.values("split")
    val = split == "val"
    train = ~val
    y_all = any_pf.values("y")

    news2_all = _news2_frame_scores(frame1)
    try:
        recal = glm.fit_logistic(news2_all[train], y_all[train], names=["news2"],
                                 raise_on_separation=False)
        news2_probs = recal.predict(news2_all[:, None])
    except SingularHessian:
        news2_probs = np.full(len(y_all), float(y_all[train].mean()))

    roc_rows, cal_rows, dca_rows, met_rows = [], [], [], []
    roc_series, dca_series, cal_series = [], [], []

    def evaluate_model(name, scores, probs):
        yv = y_all[val]
        curve = roc(scores[val], yv)
        for t, fp, tp in zip(curve.thresholds, curve.fpr, curve.tpr):
            roc_rows.append((name, float(t) if np.isfinite(t) else 1e12, fp, tp))
        roc_series.append(svgplot.Series(f"{name} (auc {curve.auc:.3f})",
                                         list(curve.fpr), list(curve.tpr)))
        met = {"model": name, "auc": curve.auc}
        if probs is not None:
            n_bins = min(cfg.calibration_bins, int(val.sum()))
            bins = calibration(probs[val], yv, n_bins)
            for b in range(len(bins.mean_prob)):
                cal_rows.append((name, b + 1, bins.edges[b][0], bins.edges[b][1],
                                 bins.mean_prob[b], bins.event_rate[b],
                                 int(bins.counts[b])))
            dca = decision_curve(probs[val], yv,
                                 default_dca_grid(cfg.dca_grid_step))
            for i, t in enumerate(dca.thresholds):
                dca_rows.append((name, t, dca.net_benefit[i],
                                 dca.standardized_net_benefit[i]))
            tm = threshold_metrics(probs[val], yv)
            met.update(tm)
            if name.endswith("combined") or name == "news2_logit":
                cal_series.append(svgplot.Series(name, list(bins.mean_prob),
                                                 list(bins.event_rate)))
            dca_series.append(svgplot.Series(name, list(dca.thresholds),
                                             list(dca.standardized_net_benefit)))
            last_dca = dca
        else:
            met.update({"accuracy": float("nan"), "f1_pos": float("nan"),
                        "recall_pos": float("nan")})
            last_dca = None
        met_rows.append(met)
        return last_dca

    last_dca = None
    for name, pf in models.items():
        probs = pf.values("prob")
        d = evaluate_model(name, probs, probs)
        last_dca = d or last_dca
    evaluate_model("news2_raw", news2_all, None)
    d = evaluate_model("news2_logit", news2_probs, news2_probs)
    last_dca = d or last_dca

    if last_dca is not None:
        for i, t in enumerate(last_dca.thresholds):
            dca_rows.append(("treat_all", t, last_dca.nb_treat_all[i],
                             last_dca.snb_treat_all[i]))
            dca_rows.append(("treat_none", t, 0.0, 0.0))
        dca_series.append(svgplot.Series("treat all", list(last_dca.thresholds),
                                         list(last_dca.snb_treat_all), dash="6,4"))
        dca_series.append(svgplot.Series("treat none", list(last_dca.thresholds),
                                         [0.0] * len(last_dca.thresholds), dash="2,3"))

    p = os.path.join(cfg.out_dir, "roc.csv")
    atomic_write_csv(_rows_frame([
        ("model", "str", [r[0] for r in roc_rows]),
        ("threshold", "num", np.array([r[1] for r in roc_rows])),
        ("fpr", "num", np.array([r[2] for r in roc_rows])),
        ("tpr", "num", np.array([r[3] for r in roc_rows])),
    ]), p)
    outs.append(p)

    p = os.path.join(cfg.out_dir, "calibration.csv")
    atomic_write_csv(_rows_frame([
        ("model", "str", [r[0] for r in cal_rows]),
        ("bin", "int", np.array([float(r[1]) for r in cal_rows])),
        ("prob_lo", "num", np.array([r[2] for r in cal_rows])),
        ("prob_hi", "num", np.array([r[3] for r in cal_rows])),
        ("mean_prob", "num", np.array([r[4] for r in cal_rows])),
        ("event_rate", "num", np.array([r[5] for r in cal_rows])),
        ("count", "int", np.array([float(r[6]) for r in cal_rows])),
    ]), p)
    outs.append(p)

    p = os.path.join(cfg.out_dir, "dca.csv")
    atomic_write_csv(_rows_frame([
        ("model", "str", [r[0] for r in dca_rows]),
        ("threshold", "num", np.array([r[1] for r in dca_rows])),
        ("net_benefit", "num", np.array([r[2] for r in dca_rows])),
        ("standardized_net_benefit", "num", np.array([r[3] for r in dca_rows])),
    ]), p)
    outs.append(p)

    p = os.path.join(cfg.out_dir, "metrics.csv")
    atomic_write_csv(_rows_frame([
        ("model", "str", [m["model"] for m in met_rows]),
        ("auc", "num", np.array([m["auc"] for m in met_rows])),
        ("accuracy", "num", np.array([m["accuracy"] for m in met_rows])),
        ("f1_pos", "num", np.array([m["f1_pos"] for m in met_rows])),
        ("recall_pos", "num", np.array([m["recall_pos"] for m in met_rows])),
    ]), p)
    outs.append(p)

    svg = os.path.join(cfg.out_dir, "roc.svg")
    diag = svgplot.Series("chance", [0.0, 1.0], [0.0, 1.0], dash="4,4")
    svgplot.line_chart(svg, roc_series + [diag], title="ROC (validation)",
                       xlabel="false positive rate", ylabel="true positive rate")
    outs.append(svg)
    svg = os.path.join(cfg.out_dir, "calibration.svg")
    svgplot.line_chart(svg, cal_series, title="Calibration (validation)",
                       xlabel="mean predicted probability",
                       ylabel="observed event rate", diagonal=True)
    outs.append(svg)
    svg = os.path.join(cfg.out_dir, "dca.svg")
    svgplot.line_chart(svg, dca_series, title="Decision curves (validation)",
                       xlabel="threshold probability",
                       ylabel="standardized net benefit", ylim=(-0.5, 1.1))
    outs.append(svg)
    return outs



def run_report(cfg):
    outs = []
    rows = []
    for fset, label in (("lasso", "LASSO"), ("gbt", "GBT"), ("combined", "Combined")):
        for variant, source in (("structured", "Structured Only"),
                                ("multimodal", "Structured + Text")):
            path = _need(os.path.join(cfg.out_dir, f"model_stats_{variant}_{fset}.csv"),
                         "report")
            stats = read_csv(path, [("key", "str"), ("value", "num")])
            kv = dict(zip(stats.values("key"), stats.values("value")))
            rows.append((label, source, int(kv["n_features"]), kv["pseudo_r2"]))
    p = os.path.join(cfg.out_dir, "report.csv")
    atomic_write_csv(_rows_frame([
        ("model", "str", [r[0] for r in rows]),
        ("feature_source", "str", [r[1] for r in rows]),
        ("n_features", "int", np.array([float(r[2]) for r in rows])),
        ("pseudo_r2", "num", np.array([r[3] for r in rows])),
    ]), p)
    outs.append(p)

    met_path = _need(os.path.join(cfg.out_dir, "metrics.csv"), "report")
    met = read_csv(met_path, [("model", "str"), ("auc", "num"), ("accuracy", "num"),
                              ("f1_pos", "num"), ("recall_pos", "num")])
    by_model = {str(name): {k: met.values(k)[i]
                            for k in ("auc", "accuracy", "f1_pos", "recall_pos")}
                for i, name in enumerate(met.values("model"))}
    sm = by_model.get("structured_combined", {})
    mm = by_model.get("multimodal_combined", {})
    metric_rows = [
        ("AUC", sm.get("auc"), mm.get("auc")),
        ("Accuracy", sm.get("accuracy"), mm.get("accuracy")),
        ("F1-score (Class 1)", sm.get("f1_pos"), mm.get("f1_pos")),
        ("Recall (Class 1)", sm.get("recall_pos"), mm.get("recall_pos")),
    ]
    p = os.path.join(cfg.out_dir, "report_metrics.csv")
    atomic_write_csv(_rows_frame([
        ("metric", "str", [r[0] for r in metric_rows]),
        ("structured_only", "num", np.array([_nan(r[1]) for r in metric_rows])),
        ("structured_text", "num", np.array([_nan(r[2]) for r in metric_rows])),
    ]), p)
    outs.append(p)
    return outs


def _nan(v):
    return float("nan") if v is None else float(v)


RUNNERS = {
    "synth": run_synth,
    "cohort": run_cohort,
    "features": run_features,
    "impute": run_impute,
    "text": run_text,
    "select": run_select,
    "fit": run_fit,
    "evaluate": run_evaluate,
    "report": run_report,
}


def run_stage(stage, cfg):
    """Run one named stage; returns the list of artifact paths written."""
    if stage not in RUNNERS:
        raise ValueError(f"unknown stage {stage!r}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    return RUNNERS[stage](cfg)


def run_all(cfg, stages=STAGES):
    out = []
    for stage in stages:
        out.extend(run_stage(stage, cfg))
    return out
