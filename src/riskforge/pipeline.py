"""Stage orchestration: each stage reads checkpointed artifacts, computes,
and atomically writes its own outputs into the run directory.

Checkpoint I/O lives in two helpers: ``_save`` writes a table as
``out_dir/name`` and ``_load`` reads an earlier stage's, raising
MissingArtifact when it is absent. Every file in ``out_dir`` is written
through ``_atomic`` (to ``name.tmp``, then renamed). A feature table's
whole-number columns are ``INT_COLUMNS``: the ids, the outcome,
``harmonize.FLAG_NAMES`` and ``text.INDICATORS``; the rest read as reals.

A process does not parse the checkpoints it wrote. ``_save`` keeps each
table as ``read_csv`` would read it back (``frame.read_back`` computes it
from the values; a column that already holds those values is kept as a
read-only view, not a copy) with the file's (device, inode, size, mtime)
taken after the rename. ``_load`` serves the kept frame, sharing its read-only columns,
when the file still has that stat and every requested column has the
kind it was saved with; otherwise, as when the file was rewritten by
another writer or a stage runs in a new process, it reads the disk.
Only one ``out_dir``'s tables are kept: a save elsewhere drops them.

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
from .errors import (DuplicateCohortRow, IoFailure, MissingArtifact, SingularHessian,
                     TooFewRows)
from .frame import (PatientFrame, join, read_back, read_csv, read_header,
                    write_csv)
from .harmonize import (DEFAULT_PLAUSIBILITY, FLAG_NAMES, PlausibilityRule,
                        build_structured_features, fahrenheit_to_celsius, stay_window)
from .impute import MiceConfig, default_policies, impute_single, mice_impute, missingness_report
from .scoring import (NEWS2_RANGES, calibration, decision_curve, default_dca_grid,
                      news2_scores, roc, threshold_metrics)
from .synth import SynthConfig, generate

STAGES = ("synth", "cohort", "features", "impute", "text", "select", "fit",
          "evaluate", "report")

VARIANTS = ("structured", "multimodal")
FEATURE_SETS = ("lasso", "gbt", "combined")

ID_COLUMNS = ("subject_id", "hadm_id", "stay_id")
OUTCOME = "in_hospital_death"
INT_COLUMNS = frozenset(ID_COLUMNS + (OUTCOME,) + FLAG_NAMES
                        + tuple(text_mod.INDICATORS.values()))


# --- checkpoint I/O ---

# the tables _save wrote, as read back: absolute path -> (the file's
# (device, inode, size, mtime) after the rename, frame); one out_dir's only
_SAVED = {}


def _atomic(cfg, name, write):
    """Call ``write(tmp)`` and move tmp over ``out_dir/name``, so readers
    never see a half-written artifact. Returns the path; an OSError from
    the write or the rename is an IoFailure naming it."""
    path = os.path.join(cfg.out_dir, name)
    tmp = f"{path}.tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise IoFailure(f"cannot write {path}: {exc.strerror or exc}") from None
    return path


def _save(cfg, name, table, memo=None):
    """Write a frame, or a [(column, kind, values)] list, as ``out_dir/name``
    and keep it in memory as read back, for ``_load``. ``memo`` is a dict
    shared with the writes of tables that share column arrays."""
    frame = table if isinstance(table, PatientFrame) else PatientFrame.from_columns(table)
    path = _atomic(cfg, name, lambda tmp: write_csv(frame, tmp, memo))
    full = os.path.abspath(path)
    if any(os.path.dirname(p) != os.path.dirname(full) for p in _SAVED):
        _SAVED.clear()
    _SAVED[full] = (_stat_key(full), read_back(frame))
    return path


def _rows(schema, rows):
    """[(column, kind, values)] for row tuples laid out as ``schema``."""
    columns = list(zip(*rows)) or [()] * len(schema)
    return [(name, kind, values) for (name, kind), values in zip(schema, columns)]


def _chart(cfg, name, series, **options):
    return _atomic(cfg, name, lambda tmp: svgplot.line_chart(tmp, series, **options))


def _need(path, stage):
    if not os.path.exists(path):
        raise MissingArtifact(stage, path)
    return path


def _features_schema(names):
    return [(name, "int" if name in INT_COLUMNS else "num") for name in names]


def _stat_key(path):
    st = os.stat(path)
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


def _load(cfg, name, stage, schema=None):
    """Read ``out_dir/name``, an earlier stage's artifact; ``schema``
    defaults to the feature-table rule. A table this process saved there is
    served from memory while the file is the one saved and every requested
    column has the kind it was saved with."""
    path = _need(os.path.join(cfg.out_dir, name), stage)
    stat, saved = _SAVED.get(os.path.abspath(path), (None, None))
    if saved is not None and stat == _stat_key(path):
        wanted = _features_schema(saved.names) if schema is None else schema
        if all(saved.has_column(n) and saved.kind(n) == k for n, k in wanted):
            return saved.select([n for n, _ in wanted])
    return read_csv(path, _features_schema(read_header(path)) if schema is None else schema)


def forget_saved():
    """Drop the tables ``_save`` keeps in memory; loads then read the disk."""
    _SAVED.clear()


# --- input schemas (MIMIC-shaped headers) ---

NOTES_SCHEMA = [("hadm_id", "int"), ("charttime", "time"), ("text", "str")]

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
    "discharge": NOTES_SCHEMA,
    "radiology": NOTES_SCHEMA,
}

COHORT_SCHEMA = [("subject_id", "int"), ("hadm_id", "int"), ("stay_id", "int"),
                 ("intime", "time"), ("anchor_age", "num"),
                 ("dischtime", "time"), ("deathtime", "time"),
                 (OUTCOME, "int")]

PREDICTIONS_SCHEMA = [("hadm_id", "int"), ("split", "str"), ("y", "int"), ("prob", "num")]

METRICS = ("auc", "accuracy", "f1_pos", "recall_pos")


def _read_input(cfg, name, stage, window=None):
    path = _need(os.path.join(cfg.data_dir, f"{name}.csv"), stage)
    return read_csv(path, SCHEMAS[name], window)


# --- stages ---


def run_synth(cfg):
    scfg = SynthConfig(n_patients=cfg.synth_n, prevalence=cfg.synth_prevalence,
                       text_signal_strength=cfg.synth_text_signal,
                       emb_dim=cfg.synth_emb_dim,
                       seed=stage_seed(cfg.seed, "synth"))
    generate(scfg, cfg.data_dir)
    return [os.path.join(cfg.data_dir, "ground_truth.csv")]


def run_cohort(cfg):
    diagnoses = _read_input(cfg, "diagnoses_icd", "cohort")
    patients = _read_input(cfg, "patients", "cohort")
    icustays = _read_input(cfg, "icustays", "cohort")
    admissions = _read_input(cfg, "admissions", "cohort")
    ccfg = CohortConfig(tuple(cfg.icd_codes), cfg.min_age)
    try:
        cohort = build_cohort(diagnoses, patients, icustays, admissions, ccfg)
    except DuplicateCohortRow as exc:
        raise DuplicateCohortRow(
            f"{os.path.join(cfg.data_dir, exc.table + '.csv')}: {exc}") from None
    return [_save(cfg, "cohort.csv", cohort.select([c for c, _ in COHORT_SCHEMA]))]


def effective_plausibility(cfg):
    by_var = {r.variable: r for r in DEFAULT_PLAUSIBILITY}
    for var, lo, hi in cfg.plausibility_overrides:
        unit = by_var[var].unit if var in by_var else ""
        by_var[var] = PlausibilityRule(var, lo, hi, unit)
    return tuple(by_var.values())


def run_features(cfg):
    cohort = _load(cfg, "cohort.csv", "features", COHORT_SCHEMA)
    # each event read skips lines that fall outside their stay's window;
    # window_24h applies the exact rule afterwards
    chart = _read_input(cfg, "chartevents", "features", stay_window(cohort, "stay_id"))
    labs = _read_input(cfg, "labevents", "features", stay_window(cohort, "hadm_id"))
    diagnoses = _read_input(cfg, "diagnoses_icd", "features")
    started = stay_window(cohort, "stay_id", "starttime")
    procs = _read_input(cfg, "procedureevents", "features", started) \
        .rename({"starttime": "charttime"})
    inputs = _read_input(cfg, "inputevents", "features", started) \
        .rename({"starttime": "charttime"})

    rules = effective_plausibility(cfg)
    features, report = build_structured_features(
        chart, labs, diagnoses, procs, inputs, cohort, rules)
    counts = [("unlinked", k, v) for k, v in sorted(report["unlinked"].items())]
    counts += [("plausibility_removed", k, v) for k, v in sorted(report["plausibility"].items())]
    return [
        _save(cfg, "structured_features.csv", features),
        _save(cfg, "harmonization_report.csv", _rows(
            [("kind", "str"), ("name", "str"), ("count", "int")], counts)),
        _save(cfg, "plausibility_table.csv", _rows(
            [("variable", "str"), ("lower", "num"), ("upper", "num"), ("unit", "str")],
            [(r.variable, r.lower, r.upper, r.unit) for r in rules])),
    ]


def run_impute(cfg):
    features = _load(cfg, "structured_features.csv", "impute")

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
    memo = {}  # the m tables share the array of every column MICE does not fill
    for k, frame in enumerate(completed, start=1):
        missing = frame.mask("gcs_total")
        if missing.any():
            total = frame.values("gcs_total")
            total[missing] = sum(frame.values(f"gcs_{part}_mean")
                                 for part in ("eye", "verbal", "motor"))[missing]
            frame = frame.with_column("gcs_total", "num", total)
        outs.append(_save(cfg, f"imputed_{k}.csv", frame, memo))

    outs.append(_save(cfg, "imputation_report.csv", _rows(
        [("variable", "str"), ("missing_count", "int"), ("missing_pct", "num")],
        [(name, count, round(pct, 4)) for name, count, pct in report])))
    return outs


def run_text(cfg):
    cohort = _load(cfg, "cohort.csv", "text", COHORT_SCHEMA)
    blocks = {}
    coverage_rows = []
    outs = []

    for prefix, source, kind in text_mod.TEXT_BLOCKS:
        # the input the block is made from, named when it has too few rows
        name = f"{kind}.csv" if source == "tfidf" else f"{kind}_emb.csv"
        path = os.path.join(cfg.data_dir, name)
        if source == "tfidf":
            notes = _read_input(cfg, kind, "text")
            ids, texts, coverage = text_mod.select_notes(notes, cohort, kind)
            coverage_rows.append((kind, coverage.covered, coverage.total, str(coverage)))
            docs = [text_mod.normalize_text(t) for t in texts]
            model = text_mod.fit_tfidf(docs, cfg.vocab_size)
            matrix = text_mod.corpus_matrix(model, docs)
            method, target = "svd", cfg.svd_target
        else:
            ids, matrix = text_mod.read_embeddings(_need(path, "text"))
            method, target = "pca", cfg.pca_target
        try:
            basis = text_mod.fit_reduced_basis(matrix, method, target)
        except TooFewRows as exc:
            raise TooFewRows(f"{path}: {exc}") from None
        blocks[prefix] = (ids, basis.transform(matrix))
        outs.append(_atomic(cfg, f"{prefix}.basis.csv",
                            lambda tmp: text_mod.save_basis(basis, tmp)))
        if source == "tfidf":
            outs.append(_save(cfg, f"{kind}_tfidf_vocab.csv", [
                ("term", "str", model.vocabulary), ("df", "int", model.df),
                ("idf", "num", model.idf)]))

    return [
        _save(cfg, "text_features.csv", text_mod.apply_text_block(cohort, blocks)),
        _save(cfg, "text_coverage.csv", _rows(
            [("kind", "str"), ("covered", "int"), ("total", "int"), ("display", "str")],
            coverage_rows)),
    ] + outs


# --- matrix assembly shared by select/fit/evaluate ---


def _load_matrices(cfg, stage, m):
    """Returns (y, keys, structured fm of each of the first ``m`` imputations,
    text fm, train rows, the "train"/"val" label of every row)."""
    imputed = [_load(cfg, f"imputed_{k}.csv", stage) for k in range(1, m + 1)]
    base = imputed[0]
    y = base.values(OUTCOME)
    keys = base.values("hadm_id").astype(int)

    feature_names = [n for n in base.names if n not in ID_COLUMNS and n != OUTCOME]
    mats = [design.from_frame(f, feature_names) for f in imputed]

    tf = _load(cfg, "text_features.csv", stage)
    aligned = join(base.select(["hadm_id"]), tf, ["hadm_id"], "left")
    text_names = [n for n in aligned.names if n != "hadm_id"]
    text_fm = design.from_frame(aligned, text_names)

    train_idx, val_idx = design.stratified_split(y, cfg.train_fraction,
                                                 stage_seed(cfg.seed, "split"))
    split = np.full(len(y), "train", dtype=object)
    split[val_idx] = "val"
    return y, keys, mats, text_fm, train_idx, split


def _variant_matrix(structured_fm, text_fm, variant):
    if variant == "structured":
        return structured_fm
    return design.hstack(structured_fm, text_fm)


def run_select(cfg):
    y, keys, (structured,), text_fm, train_idx, split = _load_matrices(cfg, "select", 1)
    outs = [_save(cfg, "split.csv", [("hadm_id", "int", keys), ("split", "str", split)])]

    for variant in VARIANTS:
        fm = _variant_matrix(structured, text_fm, variant)
        std = design.standardize(fm, train_idx)
        Xt = std.X[train_idx]
        yt = y[train_idx]

        curve = lasso.cv_deviance(
            Xt, yt, grid_size=cfg.lasso_grid, n_folds=cfg.lasso_folds,
            seed=stage_seed(cfg.seed, f"lasso:{variant}"),
            keys=keys[train_idx], rule=cfg.lasso_rule)
        lasso_names = lasso.selected_features(Xt, yt, curve.lambda_selected, std.names)

        outs.append(_save(cfg, f"cv_curve_{variant}.csv", [
            ("lambda", "num", curve.lambda_grid),
            ("mean_deviance", "num", curve.mean_deviance),
            ("se_deviance", "num", curve.se_deviance),
            ("capped_folds", "int", curve.capped_folds),
        ]))
        logg = [math.log(v) for v in curve.lambda_grid]
        outs.append(_chart(
            cfg, f"cv_curve_{variant}.svg",
            [svgplot.Series("cv deviance", logg, list(curve.mean_deviance))],
            title=f"Cross-validated binomial deviance ({variant})",
            xlabel="log(lambda)", ylabel="binomial deviance",
            vlines=((math.log(curve.lambda_min), "lambda_min"),
                    (math.log(curve.lambda_1se), "lambda_1SE"))))

        n = len(lasso_names)
        outs.append(_save(cfg, f"lasso_selected_{variant}.csv", [
            ("feature", "str", lasso_names),
            ("lambda_selected", "num", np.full(n, curve.lambda_selected)),
            ("lambda_min", "num", np.full(n, curve.lambda_min)),
            ("lambda_1se", "num", np.full(n, curve.lambda_1se)),
        ]))

        gcfg = gbt.GbtConfig(cfg.gbt_max_depth, cfg.gbt_learning_rate,
                             cfg.gbt_n_trees, cfg.gbt_subsample,
                             seed=stage_seed(cfg.seed, f"gbt:{variant}"))
        model = gbt.fit_gbt(std.X[train_idx], yt, gcfg, std.names)
        ranking = gbt.gain_importance(model)
        top_k = cfg.gbt_top_k_structured if variant == "structured" else cfg.gbt_top_k_multimodal
        gbt_names = gbt.top_k_features(model, top_k) if ranking else []

        outs.append(_save(cfg, f"gbt_importance_{variant}.csv",
                          _rows([("feature", "str"), ("gain", "num")], ranking)))
        outs.append(_atomic(cfg, f"gbt_model_{variant}.txt",
                            lambda tmp: gbt.save_model(model, tmp)))

        union = glm.consolidate_features(lasso_names, gbt_names)
        outs.append(_save(cfg, f"selected_{variant}.csv", [
            ("feature", "str", union),
            ("in_lasso", "int", [n in lasso_names for n in union]),
            ("in_gbt", "int", [n in gbt_names for n in union]),
        ]))
    # canonical single-name artifacts mirror the full (multimodal) pipeline
    outs += _alias(cfg, [("cv_curve_multimodal.csv", "cv_curve.csv"),
                         ("lasso_selected_multimodal.csv", "lasso_selected.csv"),
                         ("gbt_importance_multimodal.csv", "gbt_importance.csv")])
    return outs


def _alias(cfg, pairs):
    return [_atomic(cfg, dst,
                    lambda tmp: shutil.copyfile(os.path.join(cfg.out_dir, src), tmp))
            for src, dst in pairs]


def run_fit(cfg):
    y, keys, mats, text_fm, train_idx, split = _load_matrices(cfg, "fit", cfg.mice_m)
    outs = []

    for variant in VARIANTS:
        selected = _load(cfg, f"selected_{variant}.csv", "fit",
                         [("feature", "str"), ("in_lasso", "int"), ("in_gbt", "int")])
        feats = selected.values("feature")
        sets = {"lasso": feats[selected.values("in_lasso") == 1.0].tolist(),
                "gbt": feats[selected.values("in_gbt") == 1.0].tolist(),
                "combined": feats.tolist()}
        std_full = design.standardize(_variant_matrix(mats[0], text_fm, variant), train_idx)

        screen_rows = glm.univariate_screen(
            std_full.subset(sets["combined"]).rows(train_idx), y[train_idx])
        outs.append(_save(cfg, f"univariate_{variant}.csv", _rows(
            [("variable", "str"), ("coef", "num"), ("p_value", "num"),
             ("p_display", "str"), ("significant", "int")],
            [(r.name, r.coef, r.p, _fmt_p(r.p), r.significant) for r in screen_rows])))
        significant = {r.name for r in screen_rows if r.significant}

        kept = {}
        for fset in FEATURE_SETS:
            base = sets[fset]
            candidates = [n for n in base if n in significant] or base[:3]
            vrep = glm.vif(std_full.subset(candidates).rows(train_idx))
            kept[fset] = vrep.kept
            outs.append(_save(cfg, f"vif_{variant}_{fset}.csv", _rows(
                [("variable", "str"), ("vif", "num"), ("dropped", "int")],
                [(n, _cap_inf(v), n not in vrep.kept) for n, v in vrep.vifs.items()])))

        fits = {fset: [] for fset in FEATURE_SETS}
        probs_sum = {fset: np.zeros(len(y)) for fset in FEATURE_SETS}
        for k, fm_k in enumerate(mats):
            # each imputation on the first one's training-row scale, standardized
            # once and fitted on every feature set before the next one is made
            stdk = std_full if k == 0 else design.apply_standardization(
                _variant_matrix(fm_k, text_fm, variant), std_full.mean, std_full.scale)
            for fset in FEATURE_SETS:
                sub = stdk.subset(kept[fset])
                fit = glm.fit_logistic(sub.X[train_idx], y[train_idx], names=kept[fset])
                fits[fset].append(fit)
                probs_sum[fset] += glm.sigmoid(fit.coef[0] + sub.X @ fit.coef[1:])

        for fset in FEATURE_SETS:
            pooled = impute.rubin_pool(fits[fset])
            zstat = glm.wald_z(pooled.beta_mi, pooled.se)
            pvals = glm.wald_p(zstat)
            outs.append(_save(cfg, f"model_summary_{variant}_{fset}.csv", [
                ("variable", "str", ["intercept"] + kept[fset]),
                ("coef", "num", pooled.beta_mi),
                ("se", "num", pooled.se),
                ("z", "num", zstat),
                ("p_value", "num", pvals),
                ("ci_low", "num", pooled.beta_mi - glm.Z95 * pooled.se),
                ("ci_high", "num", pooled.beta_mi + glm.Z95 * pooled.se),
            ]))
            outs.append(_save(cfg, f"model_stats_{variant}_{fset}.csv", [
                ("key", "str", ["n_features", "pseudo_r2", "loglik", "n_train"]),
                ("value", "num", [len(kept[fset]), np.mean([f.pseudo_r2 for f in fits[fset]]),
                                  np.mean([f.loglik for f in fits[fset]]), len(train_idx)]),
            ]))
            outs.append(_save(cfg, f"predictions_{variant}_{fset}.csv", [
                ("hadm_id", "int", keys),
                ("split", "str", split),
                ("y", "int", y),
                ("prob", "num", probs_sum[fset] / len(mats)),
            ]))
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
    """NEWS2 over an imputed feature frame, inputs clamped to NEWS2_RANGES."""
    inputs = (frame.values("rr_mean"), frame.values("spo2_mean"), frame.values("sbp_mean"),
              frame.values("hr_mean"), fahrenheit_to_celsius(frame.values("bt_mean")),
              frame.values("gcs_total"))
    return news2_scores(*(np.clip(v, *NEWS2_RANGES[p])
                          for p, v in zip(NEWS2_RANGES, inputs))).astype(float)


def run_evaluate(cfg):
    frame1 = _load(cfg, "imputed_1.csv", "evaluate")
    models = {f"{variant}_{fset}": _load(cfg, f"predictions_{variant}_{fset}.csv",
                                         "evaluate", PREDICTIONS_SCHEMA)
              for variant in VARIANTS for fset in FEATURE_SETS}

    any_pf = next(iter(models.values()))
    val = any_pf.values("split") == "val"
    train = ~val
    y_all = any_pf.values("y")
    yv = y_all[val]

    news2_all = _news2_frame_scores(frame1)
    try:
        recal = glm.fit_logistic(news2_all[train], y_all[train], names=["news2"])
        news2_probs = recal.predict(news2_all[:, None])
    except SingularHessian:
        news2_probs = np.full(len(y_all), float(y_all[train].mean()))

    # (name, scores, whether the scores are probabilities)
    scored = [(name, pf.values("prob"), True) for name, pf in models.items()]
    scored += [("news2_raw", news2_all, False), ("news2_logit", news2_probs, True)]
    n_bins = min(cfg.calibration_bins, int(val.sum()))
    roc_rows, cal_rows, dca_rows, met_rows = [], [], [], []
    roc_series, dca_series, cal_series = [], [], []
    for name, scores, is_prob in scored:
        curve = roc(scores[val], yv)
        roc_rows += [(name, _cap_inf(t), fp, tp)
                     for t, fp, tp in zip(curve.thresholds, curve.fpr, curve.tpr)]
        roc_series.append(svgplot.Series(f"{name} (auc {curve.auc:.3f})",
                                         list(curve.fpr), list(curve.tpr)))
        if not is_prob:
            met_rows.append((name, curve.auc, math.nan, math.nan, math.nan))
            continue
        probs = scores[val]
        bins = calibration(probs, yv, n_bins)
        cal_rows += [(name, b, lo, hi, mean, rate, count) for b, ((lo, hi), mean, rate, count)
                     in enumerate(zip(bins.edges, bins.mean_prob, bins.event_rate,
                                      bins.counts), start=1)]
        dca = decision_curve(probs, yv, default_dca_grid(cfg.dca_grid_step))
        dca_rows += [(name, t, nb, snb) for t, nb, snb
                     in zip(dca.thresholds, dca.net_benefit, dca.standardized_net_benefit)]
        tm = threshold_metrics(probs, yv)
        met_rows.append((name, curve.auc, tm["accuracy"], tm["f1_pos"], tm["recall_pos"]))
        if name.endswith("combined") or name == "news2_logit":
            cal_series.append(svgplot.Series(name, list(bins.mean_prob),
                                             list(bins.event_rate)))
        dca_series.append(svgplot.Series(name, list(dca.thresholds),
                                         list(dca.standardized_net_benefit)))

    # the reference strategies depend on the outcomes alone, so the last
    # model's curve gives them
    for i, t in enumerate(dca.thresholds):
        dca_rows.append(("treat_all", t, dca.nb_treat_all[i], dca.snb_treat_all[i]))
        dca_rows.append(("treat_none", t, 0.0, 0.0))
    dca_series.append(svgplot.Series("treat all", list(dca.thresholds),
                                     list(dca.snb_treat_all), dash="6,4"))
    dca_series.append(svgplot.Series("treat none", list(dca.thresholds),
                                     [0.0] * len(dca.thresholds), dash="2,3"))

    diag = svgplot.Series("chance", [0.0, 1.0], [0.0, 1.0], dash="4,4")
    return [
        _save(cfg, "roc.csv", _rows(
            [("model", "str"), ("threshold", "num"), ("fpr", "num"), ("tpr", "num")],
            roc_rows)),
        _save(cfg, "calibration.csv", _rows(
            [("model", "str"), ("bin", "int"), ("prob_lo", "num"), ("prob_hi", "num"),
             ("mean_prob", "num"), ("event_rate", "num"), ("count", "int")], cal_rows)),
        _save(cfg, "dca.csv", _rows(
            [("model", "str"), ("threshold", "num"), ("net_benefit", "num"),
             ("standardized_net_benefit", "num")], dca_rows)),
        _save(cfg, "metrics.csv", _rows(
            [("model", "str")] + [(m, "num") for m in METRICS], met_rows)),
        _chart(cfg, "roc.svg", roc_series + [diag], title="ROC (validation)",
               xlabel="false positive rate", ylabel="true positive rate"),
        _chart(cfg, "calibration.svg", cal_series, title="Calibration (validation)",
               xlabel="mean predicted probability",
               ylabel="observed event rate", diagonal=True),
        _chart(cfg, "dca.svg", dca_series, title="Decision curves (validation)",
               xlabel="threshold probability",
               ylabel="standardized net benefit", ylim=(-0.5, 1.1)),
    ]


def run_report(cfg):
    rows = []
    for fset, label in (("lasso", "LASSO"), ("gbt", "GBT"), ("combined", "Combined")):
        for variant, source in (("structured", "Structured Only"),
                                ("multimodal", "Structured + Text")):
            stats = _load(cfg, f"model_stats_{variant}_{fset}.csv", "report",
                          [("key", "str"), ("value", "num")])
            kv = dict(zip(stats.values("key"), stats.values("value")))
            rows.append((label, source, kv["n_features"], kv["pseudo_r2"]))
    outs = [_save(cfg, "report.csv", _rows(
        [("model", "str"), ("feature_source", "str"), ("n_features", "int"),
         ("pseudo_r2", "num")], rows))]

    met = _load(cfg, "metrics.csv", "report", [("model", "str")] + [(m, "num") for m in METRICS])
    by_model = {name: [met.values(m)[i] for m in METRICS]
                for i, name in enumerate(met.values("model"))}
    absent = [math.nan] * len(METRICS)
    outs.append(_save(cfg, "report_metrics.csv", [
        ("metric", "str", ["AUC", "Accuracy", "F1-score (Class 1)", "Recall (Class 1)"]),
        ("structured_only", "num", by_model.get("structured_combined", absent)),
        ("structured_text", "num", by_model.get("multimodal_combined", absent)),
    ]))
    return outs


RUNNERS = dict(zip(STAGES, (run_synth, run_cohort, run_features, run_impute, run_text,
                            run_select, run_fit, run_evaluate, run_report)))


def run_stage(stage, cfg):
    """Run one named stage; returns the list of artifact paths written."""
    if stage not in RUNNERS:
        raise ValueError(f"unknown stage {stage!r}")
    # the one directory the stage writes: synth makes the input tables
    written = cfg.data_dir if stage == "synth" else cfg.out_dir
    try:
        os.makedirs(written, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot make directory {written}: {exc.strerror or exc}") from None
    return RUNNERS[stage](cfg)


def run_all(cfg, stages=STAGES):
    out = []
    for stage in stages:
        out.extend(run_stage(stage, cfg))
    return out
