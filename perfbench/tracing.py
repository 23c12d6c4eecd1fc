"""Span recorder and kernel counters for the traced benchmark run.

Spans are recorded from outside the program: ``install`` replaces public
functions of the riskforge modules with wrappers. Because the pipeline binds
many of them by name (``from .frame import read_csv``), every module
attribute that refers to the same function object is replaced, not only the
defining one. The two numeric kernels run up to tens of thousands of times per
run, so they get counters instead of spans.

Spans live in memory as ``[name, start, end, parent_index]`` lists and are
written out once, when the traced run ends. ``layer_metrics`` turns a span
list plus counters into the per-layer metrics of BENCHMARK.json.
"""

import os
import sys
import time
from collections import defaultdict

# (module, function) pairs that get one span per call
TRACED = (
    ("frame", "read_csv"), ("frame", "write_csv"), ("frame", "join"),
    ("frame", "aggregate_by_key"),
    ("cohort", "build_cohort"),
    ("harmonize", "build_structured_features"), ("harmonize", "window_24h"),
    ("impute", "mice_impute"), ("impute", "impute_single"),
    ("text", "normalize_text"), ("text", "fit_tfidf"), ("text", "corpus_matrix"),
    ("text", "fit_reduced_basis"), ("text", "read_embeddings"),
    ("text", "apply_text_block"), ("text", "save_basis"),
    ("design", "from_frame"), ("design", "standardize"),
    ("design", "apply_standardization"), ("design", "hstack"),
    ("design", "stratified_split"),
    ("lasso", "cv_deviance"), ("lasso", "selected_features"),
    ("gbt", "fit_gbt"), ("gbt", "save_model"),
    ("glm", "fit_logistic"), ("glm", "univariate_screen"), ("glm", "vif"),
    ("scoring", "roc"), ("scoring", "calibration"), ("scoring", "decision_curve"),
    ("scoring", "threshold_metrics"),
    ("svgplot", "line_chart"),
)

STAGES = ("cohort", "features", "impute", "text", "select", "fit", "evaluate", "report")
LAYERS = ("pipeline",) + tuple(dict.fromkeys(m for m, _ in TRACED))


def _count_read(c, args, kwargs, result):
    c["frame.read_rows"] += result.n_rows
    c["frame.read_mb"] += os.path.getsize(args[0]) / 1e6


def _count_write(c, args, kwargs, result):
    c["frame.write_mb"] += os.path.getsize(args[1]) / 1e6


def _count_join(c, args, kwargs, result):
    c["frame.join_rows"] += args[0].n_rows + args[1].n_rows


def _count_window(c, args, kwargs, result):
    c["harmonize.window_rows_in"] += args[0].n_rows
    c["harmonize.window_rows_kept"] += result[0].n_rows


def _count_mice(c, args, kwargs, result):
    frame, cfg = args[0], args[1]
    columns = args[2] if len(args) > 2 else kwargs.get("columns")
    if columns is None:
        columns = [n for n in frame.names if frame.kind(n) == "num"]
    incomplete = sum(1 for n in columns if frame.mask(n).any())
    c["impute.mice_regressions"] += cfg.m * cfg.max_iter * incomplete


def _count_reduce(c, args, kwargs, result):
    c["text.reduce_retained"] += result.retained


def _count_gbt(c, args, kwargs, result):
    c["gbt.trees"] += len(result.trees)


ON_RESULT = {
    "frame.read_csv": _count_read, "frame.write_csv": _count_write,
    "frame.join": _count_join, "harmonize.window_24h": _count_window,
    "impute.mice_impute": _count_mice, "text.fit_reduced_basis": _count_reduce,
    "gbt.fit_gbt": _count_gbt,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span, start):
        span[2] = time.perf_counter()
        span[1] = start
        self._stack.pop()

    def run_span(self, name, fn, *args):
        span = self._open(name)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(span, start)

    def _wrap(self, name, fn):
        on_result = ON_RESULT.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, start)
            if on_result is not None:
                on_result(self.counters, args, kwargs, result)
            return result

        return traced

    def _wrap_lasso_cd(self, fn):
        c = self.counters

        def counted(*args):
            start = time.perf_counter()
            b0, sweeps, converged = fn(*args)
            c["lasso.cd_s"] += time.perf_counter() - start
            c["lasso.cd_solves"] += 1
            c["lasso.cd_sweeps"] += sweeps
            c["lasso.cd_converged"] += bool(converged)
            return b0, sweeps, converged

        return counted

    def _wrap_split_scan(self, fn):
        c = self.counters

        def counted(vals, *rest):
            c["gbt.split_scans"] += 1
            c["gbt.split_rows"] += vals.shape[0]
            return fn(vals, *rest)

        return counted

    def _replace_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "riskforge" or mod_name.startswith("riskforge.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)

    def install(self):
        import importlib

        for mod_name, fn_name in TRACED:
            mod = importlib.import_module(f"riskforge.{mod_name}")
            original = getattr(mod, fn_name)
            self._replace_everywhere(original, self._wrap(f"{mod_name}.{fn_name}", original))
        kernels = importlib.import_module("riskforge._kernels")
        self._replace_everywhere(kernels.lasso_cd, self._wrap_lasso_cd(kernels.lasso_cd))
        self._replace_everywhere(kernels.split_scan, self._wrap_split_scan(kernels.split_scan))


def _outer_time(spans, names):
    """Summed duration of spans named in ``names`` with no such ancestor."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def _self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_times(spans):
    """Self time summed per layer (the module part of the span name)."""
    out = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, _self_times(spans)):
        out[span[0].split(".", 1)[0]] += own
    return out


def layer_metrics(spans, counters):
    """Per-layer metric values (BENCHMARK.json ``per_layer`` names, minus trace.*)."""
    c = defaultdict(float, counters)

    def t(*names):
        return _outer_time(spans, set(names))

    def calls(name):
        return float(sum(1 for s in spans if s[0] == name))

    own_build = sum(own for span, own in zip(spans, _self_times(spans))
                    if span[0] == "harmonize.build_structured_features")

    m = {f"pipeline.{s}_s": t(f"pipeline.{s}") for s in STAGES}
    m.update({
        "frame.read_csv_s": t("frame.read_csv"),
        "frame.read_csv_calls": calls("frame.read_csv"),
        "frame.read_rows": c["frame.read_rows"],
        "frame.read_mb": c["frame.read_mb"],
        "frame.write_csv_s": t("frame.write_csv"),
        "frame.write_csv_calls": calls("frame.write_csv"),
        "frame.write_mb": c["frame.write_mb"],
        "frame.join_s": t("frame.join"),
        "frame.join_rows": c["frame.join_rows"],
        "frame.aggregate_s": t("frame.aggregate_by_key"),
        "cohort.build_s": t("cohort.build_cohort"),
        "harmonize.build_s": own_build,
        "harmonize.window_s": t("harmonize.window_24h"),
        "harmonize.window_rows_in": c["harmonize.window_rows_in"],
        "harmonize.window_rows_kept": c["harmonize.window_rows_kept"],
        "harmonize.window_keep_ratio":
            c["harmonize.window_rows_kept"] / max(c["harmonize.window_rows_in"], 1.0),
        "impute.mice_s": t("impute.mice_impute"),
        "impute.mice_regressions": c["impute.mice_regressions"],
        "impute.single_s": t("impute.impute_single"),
        "text.normalize_s": t("text.normalize_text"),
        "text.tfidf_s": t("text.fit_tfidf", "text.corpus_matrix"),
        "text.reduce_s": t("text.fit_reduced_basis"),
        "text.reduce_retained": c["text.reduce_retained"],
        "text.embed_read_s": t("text.read_embeddings"),
        "text.block_s": t("text.apply_text_block"),
        "text.basis_write_s": t("text.save_basis"),
        "design.s": t("design.from_frame", "design.standardize",
                      "design.apply_standardization", "design.hstack",
                      "design.stratified_split"),
        "lasso.cv_s": t("lasso.cv_deviance"),
        "lasso.refit_s": t("lasso.selected_features"),
        "lasso.cd_s": c["lasso.cd_s"],
        "lasso.cd_solves": c["lasso.cd_solves"],
        "lasso.cd_sweeps": c["lasso.cd_sweeps"],
        "lasso.cd_converged_ratio": c["lasso.cd_converged"] / max(c["lasso.cd_solves"], 1.0),
        "gbt.fit_s": t("gbt.fit_gbt"),
        "gbt.trees": c["gbt.trees"],
        "gbt.split_scans": c["gbt.split_scans"],
        "gbt.split_rows": c["gbt.split_rows"],
        "gbt.save_s": t("gbt.save_model"),
        "glm.fit_logistic_s": t("glm.fit_logistic"),
        "glm.fit_logistic_calls": calls("glm.fit_logistic"),
        "glm.screen_s": t("glm.univariate_screen"),
        "glm.vif_s": t("glm.vif"),
        "scoring.s": t("scoring.roc", "scoring.calibration", "scoring.decision_curve",
                       "scoring.threshold_metrics"),
        "svgplot.line_chart_s": t("svgplot.line_chart"),
    })
    for layer, secs in self_times(spans).items():
        m[f"{layer}.self_s"] = secs
    return m
