#!/usr/bin/env python3
"""riskforge benchmark: the pipeline stages cohort..report on generated inputs.

    python3 perfbench/run.py --workload wide_notes --seed 1 --seconds 30 --trace 0

Run from the repository root (the program is imported from ./src). Set-up
generates two input sets from --seed and times each. The measured loop then
runs the whole pipeline on them in turn, each run in a fresh child process,
for about --seconds. Every run's outputs are checked. The last line of
standard output is one JSON object; with --trace 1 half of the runs are
traced and the metrics are the per-layer ones.
See README.md in this directory.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

BLAS_THREADS = 1
# input sets generated per run; averaging over them steadies figures across seeds
DATASETS = 2
# each input set is generated this often; setup_s is the median of all times
SETUP_REPEATS = 2
# every input set runs once and the first one twice, for the rerun digest
# check; a traced run runs each set untraced and then traced
MIN_RUNS = {0: DATASETS + 1, 1: 2 * DATASETS}
RUN_TIMEOUT_S = 150
# no run is started that could end later than this after start-up
TIME_LIMIT_S = 160

# artifacts every run_all must leave ({k} = 1..mice_m)
EXPECTED = (
    "cohort.csv", "structured_features.csv", "plausibility_table.csv",
    "harmonization_report.csv", "imputed_{k}.csv", "imputation_report.csv",
    "text_features.csv", "text_coverage.csv", "disch_tfidf_svd.basis.csv",
    "radio_tfidf_svd.basis.csv", "discharge_bert_pca.basis.csv",
    "radiology_bert_pca.basis.csv", "discharge_tfidf_vocab.csv",
    "radiology_tfidf_vocab.csv", "split.csv", "cv_curve.csv", "lasso_selected.csv",
    "gbt_importance.csv", "univariate_report.csv", "vif_report.csv",
    "model_summary.csv", "roc.csv", "calibration.csv", "dca.csv", "metrics.csv",
    "roc.svg", "calibration.svg", "dca.svg", "report.csv", "report_metrics.csv",
) + tuple(f"{name}_{v}.{ext}" for v in ("structured", "multimodal")
          for name, ext in (("cv_curve", "csv"), ("cv_curve", "svg"),
                            ("lasso_selected", "csv"), ("gbt_importance", "csv"),
                            ("gbt_model", "txt"), ("selected", "csv"),
                            ("univariate", "csv"))) \
  + tuple(f"{name}_{v}_{f}.csv" for v in ("structured", "multimodal")
          for f in ("lasso", "gbt", "combined")
          for name in ("vif", "model_summary", "model_stats", "predictions"))

AUC_MODELS = {"val_auc_multimodal": "multimodal", "val_auc_structured": "structured"}


class CheckFailed(Exception):
    pass


def tree_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(root):
        dirnames.sort()
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def pairwise_auc(scores, labels):
    pos = scores[labels == 1.0]
    neg = scores[labels == 0.0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins) / (pos.size * neg.size)


def check_outputs(out_dir, artifacts, mice_m, reference):
    """Raises CheckFailed; returns {"val_auc_*": auc} on success."""
    import numpy as np

    names = [n.format(k=k) for n in EXPECTED
             for k in (range(1, mice_m + 1) if "{k}" in n else (0,))]
    missing = [n for n in names if not os.path.isfile(os.path.join(out_dir, n))]
    missing += [p for p in artifacts if not os.path.isfile(p)]
    if missing:
        raise CheckFailed(f"missing artifacts: {missing[:5]}")

    with open(os.path.join(out_dir, "metrics.csv"), newline="", encoding="utf-8") as fh:
        reported = {r["model"]: float(r["auc"]) for r in csv.DictReader(fh)}
    aucs = {}
    for metric, variant in AUC_MODELS.items():
        model = f"{variant}_combined"
        auc = reported.get(model, math.nan)
        if not (math.isfinite(auc) and 0.5 <= auc <= 1.0):
            raise CheckFailed(f"{model} validation AUC {auc} outside [0.5, 1]")
        with open(os.path.join(out_dir, f"predictions_{model}.csv"), newline="",
                  encoding="utf-8") as fh:
            val = [r for r in csv.DictReader(fh) if r["split"] == "val"]
        oracle = pairwise_auc(np.array([float(r["prob"]) for r in val]),
                              np.array([float(r["y"]) for r in val]))
        if abs(oracle - auc) > 1e-9:
            raise CheckFailed(f"{model} AUC {auc} but pairwise count gives {oracle}")
        aucs[metric] = auc

    if reference is not None:
        with open(os.path.join(out_dir, "structured_features.csv"), "rb") as fh:
            if fh.read() != reference:
                raise CheckFailed("structured_features.csv differs from the one "
                                  "built without the post-window rows")
    return aucs


def bayes_auc(data_dir):
    with open(os.path.join(data_dir, "ground_truth.csv"), newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["kind"] == "meta" and row["name"] == "bayes_auc":
                return float(row["value"])
    raise CheckFailed("ground_truth.csv has no bayes_auc")


def dataset_seed(seed, k):
    """Seed of the k-th input set of a run; distinct for every (seed, k)."""
    return DATASETS * seed + k


def set_up(workload, seed, work):
    """Generate DATASETS input sets, each SETUP_REPEATS times, and time it.

    Returns ([(seed, data_dir, reference bytes or None)], setup times,
    synth times). A repeat must reproduce the first generation byte for
    byte. The reference is structured_features.csv built before the
    post-window rows are appended, for workloads that append them.
    """
    from riskforge import pipeline
    from riskforge.config import RunConfig

    import workloads

    datasets, times, synth_times = [], [], []
    for k in range(DATASETS):
        ds_seed = dataset_seed(seed, k)
        digests, reference = set(), None
        for r in range(SETUP_REPEATS):
            data = os.path.join(work, f"data{k}-{r}")
            cfg = RunConfig(**workloads.run_config(workload, ds_seed, data,
                                                   os.path.join(work, f"reference{k}")))
            start = time.perf_counter()
            pipeline.run_synth(cfg)
            synth_times.append(time.perf_counter() - start)
            extend_s = 0.0
            if workload in workloads.EXTENDED:
                if reference is None:
                    for stage in ("cohort", "features"):
                        pipeline.run_stage(stage, cfg)
                    with open(os.path.join(cfg.out_dir, "structured_features.csv"),
                              "rb") as fh:
                        reference = fh.read()
                start = time.perf_counter()
                workloads.extend_chartevents(data, ds_seed)
                extend_s = time.perf_counter() - start
            times.append(synth_times[-1] + extend_s)
            digests.add(tree_digest(data))
            if r:
                shutil.rmtree(data)
        if len(digests) != 1:
            raise CheckFailed(f"input set {k} came out different on regeneration")
        datasets.append((ds_seed, os.path.join(work, f"data{k}-0"), reference))
    return datasets, times, synth_times


def run_once(workload, seed, data, out, traced):
    import workloads

    shutil.rmtree(out, ignore_errors=True)
    config = json.dumps(workloads.run_config(workload, seed, data, out))
    result_path = out + ".json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), SRC, config,
         "1" if traced else "0", result_path],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise CheckFailed(f"pipeline exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def median_run(runs):
    ordered = sorted(runs, key=lambda r: r["pipeline_s"])
    return ordered[(len(ordered) - 1) // 2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # a plain exit on SIGTERM, so the running child is killed and awaited
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "riskforge", "pipeline.py")):
        print(f"riskforge sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import numpy as np
    import riskforge
    from riskforge import _kernels

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    if not os.path.abspath(riskforge.__file__).startswith(SRC + os.sep):
        print(f"imported riskforge from {riskforge.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env_info = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                "numpy": np.__version__, "blas_threads": BLAS_THREADS,
                "using_numba": bool(_kernels.USING_NUMBA)}
    print("env " + json.dumps(env_info))

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    mice_m = workloads.WORKLOADS[args.workload]["mice_m"]
    runs, failures, digests, aucs = [], [], {}, {}
    try:
        datasets, setup_times, synth_times = set_up(args.workload, args.seed, work)
        truth_auc = statistics.median(bayes_auc(d) for _, d, _ in datasets)
        measure_start = time.perf_counter()
        durations = []
        min_runs = MIN_RUNS[args.trace]
        for attempt in range(10 * min_runs):
            # trace mode runs each input set untraced, then traced
            traced = bool(args.trace) and attempt % 2 == 1
            k = (attempt // 2 if args.trace else attempt) % DATASETS
            ds_seed, data, reference = datasets[k]
            out = os.path.join(work, "out")
            begin = time.perf_counter()
            try:
                result = run_once(args.workload, ds_seed, data, out, traced)
                got = check_outputs(out, result["artifacts"], mice_m, reference)
                digest = tree_digest(out)
                if digests.setdefault(k, digest) != digest:
                    raise CheckFailed(f"outputs of input set {k} differ from its first run")
                aucs[k] = got
                result.update(traced=traced, dataset=k)
                runs.append(result)
            except (CheckFailed, subprocess.TimeoutExpired, OSError, ValueError) as exc:
                failures.append(str(exc))
                print(f"run {attempt + 1} failed: {exc}", file=sys.stderr)
            now = time.perf_counter()
            durations.append(now - begin)
            # stop where the measured time comes closest to --seconds
            typical = statistics.median(durations)
            if attempt + 1 >= min_runs and (
                    now - measure_start + typical / 2 > args.seconds
                    or now - started + max(durations) > TIME_LIMIT_S):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    plain = [r for r in runs if not r["traced"]]
    traced_runs = [r for r in runs if r["traced"]]
    attempted = len(runs) + len(failures)
    if not plain or (args.trace and not traced_runs):
        print("no run completed; nothing to report", file=sys.stderr)
        return 1

    pipeline_s = [r["pipeline_s"] for r in plain]
    q1, q3 = quartiles(pipeline_s)
    print(f"runs {len(plain)} untraced, {len(traced_runs)} traced, over {DATASETS} input "
          f"sets; pipeline_s median {statistics.median(pipeline_s):.4f} "
          f"q1 {q1:.4f} q3 {q3:.4f}")
    print(f"error_rate {len(failures) / attempted:.4f} ratio "
          f"({len(failures)} of {attempted} runs failed); "
          f"bayes_auc median {truth_auc:.4f}")

    if args.trace:
        traced_run = median_run(traced_runs)
        untraced_twin = [r for r in plain if r["dataset"] == traced_run["dataset"]] or plain
        metrics = tracing.layer_metrics(traced_run["spans"], traced_run["counters"])
        metrics["synth.generate_s"] = statistics.median(synth_times)
        metrics["trace.pipeline_s"] = traced_run["pipeline_s"]
        metrics["trace.overhead_s"] = (traced_run["pipeline_s"]
                                       - statistics.median(r["pipeline_s"] for r in untraced_twin))
        metrics["trace.spans"] = float(len(traced_run["spans"]))
        units = {name: _unit(name) for name in metrics}
        print(f"{'layer':<10} {'self_s':>9} {'share':>7}")
        for layer in tracing.LAYERS:
            secs = metrics[f"{layer}.self_s"]
            print(f"{layer:<10} {secs:9.4f} {secs / traced_run['pipeline_s']:7.1%}")
    else:
        # median per input set, then the mean over sets, so that each set
        # weighs the same however many runs it got
        per_set = [statistics.median(r["pipeline_s"] for r in plain if r["dataset"] == k)
                   for k in sorted({r["dataset"] for r in plain})]
        metrics = {
            "pipeline_s": statistics.fmean(per_set),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": statistics.median(setup_times),
        }
        for name in AUC_MODELS:
            metrics[name] = statistics.fmean(a[name] for a in aucs.values())
        units = {"pipeline_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
                 "val_auc_multimodal": "AUC", "val_auc_structured": "AUC"}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
