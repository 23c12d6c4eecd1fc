"""The benchmark's tracer still binds the library.

``perfbench/tracing.py`` replaces the traced functions by name, and its
counters read their arguments and results, so a rename or a changed return
would otherwise show only when the benchmark runs. A small pipeline runs
traced in a subprocess, since the tracer rebinds module attributes for the
whole process, with its stages spanned as ``perfbench/worker.py`` spans
them.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = r"""
import csv, json, sys
root, data, out = sys.argv[1:4]
sys.path[:0] = [root + "/src", root + "/perfbench"]
from riskforge import pipeline
from riskforge.config import RunConfig
import tracing

cfg = RunConfig(data_dir=data, out_dir=out, synth_n=120, synth_emb_dim=8,
                synth_text_signal=1.5, vocab_size=40, train_fraction=0.6,
                lasso_grid=4, lasso_folds=2, gbt_n_trees=4, mice_m=2, seed=31)
pipeline.run_stage("synth", cfg)
# the features read skips canonical rows outside the 24 h window, so two
# rows that only window_24h drops keep window_rows_in above window_rows_kept:
# one naming no stay, and one whose time is off the canonical form
with open(data + "/icustays.csv", newline="") as fh:
    stay = next(csv.DictReader(fh))
path = data + "/chartevents.csv"
with open(path, newline="") as fh:
    header = next(csv.reader(fh))
with open(path, "a", newline="") as fh:
    for stay_id, charttime in (("999999999", stay["intime"]),
                               (stay["stay_id"], stay["intime"].replace(" ", "T"))):
        cells = {"stay_id": stay_id, "charttime": charttime, "itemid": "220045",
                 "valuenum": "80.0"}
        csv.writer(fh).writerow([cells.get(name, "") for name in header])
tracer = tracing.Tracer()
tracer.install()
for stage in tracing.STAGES:
    tracer.run_span(f"pipeline.{stage}", pipeline.run_stage, stage, cfg)
json.dump(tracing.layer_metrics(tracer.spans, tracer.counters), sys.stdout)
"""
# per-layer metrics that run.py adds itself, outside layer_metrics
ADDED_BY_RUN = ("trace.", "synth.generate_s")


def test_every_per_layer_metric_is_finite(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, ROOT, str(tmp_path / "data"), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = json.loads(proc.stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    wanted = [n for n in names if not n.startswith(ADDED_BY_RUN)]
    assert len(wanted) == len(names) - 4
    assert [n for n in wanted if not math.isfinite(metrics.get(n, math.nan))] == []
    assert metrics["harmonize.window_rows_in"] > metrics["harmonize.window_rows_kept"] > 0
    assert all(metrics[f"pipeline.{stage}_s"] > 0 for stage in ("cohort", "features", "text"))
