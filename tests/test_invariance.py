"""End-to-end invariances of a pipeline run, and the checkpoints it keeps.

The output directory does not depend on the order of any input table's
rows, nor on the BLAS thread count. A checkpoint that ``_load`` serves
from memory equals what ``read_csv`` reads from the file, and a file
rewritten by another writer is read from disk.
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from riskforge import pipeline
from riskforge.config import RunConfig
from riskforge.frame import read_csv, read_header

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
SMALL = dict(synth_n=120, synth_emb_dim=8, synth_text_signal=1.5, vocab_size=40,
             train_fraction=0.6, lasso_grid=4, lasso_folds=2, gbt_n_trees=4,
             mice_m=2, seed=31)
HR_ITEM = 220045
# heart rates added to each of the first TIED_STAYS stays (hours after
# admission, value): summed in input order, the three simultaneous ones
# can give a mean that differs in the last bit, and the lone 31.2 pools
# with the wrong readings if charttime does not order the pooling; with
# several stays, a shuffle puts some of them out of their input order
EXTRA_HR = ((1, 31.0), (1, 31.1), (1, 31.2), (2, 31.2))
TIED_STAYS = 4


def config(data, out):
    return RunConfig(data_dir=str(data), out_dir=str(out), **SMALL)


def read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_table(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + rows)


def tree_bytes(root):
    return {name: (root / name).read_bytes() for name in sorted(os.listdir(root))}


def bitwise_equal(a, b):
    if a.dtype == object or b.dtype == object:
        return a.dtype == b.dtype and a.tolist() == b.tolist()
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def add_simultaneous_readings(data_dir, probe_dir):
    """Append EXTRA_HR for the first TIED_STAYS cohort stays to chartevents.csv."""
    pipeline.run_stage("cohort", config(data_dir, probe_dir))
    _, cohort = read_table(probe_dir / "cohort.csv")
    header, rows = read_table(data_dir / "chartevents.csv")
    for subject, hadm, stay, intime in (r[:4] for r in cohort[:TIED_STAYS]):
        base = np.datetime64(intime.replace(" ", "T"), "s")
        for hours, value in EXTRA_HR:
            stamp = str(base + np.timedelta64(hours * 3600, "s")).replace("T", " ")
            cell = {"subject_id": subject, "hadm_id": hadm, "stay_id": stay,
                    "charttime": stamp, "itemid": str(HR_ITEM), "valuenum": repr(value),
                    "valueuom": "bpm"}
            rows.append([cell[name] for name in header])
    write_table(data_dir / "chartevents.csv", header, rows)


def shuffled_copy(data_dir, target, seed):
    """Every input table of ``data_dir`` with its rows in a random order."""
    rng = np.random.default_rng(seed)
    target.mkdir()
    for name in sorted(os.listdir(data_dir)):
        header, rows = read_table(data_dir / name)
        write_table(target / name, header, [rows[i] for i in rng.permutation(len(rows))])


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    """A small run_all on inputs with tied readings, every ``_load`` checked
    against read_csv of its file; returns (root, [(name, from memory)])."""
    root = tmp_path_factory.mktemp("invariance")
    cfg = config(root / "data", root / "out")
    pipeline.run_stage("synth", cfg)
    add_simultaneous_readings(root / "data", root / "probe")

    loads = []
    load = pipeline._load

    def checked(cfg, name, stage, schema=None):
        disk_reads = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "read_csv",
                       lambda *args: disk_reads.append(args) or read_csv(*args))
            frame = load(cfg, name, stage, schema)
        path = os.path.join(cfg.out_dir, name)
        if schema is None:
            schema = pipeline._features_schema(read_header(path))
        disk = read_csv(path, schema)
        assert frame.names == disk.names
        assert [frame.kind(n) for n in frame.names] == [disk.kind(n) for n in disk.names]
        assert all(bitwise_equal(frame._columns[i], disk._columns[i])
                   for i in range(frame.n_cols)), name
        loads.append((name, not disk_reads))
        return frame

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_load", checked)
        pipeline.run_all(cfg, pipeline.STAGES[1:])
    return root, loads


def test_loads_of_this_process_checkpoints_are_served_from_memory(base_run):
    _, loads = base_run
    assert len(loads) >= 20
    assert [name for name, from_memory in loads if not from_memory] == []


def test_served_frames_are_read_only(base_run):
    root, _ = base_run
    frame = pipeline._load(config(root / "data", root / "out"), "imputed_1.csv", "fit")
    assert not any(c.flags.writeable for c in frame._columns)


def test_shuffled_input_rows_write_identical_outputs(base_run, tmp_path):
    root, _ = base_run
    shuffled_copy(root / "data", tmp_path / "data", seed=3)
    pipeline.run_all(config(tmp_path / "data", tmp_path / "out"), pipeline.STAGES[1:])
    base, shuffled = tree_bytes(root / "out"), tree_bytes(tmp_path / "out")
    assert sorted(base) == sorted(shuffled)
    assert [n for n in base if base[n] != shuffled[n]] == []


def test_blas_thread_count_does_not_change_outputs(base_run, tmp_path):
    root, _ = base_run
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]);"
              "from riskforge.config import RunConfig; from riskforge import pipeline;"
              "pipeline.run_all(RunConfig(**json.loads(sys.argv[2])), pipeline.STAGES[1:])")
    procs = {}
    for threads in (1, 2):
        cfg = dict(SMALL, data_dir=str(root / "data"), out_dir=str(tmp_path / f"t{threads}"))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        procs[threads] = subprocess.Popen([sys.executable, "-c", script, SRC, json.dumps(cfg)],
                                          env=env, stderr=subprocess.PIPE)
    for threads, proc in procs.items():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()[-2000:]
    one, two = tree_bytes(tmp_path / "t1"), tree_bytes(tmp_path / "t2")
    assert sorted(one) == sorted(two) == sorted(tree_bytes(root / "out"))
    assert [n for n in one if one[n] != two[n]] == []


class TestRewrittenCheckpoint:
    """A checkpoint another writer replaces between stages is read from disk."""

    @pytest.fixture
    def run(self, base_run, tmp_path):
        root, _ = base_run
        shutil.copytree(root / "out", tmp_path / "out")
        cfg = config(root / "data", tmp_path / "out")
        for stage in ("evaluate", "report"):  # saved by this process again
            pipeline.run_stage(stage, cfg)
        return cfg, tmp_path / "out" / "metrics.csv"

    def auc_in_report(self, cfg):
        pipeline.run_stage("report", cfg)
        header, rows = read_table(os.path.join(cfg.out_dir, "report_metrics.csv"))
        return rows[0][header.index("structured_text")]

    def test_new_inode_with_the_same_size(self, run):
        cfg, path = run
        header, rows = read_table(path)
        row = next(r for r in rows if r[0] == "multimodal_combined")
        row[1] = "0." + "7" * (len(row[1]) - 2)
        size = path.stat().st_size
        write_table(f"{path}.new", header, rows)
        os.replace(f"{path}.new", path)
        assert path.stat().st_size == size
        assert float(self.auc_in_report(cfg)) == float(row[1])

    def test_new_content_in_place(self, run):
        cfg, path = run
        header, rows = read_table(path)
        inode = path.stat().st_ino
        next(r for r in rows if r[0] == "multimodal_combined")[1] = "0.5"
        write_table(path, header, rows)
        assert path.stat().st_ino == inode
        assert float(self.auc_in_report(cfg)) == 0.5
