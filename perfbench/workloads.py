"""Workload definitions and their input generation (the benchmark's set-up).

Each workload is a RunConfig override set. Inputs are made by the program's
own ``synth`` stage from the workload seed; ``long_stays`` then appends
hourly charting for hours 24-95 of every stay to chartevents.csv. All
appended rows fall outside the first-24h window, so the structured features
built from the extended tables must equal those built from the originals.
README.md says why each workload exists and which layers it stresses.
"""

import csv
import os

import numpy as np

# Every workload validates on 40% of its cohort (train_fraction 0.6), so the
# validation AUCs rest on 160-200 patients and stay clear of the 0.5 floor
# that the output check enforces.
WORKLOADS = {
    # many columns: L1 cross-validation, the split scan over ~200 features,
    # and text reduction of note embeddings
    "wide_notes": dict(synth_n=400, synth_emb_dim=64, vocab_size=200, train_fraction=0.6,
                       lasso_grid=8, lasso_folds=2, gbt_n_trees=8, mice_m=3),
    # many rows, few columns: checkpoint CSV I/O, chained-equation imputation,
    # boosted trees over many rows
    "tall_cohort": dict(synth_n=500, synth_emb_dim=16, vocab_size=50, train_fraction=0.6,
                        lasso_grid=3, lasso_folds=2, gbt_n_trees=10, mice_m=5),
    # post-window charting: read-dominated frame I/O and 24h windowing
    "long_stays": dict(synth_n=400, synth_emb_dim=16, vocab_size=50, train_fraction=0.6,
                       lasso_grid=3, lasso_folds=2, gbt_n_trees=10, mice_m=3),
}

EXTENDED = ("long_stays",)

# (itemid, unit, low, high) charted every hour of days 2-4: hr, sbp, dbp,
# mbp, rr, temperature (F), spo2 and the three coma-scale components
HOURLY_ITEMS = (
    (220045, "", 55.0, 130.0), (220179, "", 85.0, 170.0), (220180, "", 40.0, 95.0),
    (220181, "", 55.0, 115.0), (220210, "", 10.0, 32.0), (223761, "F", 96.0, 102.5),
    (220277, "", 88.0, 100.0), (220739, "", 1.0, 4.0), (223900, "", 1.0, 5.0),
    (223901, "", 1.0, 6.0),
)
FIRST_HOUR, LAST_HOUR = 24, 96


def run_config(workload, seed, data_dir, out_dir):
    return dict(WORKLOADS[workload], seed=seed, data_dir=data_dir, out_dir=out_dir)


def _stay_intimes(data_dir):
    """stay_id -> (subject_id, hadm_id, intime) for stays that already chart."""
    with open(os.path.join(data_dir, "chartevents.csv"), newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        charted = {row["stay_id"] for row in reader}
    out = {}
    with open(os.path.join(data_dir, "icustays.csv"), newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["stay_id"] in charted:
                out[row["stay_id"]] = (row["subject_id"], row["hadm_id"], row["intime"])
    return out


def extend_chartevents(data_dir, seed):
    """Append hourly rows for hours 24-95 of each stay that already charts."""
    rng = np.random.default_rng([seed, 0x10E57A])
    stays = _stay_intimes(data_dir)
    hours = np.arange(FIRST_HOUR, LAST_HOUR)
    items = np.array([i[0] for i in HOURLY_ITEMS])
    units = [i[1] for i in HOURLY_ITEMS]
    low = np.array([i[2] for i in HOURLY_ITEMS])
    high = np.array([i[3] for i in HOURLY_ITEMS])
    path = os.path.join(data_dir, "chartevents.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for stay_id in sorted(stays, key=int):
            subject_id, hadm_id, intime = stays[stay_id]
            base = np.datetime64(intime.replace(" ", "T"), "s")
            offsets = hours * 3600 + rng.integers(0, 3600, hours.size)
            stamps = np.datetime_as_string(base + offsets.astype("timedelta64[s]"), unit="s")
            values = np.round(rng.uniform(low, high, (hours.size, items.size)), 1)
            for h, stamp in enumerate(stamps):
                charttime = stamp.replace("T", " ")
                for k, itemid in enumerate(items):
                    cell = {"subject_id": subject_id, "hadm_id": hadm_id,
                            "stay_id": stay_id, "charttime": charttime,
                            "itemid": str(itemid), "valuenum": repr(float(values[h, k])),
                            "valueuom": units[k]}
                    writer.writerow([cell.get(name, "") for name in header])
