"""Physiological harmonization of raw event tables.

Turns the ICU event tables into one patient-level frame: first-24h
windowing of every event table, unit alignment (temperature, arterial vs
cuff blood pressure), plausibility masking with per-rule removal counts,
per-key mean/min/max of the long-format (variable, value) events through
``frame.aggregate_by_key``, GCS totals, and binary comorbidity/treatment
flags. Each itemid becomes its name's position in ``CHART_NAMES`` or
``LAB_NAMES``: pooling, masking and aggregation work on that integer code.

The window is stated once, in ``stay_window``: each stay's [intime,
intime + WINDOW_SECONDS). ``window_24h`` applies it exactly to parsed
events, and the features stage passes it to ``read_csv`` so that the
event reads skip the lines that provably fall outside it.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ComponentOutOfRange
from .frame import (PatientFrame, Window, aggregate_by_key, index_of, join,
                    require_unique, segment_means)

WINDOW_SECONDS = 24 * 3600.0

# chartevents itemid -> harmonized vital name
VITAL_ITEMS = {
    220045: "hr",
    220050: "sbp", 220179: "sbp",
    220051: "dbp", 220180: "dbp",
    220052: "mbp", 220181: "mbp",
    220210: "rr",
    223761: "bt", 223762: "bt",
    220277: "spo2",
}
CELSIUS_ITEM = 223762  # a temperature charted in Celsius under any unit label

GCS_ITEMS = {220739: "gcs_eye", 223900: "gcs_verbal", 223901: "gcs_motor"}

LAB_ITEMS = {
    51221: "hematocrit", 51222: "hemoglobin", 51265: "platelet", 51301: "wbc",
    51274: "pt", 51237: "inr", 50912: "creatinine", 51006: "bun",
    50931: "glucose", 50971: "potassium", 50983: "sodium", 50893: "calcium",
    50902: "chloride", 50868: "anion_gap", 50882: "bicarbonate",
    50813: "lactate", 50820: "ph",
}

VITAL_NAMES = ("hr", "sbp", "dbp", "mbp", "rr", "bt", "spo2")
LAB_NAMES = tuple(sorted(set(LAB_ITEMS.values())))
GCS_NAMES = ("gcs_eye", "gcs_verbal", "gcs_motor")
CHART_NAMES = VITAL_NAMES + GCS_NAMES

COMORBIDITY_CODES = {
    "hypertension": ("401", "I10"),
    "heart_failure": ("428", "I50"),
    "myocardial_infarction": ("410", "I21"),
    "diabetes": ("250", "E11"),
    "copd": ("496", "J44"),
}

VENTILATION_ITEMS = frozenset({225792, 225794})
EPINEPHRINE_ITEMS = frozenset({221289})
DOPAMINE_ITEMS = frozenset({221662})

FLAG_NAMES = tuple(COMORBIDITY_CODES) + ("received_ventilation", "epinephrine", "dopamine")


@dataclass(frozen=True)
class PlausibilityRule:
    variable: str
    lower: float
    upper: float
    unit: str = ""

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"{self.variable}: lower must be < upper")


# Only three bounds are dictated by the source data conventions (wbc, glucose,
# lactate); the rest are deliberately wide so they only catch unit errors and
# typos. The applied table is exported with every run for auditability.
DEFAULT_PLAUSIBILITY = (
    PlausibilityRule("hr", 20, 300, "bpm"),
    PlausibilityRule("sbp", 40, 300, "mmHg"),
    PlausibilityRule("dbp", 20, 200, "mmHg"),
    PlausibilityRule("mbp", 30, 250, "mmHg"),
    PlausibilityRule("rr", 4, 60, "/min"),
    PlausibilityRule("bt", 77, 113, "F"),
    PlausibilityRule("spo2", 50, 100, "%"),
    PlausibilityRule("wbc", 1, 50, "K/uL"),
    PlausibilityRule("glucose", 10, 600, "mg/dL"),
    PlausibilityRule("lactate", 0.1, 20, "mmol/L"),
    PlausibilityRule("ph", 6.5, 8.0, ""),
    PlausibilityRule("hematocrit", 10, 70, "%"),
    PlausibilityRule("hemoglobin", 2, 25, "g/dL"),
    PlausibilityRule("platelet", 5, 2000, "K/uL"),
    PlausibilityRule("pt", 5, 150, "s"),
    PlausibilityRule("inr", 0.2, 20, ""),
    PlausibilityRule("creatinine", 0.1, 40, "mg/dL"),
    PlausibilityRule("bun", 1, 300, "mg/dL"),
    PlausibilityRule("potassium", 1, 12, "mEq/L"),
    PlausibilityRule("sodium", 90, 200, "mEq/L"),
    PlausibilityRule("calcium", 2, 20, "mg/dL"),
    PlausibilityRule("chloride", 50, 175, "mEq/L"),
    PlausibilityRule("anion_gap", 1, 60, "mEq/L"),
    PlausibilityRule("bicarbonate", 2, 60, "mEq/L"),
    PlausibilityRule("gcs_eye", 1, 4, ""),
    PlausibilityRule("gcs_verbal", 1, 5, ""),
    PlausibilityRule("gcs_motor", 1, 6, ""),
)


def convert_temperature(value, unit):
    """Celsius -> Fahrenheit; Fahrenheit passes through unchanged."""
    v = np.asarray(value, dtype=float)
    if unit == "C":
        out = v * 9.0 / 5.0 + 32.0
    elif unit == "F":
        out = v.copy() if v.ndim else v
    else:
        raise ValueError(f"unknown temperature unit {unit!r}")
    return float(out) if np.ndim(value) == 0 else out


def fahrenheit_to_celsius(value):
    v = np.asarray(value, dtype=float)
    out = (v - 32.0) * 5.0 / 9.0
    return float(out) if np.ndim(value) == 0 else out


def detect_celsius(value):
    """Heuristic for unlabeled temperatures: the scales do not overlap below 50."""
    return value < 50.0


def mean_bp(sbp, dbp):
    """(SBP + 2*DBP) / 3; the standard arterial mean estimate."""
    return (np.asarray(sbp, dtype=float) + 2.0 * np.asarray(dbp, dtype=float)) / 3.0


def stay_window(stays, key, time="charttime"):
    """Each stay's window, [intime, intime + WINDOW_SECONDS), as the Window
    ``read_csv`` skips lines by: an event's ``key`` names its stay and its
    ``time`` must fall in the window."""
    intime = stays.values("intime")
    return Window(key, time, stays.values(key), intime, intime + WINDOW_SECONDS)


def window_24h(events, stays, *, key="stay_id"):
    """Keep events whose charttime falls in their stay's ``stay_window``.

    Each event looks its ``key`` up in ``stays``, whose keys must be unique
    (DuplicateCohortRow). Events whose key names no stay, or a stay without
    an intime, are unlinked: dropped and counted. Returns (kept rows of
    ``events`` in their order, unlinked count). This is the exact rule: a
    read through the same window only skips lines it would drop as linked.
    """
    require_unique(stays, [key])
    window = stay_window(stays, key)
    # -1 (no stay) picks the NaN appended to the bounds
    row = index_of(window.keys, events.values(key))
    start = np.append(window.start, np.nan)[row]
    end = np.append(window.end, np.nan)[row]
    ct = events.values("charttime")
    unlinked = int(np.isnan(start).sum())
    return events.filter((ct >= start) & (ct < end)), unlinked


def gcs_total(eye, verbal, motor):
    """Sum of component means; components validated against their ranges."""
    e = np.asarray(eye, dtype=float)
    v = np.asarray(verbal, dtype=float)
    m = np.asarray(motor, dtype=float)
    for arr, lo, hi, name in ((e, 1, 4, "eye"), (v, 1, 5, "verbal"), (m, 1, 6, "motor")):
        finite = arr[np.isfinite(arr)]
        if finite.size and ((finite < lo).any() or (finite > hi).any()):
            raise ComponentOutOfRange(f"gcs {name} outside [{lo},{hi}]")
    out = e + v + m
    return float(out) if np.ndim(eye) == 0 else out


def _variable_codes(itemids, table, names):
    """Position in ``names`` of each itemid's name; -1 where ``table`` has none."""
    items = sorted(table)
    codes = np.array([names.index(table[i]) for i in items] + [-1])
    # -1 (no item) picks the -1 appended to the codes
    return codes[index_of(np.array(items, dtype=float), itemids)]


def _events_to_variables(chartevents):
    """Code chart events by ``CHART_NAMES``; align temperature to Fahrenheit."""
    val = chartevents.values("valuenum")
    item = chartevents.values("itemid")
    code = _variable_codes(item, {**VITAL_ITEMS, **GCS_ITEMS}, CHART_NAMES)
    keep = ~np.isnan(val) & (code >= 0)
    bt = np.flatnonzero(code == CHART_NAMES.index("bt"))
    if chartevents.has_column("valueuom"):
        # each distinct unit string is read once
        units, inv = np.unique(chartevents.values("valueuom")[bt], return_inverse=True)
        units = [str(u).strip().upper() for u in units]
        labelled = np.array([u in ("C", "°C", "CELSIUS") for u in units], dtype=bool)[inv]
        unlabelled = np.array([u == "" for u in units], dtype=bool)[inv]
    else:
        labelled, unlabelled = False, True
    celsius = bt[(item[bt] == CELSIUS_ITEM) | labelled | (unlabelled & detect_celsius(val[bt]))]
    out_vals = val.copy()
    out_vals[celsius] = convert_temperature(val[celsius], "C")
    out = chartevents.filter(keep)
    out = out.with_column("variable", "int", code[keep])
    return out.with_column("valuenum", "num", out_vals[keep])


def _pool_duplicate_measurements(events, key):
    """Average simultaneous readings of one variable (arterial + cuff BP);
    one row per (key, variable, charttime), in that order. The readings of
    one row are summed in ascending value order, so the mean does not
    depend on the order of the input rows."""
    var = events.values("variable")
    kvals = events.values(key)
    tvals = events.values("charttime")
    values = events.values("valuenum")
    order = np.lexsort((values, tvals, var, kvals))
    kvals, var, tvals = kvals[order], var[order], tvals[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (kvals[1:] != kvals[:-1]) | (var[1:] != var[:-1]) | (tvals[1:] != tvals[:-1])
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, len(order)))
    pooled = segment_means(values[order], starts, counts)
    return PatientFrame.from_columns([
        (key, "int", kvals[starts]),
        ("variable", "int", var[starts]),
        ("charttime", "time", tvals[starts]),
        ("valuenum", "num", pooled),
    ])


def derive_mbp(frame):
    """Fill missing MBP aggregates from SBP/DBP via the standard formula."""
    out = frame
    for stat in ("mean", "min", "max"):
        mbp = out.values(f"mbp_{stat}")
        derived = mean_bp(out.values(f"sbp_{stat}"), out.values(f"dbp_{stat}"))
        out = out.with_column(f"mbp_{stat}", "num", np.where(np.isnan(mbp), derived, mbp))
    return out


def binary_flags(diagnoses, proc_events, input_events, cohort):
    """Per-stay 0/1 comorbidity and first-24h treatment indicator columns."""
    n = cohort.n_rows
    flags = {name: np.zeros(n) for name in FLAG_NAMES}

    row = index_of(cohort.values("hadm_id"), diagnoses.values("hadm_id"))
    ok = row >= 0
    # each distinct code is matched once
    codes, inv = np.unique(diagnoses.values("icd_code")[ok], return_inverse=True)
    for name, prefixes in COMORBIDITY_CODES.items():
        hit = np.array([str(c).strip().startswith(prefixes) for c in codes], dtype=bool)
        flags[name][row[ok][hit[inv]]] = 1.0

    def mark(events, item_sets):
        row = index_of(cohort.values("stay_id"), events.values("stay_id"))
        item = events.values("itemid")
        for name, items in item_sets:
            flags[name][row[(row >= 0) & np.isin(item, list(items))]] = 1.0

    mark(proc_events, [("received_ventilation", VENTILATION_ITEMS)])
    mark(input_events, [("epinephrine", EPINEPHRINE_ITEMS), ("dopamine", DOPAMINE_ITEMS)])

    return PatientFrame.from_columns(
        [("stay_id", cohort.kind("stay_id"), cohort.values("stay_id"))]
        + [(name, "int", flags[name]) for name in FLAG_NAMES])


def build_structured_features(chartevents, labevents, diagnoses, proc_events,
                              input_events, cohort, rules=DEFAULT_PLAUSIBILITY):
    """Assemble the patient-level structured feature frame.

    Each of the four event tables is windowed to the first 24h of its stay
    (``window_24h``); procedure and input events carry their start time as
    ``charttime``. Returns (features, report) where report carries the
    unlinked count of each event table and per-rule plausibility removal
    counts.
    """
    unlinked = {}
    chart_w, unlinked["chartevents"] = window_24h(chartevents, cohort, key="stay_id")
    labs_w, unlinked["labevents"] = window_24h(labevents, cohort, key="hadm_id")
    procs_w, unlinked["procedureevents"] = window_24h(proc_events, cohort, key="stay_id")
    inputs_w, unlinked["inputevents"] = window_24h(input_events, cohort, key="stay_id")

    chart_vars = _events_to_variables(chart_w)
    chart_vars = _pool_duplicate_measurements(chart_vars, "stay_id")
    chart_vars, chart_counts = _apply_rules_long(chart_vars, rules, CHART_NAMES)

    lab_codes = _variable_codes(labs_w.values("itemid"), LAB_ITEMS, LAB_NAMES)
    labs_long = labs_w.with_column("variable", "int", lab_codes)
    labs_long, lab_counts = _apply_rules_long(labs_long, rules, LAB_NAMES)

    report = {"unlinked": unlinked,
              "plausibility": dict(Counter(chart_counts) + Counter(lab_counts))}

    vital_agg = aggregate_by_key(chart_vars, "stay_id", CHART_NAMES)
    vital_agg = derive_mbp(vital_agg)
    lab_agg = aggregate_by_key(labs_long, "hadm_id", LAB_NAMES)

    flags = binary_flags(diagnoses, procs_w, inputs_w, cohort)

    out = cohort.select(["subject_id", "hadm_id", "stay_id", "anchor_age", "in_hospital_death"])
    out = join(out, vital_agg, ["stay_id"], "left")
    out = join(out, lab_agg, ["hadm_id"], "left")
    out = join(out, flags, ["stay_id"], "left")

    parts = out.matrix(["gcs_eye_mean", "gcs_verbal_mean", "gcs_motor_mean"])
    live = ~np.isnan(parts).any(axis=1)
    total = np.full(out.n_rows, np.nan)
    if live.any():
        total[live] = gcs_total(*parts[live].T)
    out = out.with_column("gcs_total", "num", total)
    drop = [f"{g}_{s}" for g in GCS_NAMES for s in ("min", "max")]
    out = out.drop(drop)
    return out, report


def _apply_rules_long(events, rules, names):
    """Plausibility masking of long-format events, each ``variable`` a
    position in ``names`` or -1; returns (events, nonzero {name: count})."""
    by_var = {r.variable: (r.lower, r.upper) for r in rules}
    # -1 (no variable) picks the NaN bounds appended to the table
    bounds = np.array([by_var.get(n, (np.nan, np.nan)) for n in names] + [(np.nan, np.nan)])
    var = events.values("variable").astype(int)
    lower, upper = bounds[var].T
    vals = events.values("valuenum")
    newly = (vals < lower) | (vals > upper)
    removed = np.bincount(var[newly], minlength=len(names))
    counts = {n: int(c) for n, c in zip(names, removed) if c}
    if newly.any():
        vals[newly] = np.nan
        events = events.with_column("valuenum", "num", vals)
    return events, counts
